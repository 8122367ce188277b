// Multi-relay observer transport (Builder::async_observers with
// relay_threads > 1): shards partitioned round-robin across several relay
// threads, each relay the exclusive consumer of its shards' chunk rings.
// Load-bearing checks, at every relay count:
//  (1) kBlock stays loss-free and the observer stream canonicalizes to
//      exactly the monolithic framework's stream — relays reorder
//      *between* shards only, never within one;
//  (2) the SinkReport result buffers are byte-identical to the
//      single-threaded sink — relay topology moves callbacks, not results;
//  (3) kDropNewest accounts for every shed event exactly (delivered +
//      dropped == the lossless event count);
//  (4) relay_deliveries() decomposes: one total per relay thread, summing
//      to at most the delivered events (the shard worker's inline fast
//      path delivers the remainder itself);
//  (5) per-thread SlabArena churn survives concurrent producers, workers,
//      and relays (this suite runs under TSAN and ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pint/framework.h"
#include "pint/report_codec.h"
#include "pint/sharded_sink.h"

namespace pint {
namespace {

constexpr unsigned kHops = 5;
constexpr std::size_t kFlows = 96;
constexpr std::size_t kPacketsPerFlow = 20;
constexpr unsigned kShards = 4;

PintFramework::Builder three_query_builder() {
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = kHops;
  DynamicAggregationConfig latency_tuning;
  latency_tuning.max_value = 1e6;
  PerPacketConfig cc_tuning;
  cc_tuning.eps = 0.025;
  cc_tuning.max_value = 1e6;
  std::vector<std::uint64_t> universe;
  for (std::uint64_t s = 1; s <= 32; ++s) universe.push_back(s);
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xC0FFEE)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query("latency",
                                    std::string(extractor::kHopLatency), 8,
                                    15.0 / 16.0, latency_tuning))
      .add_query(make_perpacket_query(
          "hpcc", std::string(extractor::kLinkUtilization), 8, 1.0 / 16.0,
          cc_tuning));
  return builder;
}

FiveTuple tuple_of_flow(std::size_t flow) {
  FiveTuple t;
  t.src_ip = 0x0A000000u + static_cast<std::uint32_t>(flow % 7);
  t.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(flow % 11);
  t.src_port = static_cast<std::uint16_t>(1000 + flow);
  t.dst_port = 80;
  return t;
}

std::vector<Packet> make_encoded_traffic() {
  const auto network = three_query_builder().build_or_throw();
  std::vector<Packet> packets;
  packets.reserve(kFlows * kPacketsPerFlow);
  PacketId next_id = 1;
  for (std::size_t j = 0; j < kPacketsPerFlow; ++j) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      Packet p;
      p.id = next_id++;
      p.tuple = tuple_of_flow(f);
      packets.push_back(std::move(p));
    }
  }
  for (Packet& p : packets) {
    const std::size_t f = (p.id - 1) % kFlows;
    for (HopIndex i = 1; i <= kHops; ++i) {
      SwitchView view(static_cast<SwitchId>(f % 8 + i));
      view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f));
      view.set(metric::kLinkUtilization, 0.1 * i + 0.01 * (f % 10));
      network->at_switch(p, i, view);
    }
  }
  return packets;
}

// Captures the observer stream. Callbacks arrive under the sink's observer
// mutex whatever the relay topology, so no internal locking is needed —
// that serialization is itself part of what this suite verifies under TSAN.
struct RecordingObserver : SinkObserver {
  struct Rec {
    SinkContext ctx;
    std::string query;
    bool path_event = false;
    Observation obs{};
    std::vector<SwitchId> path;
  };
  std::vector<Rec> records;
  std::chrono::microseconds delay{0};  // simulated per-event observer cost

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    records.push_back({ctx, std::string(query), false, obs, {}});
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    records.push_back({ctx, std::string(query), true, {}, path});
  }
};

std::vector<std::uint8_t> canonical_bytes(
    std::vector<RecordingObserver::Rec> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const auto& a, const auto& b) {
                     return a.ctx.packet_id < b.ctx.packet_id;
                   });
  ReportEncoder enc;
  for (const auto& rec : records) {
    if (rec.path_event) {
      enc.add_path(rec.ctx, rec.query, rec.path);
    } else {
      enc.add(rec.ctx, rec.query, rec.obs);
    }
  }
  return enc.finish();
}

// The reference stream: one monolithic framework, observers inline.
RecordingObserver monolithic_reference(const std::vector<Packet>& packets) {
  RecordingObserver obs;
  const auto fw = three_query_builder().build_or_throw();
  fw->add_observer(&obs);
  SinkReport report;
  for (const Packet& p : packets) fw->at_sink(p, kHops, report);
  return obs;
}

TEST(MultiRelay, BlockModeLossFreeAtEveryRelayCount) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const RecordingObserver ref_obs = monolithic_reference(packets);
  ASSERT_FALSE(ref_obs.records.empty());
  const std::vector<std::uint8_t> reference =
      canonical_bytes(ref_obs.records);

  for (const unsigned relays : {2u, 3u, 4u}) {
    auto builder = three_query_builder();
    // Shallow ring so the workers outrun the relays and exercise chunk
    // sealing, blocking, and cross-relay wakeups — not just the inline
    // fast path.
    builder.async_observers(64, OverflowPolicy::kBlock, relays);
    RecordingObserver obs;
    obs.delay = std::chrono::microseconds{5};
    std::vector<SinkReport> reports(packets.size());
    ShardedSink sink(builder, kShards);
    sink.add_observer(&obs);
    sink.submit(std::span<const Packet>(packets), kHops, reports);
    sink.flush();

    const TransportCounters t = sink.observer_counters();
    EXPECT_EQ(t.observer_drops, 0u) << relays << " relays";
    EXPECT_EQ(obs.records.size(), ref_obs.records.size())
        << relays << " relays";
    EXPECT_EQ(canonical_bytes(obs.records), reference)
        << relays << " relays";

    // relay_deliveries() decomposition: one entry per relay thread; the
    // relays deliver at most every event (the worker's inline path covers
    // the rest), and with a slow observer at least one ring chunk must
    // have gone through a relay.
    const std::vector<std::uint64_t> deliveries = sink.relay_deliveries();
    EXPECT_EQ(deliveries.size(), relays);
    const std::uint64_t relayed = std::accumulate(
        deliveries.begin(), deliveries.end(), std::uint64_t{0});
    EXPECT_LE(relayed, obs.records.size());
    EXPECT_GT(relayed, 0u) << "relays never engaged; weak test";
  }
}

TEST(MultiRelay, BlockModePreservesPerFlowOrder) {
  const std::vector<Packet> packets = make_encoded_traffic();
  for (const unsigned relays : {2u, 4u}) {
    auto builder = three_query_builder();
    builder.async_observers(32, OverflowPolicy::kBlock, relays);
    RecordingObserver obs;
    obs.delay = std::chrono::microseconds{2};
    ShardedSink sink(builder, kShards);
    sink.add_observer(&obs);
    sink.submit(std::span<const Packet>(packets), kHops,
                std::span<SinkReport>{});
    sink.flush();
    ASSERT_FALSE(obs.records.empty());
    // A flow lives on one shard, a shard on one relay: per-flow events
    // must stay in submission (ascending packet-id) order even while
    // relays interleave different shards' chunks.
    std::map<std::uint64_t, PacketId> last_seen;
    for (const auto& rec : obs.records) {
      if (rec.query != "path") continue;
      auto [it, first] =
          last_seen.try_emplace(rec.ctx.flow, rec.ctx.packet_id);
      if (!first) {
        EXPECT_LE(it->second, rec.ctx.packet_id)
            << "flow " << rec.ctx.flow << " reordered under " << relays
            << " relays";
        it->second = rec.ctx.packet_id;
      }
    }
  }
}

TEST(MultiRelay, ReportsByteIdenticalAtEveryRelayCount) {
  const std::vector<Packet> packets = make_encoded_traffic();

  const auto baseline = three_query_builder().build_or_throw();
  std::vector<SinkReport> base_reports(packets.size());
  baseline->at_sink(std::span<const Packet>(packets), kHops, base_reports);
  ReportEncoder base_enc;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    base_enc.add(packets[i].id, kHops, base_reports[i]);
  }
  const std::vector<std::uint8_t> base_bytes = base_enc.finish();

  for (const unsigned relays : {2u, 3u, 4u}) {
    auto builder = three_query_builder();
    builder.async_observers(64, OverflowPolicy::kBlock, relays);
    std::vector<SinkReport> reports(packets.size());
    ShardedSink sink(builder, kShards);
    sink.submit(std::span<const Packet>(packets), kHops, reports);
    sink.flush();
    ReportEncoder enc;
    for (std::size_t i = 0; i < packets.size(); ++i) {
      enc.add(packets[i].id, kHops, reports[i]);
    }
    EXPECT_EQ(enc.finish(), base_bytes) << relays << " relays";
  }
}

TEST(MultiRelay, DropNewestAccountsExactlyAtEveryRelayCount) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const RecordingObserver ref_obs = monolithic_reference(packets);
  const std::size_t total_events = ref_obs.records.size();
  ASSERT_GT(total_events, 0u);

  for (const unsigned relays : {2u, 4u}) {
    auto builder = three_query_builder();
    // Starved transport: tiny event budget plus a slow observer force
    // admission-time shedding on every shard.
    builder.async_observers(2, OverflowPolicy::kDropNewest, relays);
    RecordingObserver obs;
    obs.delay = std::chrono::microseconds{100};
    ShardedSink sink(builder, kShards);
    sink.add_observer(&obs);
    sink.submit(std::span<const Packet>(packets), kHops,
                std::span<SinkReport>{});
    sink.flush();

    const TransportCounters t = sink.observer_counters();
    EXPECT_TRUE(t.active);
    EXPECT_EQ(t.observer_events, obs.records.size()) << relays << " relays";
    EXPECT_EQ(t.observer_events + t.observer_drops, total_events)
        << relays << " relays";
    EXPECT_GT(t.observer_drops, 0u)
        << "workload did not pressure the transport; weak test";
  }
}

TEST(MultiRelay, ConcurrentProducersWithArenaChurn) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const RecordingObserver ref_obs = monolithic_reference(packets);
  const std::size_t total_events = ref_obs.records.size();

  // Four producer threads push disjoint slices through the MPMC front-end
  // while four shard workers churn their per-thread slab arenas and two
  // relays drain — every concurrency axis of the sink at once. TSAN and
  // ASan/UBSan runs of this suite are what make the "no data races, no
  // arena lifetime bugs" claim checkable.
  auto builder = three_query_builder();
  builder.async_observers(128, OverflowPolicy::kBlock, /*relay_threads=*/2);
  RecordingObserver obs;
  obs.delay = std::chrono::microseconds{1};
  ShardedSink sink(builder, kShards);
  sink.add_observer(&obs);

  constexpr std::size_t kProducers = 4;
  const std::span<const Packet> all(packets);
  std::vector<std::thread> producers;
  const std::size_t slice = (all.size() + kProducers - 1) / kProducers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    const std::size_t begin = std::min(p * slice, all.size());
    const std::size_t end = std::min(begin + slice, all.size());
    producers.emplace_back([&sink, all, begin, end] {
      // Small bursts maximize interleaving across producers.
      for (std::size_t off = begin; off < end; off += 32) {
        const std::size_t n = std::min<std::size_t>(32, end - off);
        sink.submit(all.subspan(off, n), kHops);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  sink.flush();

  const TransportCounters t = sink.observer_counters();
  EXPECT_EQ(t.observer_drops, 0u);
  EXPECT_EQ(obs.records.size(), total_events);
  // Producer interleaving changes per-flow packet order, so streams are
  // not comparable event-for-event — but per-query totals must hold.
  std::map<std::string, std::size_t> got, want;
  for (const auto& rec : obs.records) ++got[rec.query];
  for (const auto& rec : ref_obs.records) ++want[rec.query];
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace pint
