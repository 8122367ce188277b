// Observer delivery through ShardedSink's relay transport (on by default,
// tuned by Builder::async_observers). Load-bearing checks: (1) under
// kBlock, delivery is loss-free and per-shard ordered — the captured
// stream canonicalizes to exactly the monolithic framework's stream;
// (2) under kDropNewest with a tiny ring and a slow observer, drop
// counters are exact (delivered + dropped == every event the frameworks
// emitted); (3) the SinkReport buffers stay byte-identical to the
// single-threaded sink — the transport only moves callbacks, never
// results; (4) flush() drains the relay, so post-flush observer state is
// complete.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <stdexcept>
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

// Captures the full observer stream. Registered through
// ShardedSink::add_observer, so callbacks arrive serialized under the
// sink's observer mutex — no internal locking needed.
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

// Canonical bytes: stable-sorted by packet id (each packet's events come
// from exactly one shard, in order), then re-encoded with the codec.
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
RecordingObserver monolithic_reference(std::span<const Packet> packets) {
  RecordingObserver obs;
  const auto fw = three_query_builder().build_or_throw();
  fw->add_observer(&obs);
  SinkReport report;
  for (const Packet& p : packets) fw->at_sink(p, kHops, report);
  return obs;
}

// Runs the traffic through a ShardedSink built from `builder`, returns the
// captured observer stream (flushed).
RecordingObserver run_sink(const PintFramework::Builder& builder,
                           unsigned shards,
                           std::span<const Packet> packets,
                           std::span<SinkReport> reports,
                           std::chrono::microseconds delay =
                               std::chrono::microseconds{0}) {
  RecordingObserver obs;
  obs.delay = delay;
  ShardedSink sink(builder, shards);
  sink.add_observer(&obs);
  sink.submit(packets, kHops, reports);
  sink.flush();
  // Post-flush, the relay has delivered everything it will ever deliver
  // for these packets; counters must agree with what we saw.
  const TransportCounters t = sink.observer_counters();
  EXPECT_EQ(t.observer_events, obs.records.size());
  return obs;
}

TEST(AsyncObservers, BlockModeIsLossFreeAndCanonicallyIdentical) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const RecordingObserver ref_obs = monolithic_reference(packets);
  ASSERT_FALSE(ref_obs.records.empty());

  auto async_builder = three_query_builder();
  async_builder.async_observers(64, OverflowPolicy::kBlock);
  for (const unsigned shards : {1u, 2u, 4u}) {
    std::vector<SinkReport> reports(packets.size());
    const RecordingObserver async_obs =
        run_sink(async_builder, shards, packets, reports);
    // Loss-free: same number of events, and the canonicalized streams are
    // byte-identical to the monolithic framework's inline delivery.
    EXPECT_EQ(async_obs.records.size(), ref_obs.records.size());
    EXPECT_EQ(canonical_bytes(async_obs.records),
              canonical_bytes(ref_obs.records))
        << shards << " shards";
  }
}

TEST(AsyncObservers, DefaultTransportIsLossFreeAndCanonicallyIdentical) {
  // No async_observers call: the sink still delivers through the relay
  // transport, at its default depth, kBlock and one relay.
  const std::vector<Packet> packets = make_encoded_traffic();
  const RecordingObserver reference = monolithic_reference(packets);
  ASSERT_FALSE(reference.records.empty());
  for (const unsigned shards : {1u, 2u, 4u}) {
    RecordingObserver obs;
    ShardedSink sink(three_query_builder(), shards);
    sink.add_observer(&obs);
    sink.submit(packets, kHops);
    sink.flush();
    const TransportCounters t = sink.observer_counters();
    EXPECT_EQ(t.observer_events, obs.records.size()) << shards << " shards";
    EXPECT_EQ(t.observer_drops, 0u) << shards << " shards";
    EXPECT_EQ(sink.relay_threads(), 1u);
    EXPECT_EQ(obs.records.size(), reference.records.size());
    EXPECT_EQ(canonical_bytes(obs.records), canonical_bytes(reference.records))
        << shards << " shards";
  }
  // A zero-event budget would be a transport that can carry nothing.
  auto builder = three_query_builder();
  EXPECT_THROW(builder.async_observers(0, OverflowPolicy::kBlock),
               std::invalid_argument);
}

TEST(AsyncObservers, BlockModePreservesPerShardOrder) {
  const std::vector<Packet> packets = make_encoded_traffic();
  auto builder = three_query_builder();
  builder.async_observers(32, OverflowPolicy::kBlock);
  std::vector<SinkReport> reports(packets.size());
  const RecordingObserver obs = run_sink(builder, 4, packets, reports);
  ASSERT_FALSE(obs.records.empty());
  // All of a flow's packets land on one shard and are submitted in
  // ascending packet-id order, so per-shard FIFO delivery implies
  // non-decreasing packet ids within each flow's event stream.
  std::map<std::uint64_t, PacketId> last_seen;  // flow key -> last packet id
  for (const auto& rec : obs.records) {
    if (rec.query != "path") continue;  // one per-flow query suffices
    auto [it, first] = last_seen.try_emplace(rec.ctx.flow, rec.ctx.packet_id);
    if (!first) {
      EXPECT_LE(it->second, rec.ctx.packet_id)
          << "flow " << rec.ctx.flow << " saw events out of order";
      it->second = rec.ctx.packet_id;
    }
  }
}

TEST(AsyncObservers, ReportBuffersStayByteIdentical) {
  const std::vector<Packet> packets = make_encoded_traffic();

  // Single-threaded reference stream.
  const auto baseline = three_query_builder().build_or_throw();
  std::vector<SinkReport> base_reports(packets.size());
  baseline->at_sink(std::span<const Packet>(packets), kHops, base_reports);
  ReportEncoder base_enc;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    base_enc.add(packets[i].id, kHops, base_reports[i]);
  }
  const std::vector<std::uint8_t> base_bytes = base_enc.finish();

  auto builder = three_query_builder();
  builder.async_observers(16, OverflowPolicy::kDropNewest);
  std::vector<SinkReport> reports(packets.size());
  ShardedSink sink(builder, 2);
  sink.submit(packets, kHops, reports);
  sink.flush();
  ReportEncoder enc;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    enc.add(packets[i].id, kHops, reports[i]);
  }
  // Even when the observer ring drops, the *reports* are untouched: the
  // async stage moves callbacks off the packet path, never results.
  EXPECT_EQ(enc.finish(), base_bytes);
}

TEST(AsyncObservers, DropNewestCountsDropsExactly) {
  const std::vector<Packet> packets = make_encoded_traffic();

  // Deterministic ground truth: total events emitted per workload is the
  // monolithic (lossless) event count.
  const RecordingObserver ref_obs = monolithic_reference(packets);
  const std::size_t total_events = ref_obs.records.size();
  ASSERT_GT(total_events, 0u);

  // Tiny ring + slow observer: the relay cannot keep up, so kDropNewest
  // must shed — and account for every shed event.
  auto builder = three_query_builder();
  builder.async_observers(2, OverflowPolicy::kDropNewest);
  RecordingObserver obs;
  obs.delay = std::chrono::microseconds{200};
  ShardedSink sink(builder, 2);
  sink.add_observer(&obs);
  sink.submit(packets, kHops, std::span<SinkReport>{});
  sink.flush();
  const TransportCounters t = sink.observer_counters();
  EXPECT_TRUE(t.active);
  // Exactness: delivered + dropped == emitted, and flush() delivered
  // everything that was published.
  EXPECT_EQ(t.observer_events, obs.records.size());
  EXPECT_EQ(t.observer_events + t.observer_drops, total_events);
  EXPECT_GT(t.observer_drops, 0u) << "workload did not pressure the ring";
}

TEST(AsyncObservers, BlockModeNeverDropsUnderPressure) {
  const std::vector<Packet> packets = make_encoded_traffic();
  auto builder = three_query_builder();
  builder.async_observers(2, OverflowPolicy::kBlock);  // 2-deep: constant
                                                       // overflow pressure
  std::vector<SinkReport> reports(packets.size());
  RecordingObserver obs;
  obs.delay = std::chrono::microseconds{50};
  ShardedSink sink(builder, 2);
  sink.add_observer(&obs);
  sink.submit(packets, kHops, reports);
  sink.flush();
  const TransportCounters t = sink.observer_counters();
  EXPECT_EQ(t.observer_drops, 0u);
  EXPECT_EQ(t.observer_events, obs.records.size());
  EXPECT_GT(t.observer_blocked_waits, 0u) << "ring never filled; weak test";

  const RecordingObserver ref_obs = monolithic_reference(packets);
  EXPECT_EQ(obs.records.size(), ref_obs.records.size());
}

TEST(AsyncObservers, DropNewestShedsOnlyMinimumPriorityQueries) {
  const std::vector<Packet> packets = make_encoded_traffic();

  // Ground truth per query from the lossless monolithic run.
  const RecordingObserver ref_obs = monolithic_reference(packets);
  std::map<std::string, std::size_t> ref_counts;
  for (const auto& rec : ref_obs.records) ++ref_counts[rec.query];
  ASSERT_GT(ref_counts["hpcc"], 0u);

  // Same mix, but path and latency outrank hpcc: under kDropNewest with a
  // starved ring, ONLY the minimum-priority class (hpcc) may be shed.
  // Higher classes block the publisher instead of dropping.
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
  auto path_q = make_path_query("path", 8, 1.0, path_tuning);
  path_q.priority = 2;
  auto latency_q = make_dynamic_query("latency",
                                      std::string(extractor::kHopLatency), 8,
                                      15.0 / 16.0, latency_tuning);
  latency_q.priority = 2;
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(0xC0FFEE)
      .switch_universe(std::move(universe))
      .add_query(path_q)
      .add_query(latency_q)
      .add_query(make_perpacket_query(
          "hpcc", std::string(extractor::kLinkUtilization), 8, 1.0 / 16.0,
          cc_tuning));
  builder.async_observers(2, OverflowPolicy::kDropNewest);
  builder.memory_report_interval_packets(100);

  struct MemoryCounter : SinkObserver {
    std::uint64_t reports = 0;
    void on_memory_report(const MemoryReport&) override { ++reports; }
  };
  RecordingObserver obs;
  obs.delay = std::chrono::microseconds{200};
  MemoryCounter memory;
  ShardedSink sink(builder, 2);
  sink.add_observer(&obs);
  sink.add_observer(&memory);
  sink.submit(packets, kHops, std::span<SinkReport>{});
  sink.flush();

  std::map<std::string, std::size_t> got_counts;
  for (const auto& rec : obs.records) ++got_counts[rec.query];
  // Protected classes are loss-free even while the ring starves...
  EXPECT_EQ(got_counts["path"], ref_counts["path"]);
  EXPECT_EQ(got_counts["latency"], ref_counts["latency"]);
  // ...and every drop is accounted against the sheddable class.
  const TransportCounters t = sink.observer_counters();
  EXPECT_GT(t.observer_drops, 0u) << "workload did not pressure the ring";
  EXPECT_EQ(got_counts["hpcc"] + t.observer_drops, ref_counts["hpcc"]);
  // Memory heartbeats are never sheddable — the drop accounting itself
  // must survive the shedding it reports.
  EXPECT_GE(memory.reports, packets.size() / 100 / 2);
}

TEST(AsyncObservers, CoalescedWakeupsLoseNothingAcrossFlushCycles) {
  // Regression test for the wakeup-coalescing bug class: the relay sleeps
  // between batches and the worker publishes under a deferred-fold counter
  // protocol, so the dangerous schedule is "tiny batch, flush, repeat" —
  // every cycle forces a sleep/wake (or inline-delivery) transition, and a
  // lost wakeup or a stale fold shows up as a hung flush() or a count that
  // lags the submitted traffic. Run the same cycle-chopped workload with a
  // fast observer (worker keeps up: the inline path delivers) and a slow
  // one (ring path + real relay wakeups); both must stay exact after
  // EVERY cycle, not just at the end.
  const std::vector<Packet> packets = make_encoded_traffic();
  const RecordingObserver ref_obs = monolithic_reference(packets);
  ASSERT_FALSE(ref_obs.records.empty());

  for (const auto delay :
       {std::chrono::microseconds{0}, std::chrono::microseconds{3}}) {
    auto builder = three_query_builder();
    builder.async_observers(64, OverflowPolicy::kBlock);
    RecordingObserver obs;
    obs.delay = delay;
    ShardedSink sink(builder, 2);
    sink.add_observer(&obs);

    const std::span<const Packet> all(packets);
    constexpr std::size_t kCycle = 7;  // odd and tiny: never batch-aligned
    for (std::size_t off = 0; off < all.size(); off += kCycle) {
      const std::size_t n = std::min(kCycle, all.size() - off);
      sink.submit(all.subspan(off, n), kHops);
      sink.flush();
      // flush() has drained the transport: the published counter and the
      // observer's view must agree exactly, mid-stream.
      const TransportCounters t = sink.observer_counters();
      ASSERT_EQ(t.observer_events, obs.records.size())
          << "after submitting " << (off + n) << " packets (delay "
          << delay.count() << "us)";
      ASSERT_EQ(t.observer_drops, 0u);
    }

    // The chopped-up schedule must still produce the exact monolithic
    // stream: same events, same per-shard order.
    EXPECT_EQ(obs.records.size(), ref_obs.records.size());
    EXPECT_EQ(canonical_bytes(obs.records),
              canonical_bytes(ref_obs.records))
        << "delay " << delay.count() << "us";
    std::map<std::uint64_t, PacketId> last_seen;
    for (const auto& rec : obs.records) {
      if (rec.query != "path") continue;
      auto [it, first] =
          last_seen.try_emplace(rec.ctx.flow, rec.ctx.packet_id);
      if (!first) {
        EXPECT_LE(it->second, rec.ctx.packet_id)
            << "flow " << rec.ctx.flow << " reordered across flush cycles";
        it->second = rec.ctx.packet_id;
      }
    }
  }
}

TEST(AsyncObservers, MemoryReportsRideTheRelay) {
  const std::vector<Packet> packets = make_encoded_traffic();
  auto builder = three_query_builder();
  builder.async_observers(256, OverflowPolicy::kBlock)
      .memory_report_interval_packets(100);

  struct MemoryCounter : SinkObserver {
    std::uint64_t reports = 0;
    void on_memory_report(const MemoryReport&) override { ++reports; }
  };
  MemoryCounter counter;
  ShardedSink sink(builder, 2);
  sink.add_observer(&counter);
  sink.submit(packets, kHops, std::span<SinkReport>{});
  sink.flush();
  // Each shard replica heartbeats on its own packet counter; together the
  // shards saw every packet, so at least floor(total/interval) heartbeats
  // were published (skew across shards can only add reports).
  EXPECT_GE(counter.reports, packets.size() / 100 / 2);
}

}  // namespace
}  // namespace pint
