// ShardedSink: the multi-threaded Recording Module must be externally
// indistinguishable from the single-threaded sink. The load-bearing check is
// byte-identical merged SinkReport streams for the paper's three-query mix
// (Section 6.4) at several shard counts, plus merged-inference equality and
// the flow-partition rules.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "pint/framework.h"
#include "pint/report_codec.h"
#include "pint/sharded_sink.h"

namespace pint {
namespace {

constexpr unsigned kHops = 5;
constexpr std::size_t kFlows = 120;
constexpr std::size_t kPacketsPerFlow = 24;

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

// kFlows flows, each with a fixed kHops-switch path, interleaved round-robin
// (packet j of every flow, then packet j+1) — the order a real sink would
// see concurrent flows in. Digests are encoded by a dedicated "network"
// framework replica.
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
      // Flow f's path: switches f%8+1 .. f%8+kHops (within the universe).
      SwitchView view(static_cast<SwitchId>(f % 8 + i));
      view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f));
      view.set(metric::kLinkUtilization, 0.1 * i + 0.01 * (f % 10));
      network->at_switch(p, i, view);
    }
  }
  return packets;
}

// The merged report stream, canonicalized to bytes: submission order, one
// report per packet.
std::vector<std::uint8_t> stream_bytes(std::span<const Packet> packets,
                                       std::span<const SinkReport> reports) {
  ReportEncoder enc;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    enc.add(packets[i].id, kHops, reports[i]);
  }
  return enc.finish();
}

struct CountingObserver : SinkObserver {
  std::atomic<std::uint64_t> observations{0};
  std::atomic<std::uint64_t> paths_decoded{0};

  void on_observation(const SinkContext&, std::string_view,
                      const Observation&) override {
    ++observations;
  }
  void on_path_decoded(const SinkContext&, std::string_view,
                       const std::vector<SwitchId>&) override {
    ++paths_decoded;
  }
};

TEST(ShardedSink, MergedReportsByteIdenticalToSingleThreaded) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  // Single-threaded reference.
  const auto baseline = builder.build_or_throw();
  std::vector<SinkReport> base_reports(packets.size());
  baseline->at_sink(std::span<const Packet>(packets), kHops, base_reports);
  const std::vector<std::uint8_t> base_bytes =
      stream_bytes(packets, base_reports);
  ASSERT_FALSE(base_bytes.empty());

  for (const unsigned shards : {1u, 2u, 4u}) {
    ShardedSink sink(builder, shards);
    EXPECT_EQ(sink.partition_definition(), FlowDefinition::kFiveTuple);
    std::vector<SinkReport> reports(packets.size());
    // Submit in several batches to exercise the queue, not one giant span.
    const std::size_t half = packets.size() / 2;
    sink.submit(std::span<const Packet>(packets.data(), half), kHops,
                std::span<SinkReport>(reports.data(), half));
    sink.submit(
        std::span<const Packet>(packets.data() + half, packets.size() - half),
        kHops, std::span<SinkReport>(reports.data() + half,
                                     packets.size() - half));
    sink.flush();
    EXPECT_EQ(sink.packets_processed(), packets.size());
    EXPECT_EQ(stream_bytes(packets, reports), base_bytes)
        << "shards=" << shards;
  }
}

TEST(ShardedSink, MergedInferenceMatchesSingleThreaded) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  const auto baseline = builder.build_or_throw();
  baseline->at_sink(std::span<const Packet>(packets), kHops);

  ShardedSink sink(builder, 4);
  sink.submit(packets, kHops);
  sink.flush();

  std::size_t paths_checked = 0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const FiveTuple tuple = tuple_of_flow(f);
    const std::uint64_t fkey = baseline->flow_key_for("path", tuple);
    EXPECT_EQ(sink.path_progress("path", tuple),
              baseline->path_progress("path", fkey));
    const auto base_path = baseline->flow_path("path", fkey);
    const auto sharded_path = sink.flow_path("path", tuple);
    EXPECT_EQ(sharded_path, base_path);
    if (base_path.has_value()) ++paths_checked;
    for (HopIndex hop = 1; hop <= kHops; ++hop) {
      EXPECT_EQ(sink.latency_quantile("latency", tuple, hop, 0.5),
                baseline->latency_quantile(
                    "latency", baseline->flow_key_for("latency", tuple), hop,
                    0.5));
    }
  }
  // With 24 packets over a 5-hop path, most flows must fully decode.
  EXPECT_GT(paths_checked, kFlows / 2);
}

TEST(ShardedSink, SerializedObserversSeeEveryEvent) {
  const std::vector<Packet> packets = make_encoded_traffic();
  const auto builder = three_query_builder();

  const auto baseline = builder.build_or_throw();
  CountingObserver reference;
  baseline->add_observer(&reference);
  baseline->at_sink(std::span<const Packet>(packets), kHops);

  ShardedSink sink(builder, 4);
  CountingObserver counter;
  sink.add_observer(&counter);
  sink.submit(packets, kHops);
  sink.flush();

  EXPECT_EQ(counter.observations.load(), reference.observations.load());
  EXPECT_EQ(counter.paths_decoded.load(), reference.paths_decoded.load());
}

TEST(ShardedSink, PartitionUsesCoarsestFlowDefinition) {
  DynamicAggregationConfig tuning;
  tuning.max_value = 1e6;
  QuerySpec by_source = make_dynamic_query(
      "per_source", std::string(extractor::kHopLatency), 8, 1.0, tuning);
  by_source.query.flow_definition = FlowDefinition::kSourceIp;
  std::vector<std::uint64_t> universe{1, 2, 3, 4};
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0))
      .add_query(by_source);

  ShardedSink sink(builder, 4);
  EXPECT_EQ(sink.partition_definition(), FlowDefinition::kSourceIp);
  // Flows sharing a source must land on one shard, whatever the rest of the
  // tuple says — otherwise the per-source recorder state would split.
  FiveTuple a = tuple_of_flow(1);
  FiveTuple b = tuple_of_flow(2);
  b.src_ip = a.src_ip;
  EXPECT_EQ(sink.shard_of(a), sink.shard_of(b));
}

TEST(ShardedSink, RejectsUnpartitionableQueryMix) {
  DynamicAggregationConfig tuning;
  tuning.max_value = 1e6;
  QuerySpec by_source = make_dynamic_query(
      "per_source", std::string(extractor::kHopLatency), 8, 0.5, tuning);
  by_source.query.flow_definition = FlowDefinition::kSourceIp;
  QuerySpec by_dest = make_dynamic_query(
      "per_dest", std::string(extractor::kQueueOccupancy), 8, 0.5, tuning);
  by_dest.query.flow_definition = FlowDefinition::kDestinationIp;
  PintFramework::Builder builder;
  builder.global_bit_budget(16).add_query(by_source).add_query(by_dest);

  EXPECT_THROW(ShardedSink(builder, 2), std::invalid_argument);
  EXPECT_NO_THROW(ShardedSink(builder, 1));  // one shard: nothing to split
}

TEST(ShardedSink, RejectsZeroShardsAndBadBuilder) {
  EXPECT_THROW(ShardedSink(three_query_builder(), 0), std::invalid_argument);
  PintFramework::Builder empty;
  EXPECT_THROW(ShardedSink(empty, 2), std::invalid_argument);
}

// The MPMC front-end under real contention: four producer threads (think
// four NIC queues) each blast their own flows into one sink through small
// queues, so submits regularly hit a full queue and block. The merged
// per-producer report streams must equal a single-producer baseline
// byte-for-byte, and no digest may be lost or duplicated.
TEST(ShardedSink, MpmcFourProducerStressMatchesSingleProducerBaseline) {
  constexpr unsigned kProducers = 4;
  constexpr std::size_t kStressFlows = 500;           // per producer, disjoint
  constexpr std::size_t kStressPacketsPerFlow = 200;  // 100k per producer
  constexpr std::size_t kSubmitBatch = 512;

  const auto builder = three_query_builder();
  const auto network = builder.build_or_throw();
  std::vector<std::vector<Packet>> traffic(kProducers);
  PacketId next_id = 1;
  for (unsigned p = 0; p < kProducers; ++p) {
    std::vector<Packet>& packets = traffic[p];
    packets.reserve(kStressFlows * kStressPacketsPerFlow);
    for (std::size_t j = 0; j < kStressPacketsPerFlow; ++j) {
      for (std::size_t f = 0; f < kStressFlows; ++f) {
        Packet pkt;
        pkt.id = next_id++;
        // Producer p owns flows (p, f): disjoint across producers, so
        // per-flow packet order — the thing that determines reports — is
        // preserved no matter how the producers' submits interleave.
        pkt.tuple.src_ip =
            0x0A000000u + (p << 16) + static_cast<std::uint32_t>(f);
        pkt.tuple.dst_ip = 0x0B000000u + static_cast<std::uint32_t>(f % 64);
        pkt.tuple.src_port = static_cast<std::uint16_t>(f);
        pkt.tuple.dst_port = static_cast<std::uint16_t>(4000 + p);
        packets.push_back(std::move(pkt));
      }
    }
    for (Packet& pkt : packets) {
      const std::uint32_t f = pkt.tuple.src_ip & 0xFFFFu;
      for (HopIndex i = 1; i <= kHops; ++i) {
        SwitchView view(static_cast<SwitchId>((f + p + i) % 8 + 1));
        view.set(metric::kHopLatencyNs,
                 50.0 * i + static_cast<double>(f % 97));
        view.set(metric::kLinkUtilization, 0.02 * i + 0.001 * p);
        network->at_switch(pkt, i, view);
      }
    }
  }

  // Single-producer baseline: the producers' streams processed one after
  // another (flows are disjoint, so cross-producer order is irrelevant to
  // any per-packet report).
  const auto baseline = builder.build_or_throw();
  CountingObserver reference;
  baseline->add_observer(&reference);
  std::vector<std::vector<SinkReport>> base_reports(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    base_reports[p].resize(traffic[p].size());
    baseline->at_sink(std::span<const Packet>(traffic[p]), kHops,
                      base_reports[p]);
  }

  // Small queues force regular backpressure blocking in submit().
  ShardedSink sink(builder, 2, /*queue_depth=*/16);
  CountingObserver counter;
  sink.add_observer(&counter);
  std::vector<std::vector<SinkReport>> reports(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    reports[p].resize(traffic[p].size());
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::span<const Packet> packets(traffic[p]);
      const std::span<SinkReport> out(reports[p]);
      for (std::size_t off = 0; off < packets.size(); off += kSubmitBatch) {
        const std::size_t n = std::min(kSubmitBatch, packets.size() - off);
        sink.submit(packets.subspan(off, n), kHops, out.subspan(off, n));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  sink.flush();

  // No digest lost or duplicated, at three independent layers: the shard
  // counters, the observer stream, and the per-packet report bytes.
  const std::size_t total =
      kProducers * kStressFlows * kStressPacketsPerFlow;
  EXPECT_EQ(sink.packets_processed(), total);
  EXPECT_EQ(counter.observations.load(), reference.observations.load());
  EXPECT_EQ(counter.paths_decoded.load(), reference.paths_decoded.load());
  for (unsigned p = 0; p < kProducers; ++p) {
    EXPECT_EQ(stream_bytes(traffic[p], reports[p]),
              stream_bytes(traffic[p], base_reports[p]))
        << "producer " << p;
  }
}

// Extreme-contention variant: queue depth 2 keeps every producer almost
// permanently in the submit() backoff path (spin -> pause -> yield), the
// exact regime the bounded exponential backoff replaces the raw yield()
// spin in. No submission may be lost or duplicated.
TEST(ShardedSink, ContendedProducersWithTinyQueuesLoseNothing) {
  constexpr unsigned kProducers = 4;
  constexpr std::size_t kPackets = 4000;  // per producer
  constexpr std::size_t kSubmitBatch = 8;

  const auto builder = three_query_builder();
  const auto network = builder.build_or_throw();
  std::vector<std::vector<Packet>> traffic(kProducers);
  PacketId next_id = 1;
  for (unsigned p = 0; p < kProducers; ++p) {
    traffic[p].reserve(kPackets);
    for (std::size_t j = 0; j < kPackets; ++j) {
      Packet pkt;
      pkt.id = next_id++;
      pkt.tuple.src_ip = 0x0A000000u + (p << 12) +
                         static_cast<std::uint32_t>(j % 50);
      pkt.tuple.dst_ip = 0x0B000000u;
      pkt.tuple.src_port = static_cast<std::uint16_t>(j % 50);
      pkt.tuple.dst_port = static_cast<std::uint16_t>(p);
      // One fixed path per flow (p, j % 50): path decoding requires every
      // packet of a flow to traverse the same switches.
      const std::size_t f = p * 50 + j % 50;
      for (HopIndex i = 1; i <= kHops; ++i) {
        SwitchView view(static_cast<SwitchId>((f + i) % 8 + 1));
        view.set(metric::kHopLatencyNs, 10.0 * i);
        view.set(metric::kLinkUtilization, 0.01 * i);
        network->at_switch(pkt, i, view);
      }
      traffic[p].push_back(std::move(pkt));
    }
  }

  const auto baseline = builder.build_or_throw();
  CountingObserver reference;
  baseline->add_observer(&reference);
  for (unsigned p = 0; p < kProducers; ++p) {
    baseline->at_sink(std::span<const Packet>(traffic[p]), kHops);
  }

  ShardedSink sink(builder, 2, /*queue_depth=*/2);
  CountingObserver counter;
  sink.add_observer(&counter);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::span<const Packet> packets(traffic[p]);
      for (std::size_t off = 0; off < packets.size(); off += kSubmitBatch) {
        const std::size_t n = std::min(kSubmitBatch, packets.size() - off);
        sink.submit(packets.subspan(off, n), kHops);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  sink.flush();

  EXPECT_EQ(sink.packets_processed(), kProducers * kPackets);
  EXPECT_EQ(counter.observations.load(), reference.observations.load());
  EXPECT_EQ(counter.paths_decoded.load(), reference.paths_decoded.load());
}

TEST(ShardedSink, SubmitRejectsMismatchedReportBuffer) {
  const std::vector<Packet> packets = make_encoded_traffic();
  ShardedSink sink(three_query_builder(), 2);
  std::vector<SinkReport> too_small(packets.size() - 1);
  EXPECT_THROW(sink.submit(packets, kHops, too_small), std::invalid_argument);
  std::vector<SinkReport> too_big(packets.size() + 1);
  EXPECT_THROW(sink.submit(packets, kHops, too_big), std::invalid_argument);
  // The failed submits enqueued nothing: no partial batches to drain.
  sink.flush();
  EXPECT_EQ(sink.packets_processed(), 0u);
  // A matching buffer (or none) still works on the same sink.
  std::vector<SinkReport> right(packets.size());
  sink.submit(packets, kHops, right);
  sink.flush();
  EXPECT_EQ(sink.packets_processed(), packets.size());
}

// One phase of rerouted traffic: `packets_per_flow` packets of every flow,
// each encoded along that flow's `hops`-switch path number `variant`.
struct RoutePhase {
  unsigned hops;
  unsigned variant;
  std::size_t packets_per_flow;
};

// Switch at hop i of flow f's path under a given path length and variant;
// different lengths or variants give different paths through the universe.
SwitchId reroute_switch(std::size_t flow, unsigned hops, unsigned variant,
                        HopIndex i) {
  return static_cast<SwitchId>(
      (flow * 3 + hops * 5 + variant * 11 + i * 7) % 32 + 1);
}

TEST(ShardedSink, ReroutedFlowRebuildsStateLikeMonolithicSink) {
  // A resident flow whose packets arrive along a new path must restart its
  // decoder and latency recorder instead of throwing on a shard worker.
  // Flows go 3 hops -> 5 hops -> another 5-hop path -> 3 hops. A new hop
  // count is seen on the first packet; a same-length reroute only when a
  // digest contradicts every candidate left for its hop, which the short
  // second phase leaves partially narrowed.
  constexpr std::size_t kRerouteFlows = 12;
  const std::vector<RoutePhase> phases = {
      {3, 0, 4}, {5, 0, 3}, {5, 1, 40}, {3, 0, 30}};
  const auto builder = three_query_builder();
  const auto network = builder.build_or_throw();
  std::vector<std::vector<Packet>> traffic;
  PacketId next_id = 1;
  for (const RoutePhase& phase : phases) {
    std::vector<Packet>& packets = traffic.emplace_back();
    for (std::size_t j = 0; j < phase.packets_per_flow; ++j) {
      for (std::size_t f = 0; f < kRerouteFlows; ++f) {
        Packet p;
        p.id = next_id++;
        p.tuple = tuple_of_flow(f);
        for (HopIndex i = 1; i <= phase.hops; ++i) {
          SwitchView view(reroute_switch(f, phase.hops, phase.variant, i));
          view.set(metric::kHopLatencyNs, 100.0 * i + static_cast<double>(f));
          view.set(metric::kLinkUtilization, 0.1 * i);
          network->at_switch(p, i, view);
        }
        packets.push_back(std::move(p));
      }
    }
  }

  const auto baseline = builder.build_or_throw();
  ShardedSink sink(builder, 2);
  ReportEncoder base_enc;
  ReportEncoder sharded_enc;
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    const std::vector<Packet>& packets = traffic[ph];
    const RoutePhase& phase = phases[ph];
    const unsigned k = phase.hops;
    const bool same_length_reroute = ph > 0 && phases[ph - 1].hops == k;
    if (same_length_reroute) {
      // Some flow must still be decoding its old path, or this phase
      // would not exercise a mid-decode reroute.
      std::size_t undecoded = 0;
      for (std::size_t f = 0; f < kRerouteFlows; ++f) {
        const std::uint64_t fkey =
            baseline->flow_key_for("path", tuple_of_flow(f));
        if (!baseline->flow_path("path", fkey).has_value()) ++undecoded;
      }
      ASSERT_GT(undecoded, 0u) << "phase " << ph;
    }
    std::vector<SinkReport> base_reports(packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      ASSERT_NO_THROW(baseline->at_sink(packets[i], k, base_reports[i]));
    }
    std::vector<SinkReport> reports(packets.size());
    sink.submit(packets, k, reports);
    sink.flush();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      base_enc.add(packets[i].id, k, base_reports[i]);
      sharded_enc.add(packets[i].id, k, reports[i]);
    }
    // Each phase decodes the flows' current paths, identically on both. A
    // same-length reroute is only noticed on a contradiction, so a flow
    // may keep hops it resolved on its old path (PINT assumes a flow's
    // path is stable while it decodes); those flows are only compared
    // between the two sinks.
    std::size_t current = 0;
    for (std::size_t f = 0; f < kRerouteFlows; ++f) {
      const FiveTuple tuple = tuple_of_flow(f);
      const auto base_path =
          baseline->flow_path("path", baseline->flow_key_for("path", tuple));
      EXPECT_EQ(sink.flow_path("path", tuple), base_path) << "flow " << f;
      if (base_path.has_value()) {
        ASSERT_EQ(base_path->size(), k);
        bool matches = true;
        for (HopIndex i = 1; i <= k; ++i) {
          if ((*base_path)[i - 1] != reroute_switch(f, k, phase.variant, i)) {
            matches = false;
          }
        }
        EXPECT_TRUE(matches || same_length_reroute) << "flow " << f;
        current += matches;
      }
      for (HopIndex hop = 1; hop <= k; ++hop) {
        EXPECT_EQ(sink.latency_quantile("latency", tuple, hop, 0.5),
                  baseline->latency_quantile(
                      "latency", baseline->flow_key_for("latency", tuple),
                      hop, 0.5));
      }
    }
    if (phase.packets_per_flow >= 30) {
      EXPECT_GT(current, kRerouteFlows / 2) << "phase " << ph;
    }
  }
  EXPECT_EQ(sharded_enc.finish(), base_enc.finish());
}

}  // namespace
}  // namespace pint
