#include "traffic.h"

#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "common/rng.h"
#include "hash/global_hash.h"
#include "scenario/scenario_runner.h"
#include "scenario/scenario_spec.h"
#include "sim/simulator.h"
#include "stats.h"
#include "workload/flow_size_dist.h"
#include "workload/traffic_gen.h"
#include "workload/zipf.h"

namespace pint::benchmark {
namespace {

constexpr unsigned kZipfHops = 5;
constexpr std::uint64_t kFabricSwitches = 64;
constexpr std::size_t kEncodeChunk = 4096;
// The hpcc query's share of packets; latency takes the rest (1 - 1/16).
constexpr double kHpccShare = 1.0 / 16.0;

// tests/scenarios/leaf_spine_load.scn, copied so that edits under tests/
// cannot change the workload.
constexpr std::string_view kLeafSpineLoad = R"(
scenario  leaf_spine_load
seed      31
topology  leaf_spine leaves=4 spines=2 hosts_per_leaf=4
sim       budget=16 transport=tcp duration_ms=6 buffer_kb=256
traffic   load=0.40 dist=hadoop zipf_s=0.8
expect    load min=0.02 max=0.95
expect    deliveries min_events=2000
)";

scenario::ScenarioSpec leaf_spine_spec() {
  scenario::ScenarioParseResult parsed =
      scenario::parse_scenario(kLeafSpineLoad);
  if (!parsed.ok()) {
    throw std::logic_error("embedded leaf_spine_load spec does not parse: " +
                           parsed.errors.front().message);
  }
  return std::move(*parsed.spec);
}

PintFramework::Builder zipf_builder(std::uint64_t seed) {
  PathTracingConfig path_tuning;
  path_tuning.bits = 8;
  path_tuning.instances = 1;
  path_tuning.d = kZipfHops;
  DynamicAggregationConfig latency_tuning;
  latency_tuning.max_value = 1e6;
  PerPacketConfig cc_tuning;
  cc_tuning.eps = 0.025;
  cc_tuning.max_value = 1e6;
  std::vector<std::uint64_t> universe;
  for (std::uint64_t s = 1; s <= kFabricSwitches; ++s) universe.push_back(s);
  PintFramework::Builder builder;
  builder.global_bit_budget(16)
      .seed(mix64(seed ^ 0xB0D1E5))
      .switch_universe(std::move(universe))
      .add_query(make_path_query("path", 8, 1.0, path_tuning))
      .add_query(make_dynamic_query("latency",
                                    std::string(extractor::kHopLatency), 8,
                                    1.0 - kHpccShare, latency_tuning))
      .add_query(make_perpacket_query(
          "hpcc", std::string(extractor::kLinkUtilization), 8, kHpccShare,
          cc_tuning));
  return builder;
}

// Flow f's tuple: (dst_ip low bits, src_port) spell f, so tuples are
// distinct; the other fields come from the seed.
FiveTuple tuple_of_flow(std::uint64_t f, std::uint64_t seed) {
  const std::uint64_t h = mix64(seed ^ (f * 0x9E3779B97F4A7C15ULL));
  FiveTuple t;
  t.src_ip = 0x0A000000u | static_cast<std::uint32_t>(h & 0xFFFFFF);
  t.dst_ip = 0x0B000000u | static_cast<std::uint32_t>(f >> 16);
  t.src_port = static_cast<std::uint16_t>(f & 0xFFFF);
  t.dst_port = static_cast<std::uint16_t>(1024 + (h >> 24) % 60000);
  return t;
}

SwitchId switch_at(std::uint64_t flow, HopIndex hop, std::uint64_t seed) {
  return static_cast<SwitchId>(
      1 + mix64(seed ^ mix64(flow) ^ hop) % kFabricSwitches);
}

void index_packets(Trace& trace) {
  PacketId max_id = 0;
  for (const Packet& p : trace.packets) max_id = std::max(max_id, p.id);
  trace.index_of.assign(max_id + 1, 0);
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    trace.index_of[trace.packets[i].id] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace

Trace make_zipf_trace(std::size_t packets, std::uint64_t flows, double zipf_s,
                      std::uint64_t seed) {
  Trace trace;
  trace.builder = zipf_builder(seed);
  const auto network = trace.builder.build_or_throw();

  Rng rng(seed);
  const ZipfDist zipf(flows, zipf_s);
  std::vector<std::uint64_t> flow_of(packets);
  std::vector<bool> seen(flows, false);
  trace.packets.resize(packets);
  trace.hops.assign(packets, kZipfHops);
  for (std::size_t i = 0; i < packets; ++i) {
    const std::uint64_t f = zipf.sample(rng) - 1;
    flow_of[i] = f;
    Packet& p = trace.packets[i];
    p.id = i + 1;
    p.tuple = tuple_of_flow(f, seed);
    if (!seen[f]) {
      seen[f] = true;
      trace.flows.push_back(p.tuple);
      trace.flow_hops.push_back(kZipfHops);
    }
  }

  // Encode chunk by chunk, hop by hop, as the packets cross the fabric;
  // views are filled outside the timed at_switch loop.
  std::vector<SwitchView> views(kEncodeChunk);
  std::int64_t encode_ns = 0;
  for (std::size_t base = 0; base < packets; base += kEncodeChunk) {
    const std::size_t n = std::min(kEncodeChunk, packets - base);
    for (HopIndex hop = 1; hop <= kZipfHops; ++hop) {
      for (std::size_t j = 0; j < n; ++j) {
        const SwitchId sw = switch_at(flow_of[base + j], hop, seed);
        views[j] = SwitchView(sw);
        views[j].set(metric::kHopLatencyNs,
                     200.0 + 50.0 * (sw % 16) +
                         static_cast<double>(rng.next() & 511));
        views[j].set(metric::kLinkUtilization, 0.05 + 0.9 * rng.uniform());
      }
      const std::int64_t e0 = now_ns();
      for (std::size_t j = 0; j < n; ++j) {
        network->at_switch(trace.packets[base + j], hop, views[j]);
      }
      encode_ns += now_ns() - e0;
    }
  }
  trace.encode_s = static_cast<double>(encode_ns) / 1e9;
  trace.hop_encodes = static_cast<std::uint64_t>(packets) * kZipfHops;
  index_packets(trace);
  return trace;
}

Trace make_scenario_trace(std::size_t packets, std::uint64_t seed) {
  const scenario::ScenarioSpec spec = leaf_spine_spec();
  const scenario::NamedTopology topo = scenario::build_topology(spec.topology);

  SimConfig cfg;
  cfg.telemetry = TelemetryMode::kPint;
  cfg.pint_full = true;
  cfg.pint_bit_budget = spec.sim.bit_budget;
  cfg.pint_frequency = kHpccShare;
  cfg.transport = spec.sim.transport == "hpcc" ? TransportKind::kHpcc
                                                : TransportKind::kTcpReno;
  cfg.switch_buffer_bytes = spec.sim.buffer_bytes;
  cfg.rto = spec.sim.rto;
  cfg.host_bandwidth_bps = spec.sim.host_gbps * 1e9;
  cfg.fabric_bandwidth_bps = spec.sim.fabric_gbps * 1e9;
  cfg.seed = seed;

  Trace trace;
  trace.builder =
      Simulator::full_framework_builder(cfg, topo.tree.graph, topo.is_host);
  trace.packets.reserve(packets);
  trace.hops.reserve(packets);
  std::unordered_set<FiveTuple> seen;
  cfg.sink_tap = [&](const Packet& packet, unsigned k) {
    if (trace.packets.size() >= packets) return;
    trace.packets.push_back(packet);
    trace.hops.push_back(static_cast<std::uint8_t>(k));
    trace.hop_encodes += k;
    if (seen.insert(packet.tuple).second) {
      trace.flows.push_back(packet.tuple);
      trace.flow_hops.push_back(static_cast<std::uint8_t>(k));
    }
  };
  Simulator sim(topo.tree.graph, topo.is_host, cfg);

  // Offered bytes for 4x the wanted packets bound the simulated horizon;
  // the run stops as soon as enough packets reached the sink.
  FlowSizeDist dist = FlowSizeDist::web_search();
  if (!FlowSizeDist::named(spec.traffic.dist, dist)) {
    throw std::logic_error("unknown flow-size dist " + spec.traffic.dist);
  }
  const std::vector<NodeId>& hosts = topo.tree.nodes.hosts;
  TrafficGenConfig traffic;
  traffic.load = spec.traffic.load;
  traffic.host_bandwidth_bps = cfg.host_bandwidth_bps;
  traffic.num_hosts = static_cast<std::uint32_t>(hosts.size());
  // The spec's seed fixes the flow arrivals and their heavy-tailed sizes:
  // with a per-run draw, a few elephant flows would decide every metric.
  traffic.seed = spec.seed;
  traffic.zipf_s = spec.traffic.zipf_s;
  const double offered_bps = traffic.load * traffic.host_bandwidth_bps *
                             static_cast<double>(hosts.size());
  traffic.duration = static_cast<TimeNs>(
      4.0 * static_cast<double>(packets) * 8000.0 / offered_bps * 1e9);
  for (const FlowArrival& fa : generate_traffic(traffic, dist)) {
    sim.add_flow(hosts[fa.src_host], hosts[fa.dst_host], fa.size, fa.start);
  }
  const std::int64_t s0 = now_ns();
  for (TimeNs t = kMilli;
       trace.packets.size() < packets && t <= traffic.duration; t += kMilli) {
    sim.run_until(t);
  }
  trace.encode_s = static_cast<double>(now_ns() - s0) / 1e9;
  if (trace.packets.size() < packets) {
    throw std::runtime_error("scenario produced only " +
                             std::to_string(trace.packets.size()) +
                             " sink packets");
  }
  index_packets(trace);
  return trace;
}

bool scenario_expectations_pass(std::string& detail) {
  scenario::ScenarioRunOptions options;
  options.capture_report_bytes = false;
  const scenario::ScenarioResult result =
      scenario::run_scenario(leaf_spine_spec(), options);
  for (const scenario::ExpectOutcome& outcome : result.outcomes) {
    detail += "expect " + outcome.expect.what + ": " +
              (outcome.passed ? "pass" : "FAIL") + " (" + outcome.detail +
              ")\n";
  }
  return !result.outcomes.empty() && result.all_passed();
}

}  // namespace pint::benchmark
