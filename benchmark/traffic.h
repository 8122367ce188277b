// Input generation: every workload's trace of pre-encoded packets, made
// from the workload seed before the sink exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "packet/packet.h"
#include "pint/framework.h"

namespace pint::benchmark {

// Packets in delivery order, already encoded by the switches on their
// paths, plus the Builder the sink must use to decode them.
struct Trace {
  std::vector<Packet> packets;
  std::vector<std::uint8_t> hops;        // switch hops k per packet
  std::vector<FiveTuple> flows;          // distinct flows, first-seen order
  std::vector<std::uint8_t> flow_hops;   // switch hops k per flow
  std::vector<std::uint32_t> index_of;   // packet id -> index in packets
  PintFramework::Builder builder;
  double encode_s = 0.0;          // time spent encoding (see hop_encodes)
  std::uint64_t hop_encodes = 0;  // at_switch calls the encode time covers

  std::size_t size() const { return packets.size(); }
};

// Flows drawn from a Zipf(s) popularity over `flows` flows, each with its
// own 5-hop path through a 64-switch fabric and per-hop latency and
// utilization values; encoded hop by hop through `at_switch` under the
// path + latency (15/16) + hpcc (1/16) mix at a 16-bit budget. `encode_s`
// covers only the at_switch calls.
Trace make_zipf_trace(std::size_t packets, std::uint64_t flows, double zipf_s,
                      std::uint64_t seed);

// The leaf_spine_load scenario's traffic: the discrete-event simulator
// runs the spec's fabric and flows (arrivals and sizes from the spec's
// seed) with the same three-query mix; `seed` drives the simulator (ECMP,
// PINT hashing, the Builder seed). The packets reaching the sink are
// captured until there are `packets` of them. `encode_s` is the whole
// simulation (its switches call at_switch, its sink runs at_sink inline).
Trace make_scenario_trace(std::size_t packets, std::uint64_t seed);

// Runs the leaf_spine_load spec as written (its own seed, native
// duration) through scenario::run_scenario; true when every `expect`
// directive passes. `detail` receives one line per directive. The bands
// are the spec's, calibrated for its seed.
bool scenario_expectations_pass(std::string& detail);

}  // namespace pint::benchmark
