// What the benchmark checks its outputs with: an order-independent hash of
// observer records, the operator reads issued after every epoch, the flows
// whose decoded paths are compared, and the monolithic reference that
// answers all of them.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "pint/framework.h"
#include "pint/sink_report.h"
#include "traffic.h"

namespace pint::benchmark {

// Packets per reporting epoch: ship_epoch runs after every this many.
inline constexpr std::uint64_t kEpochPackets = 8192;
// Worker threads in the measured sink.
inline constexpr unsigned kShards = 2;

// Hash of one observer record: packet id, flow, k, query, and the
// observation or decoded path. Summing these is an order-independent
// multiset hash, so shard interleaving cannot change it but one dropped
// record or one changed value does.
std::uint64_t record_hash(const SinkContext& ctx, std::string_view query,
                          const Observation& obs);
std::uint64_t path_record_hash(const SinkContext& ctx, std::string_view query,
                               const std::vector<SwitchId>& path);

// Sums record hashes; the reference's observer.
class RecordHasher final : public SinkObserver {
 public:
  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    hash += record_hash(ctx, query, obs);
    ++records;
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    hash += path_record_hash(ctx, query, path);
    ++records;
  }

  std::uint64_t records = 0;
  std::uint64_t hash = 0;
};

// Phases replay the trace from its start and wrap around when they need
// more packets than it holds, so a packet id names a trace index, not a
// position. Every position still in flight is below `bound`; the packet
// at `index` is the latest lap's.
inline std::uint64_t latest_position(std::uint64_t index, std::uint64_t bound,
                                     std::uint64_t trace_size) {
  if (bound <= index) return index;
  return bound - 1 - (bound - 1 - index) % trace_size;
}

// One operator read: the flow's decoded path and its p99 latency at one
// hop on its path.
struct Read {
  FiveTuple tuple;
  HopIndex hop = 1;
};

// The reads issued once `epochs` epochs have shipped: alternately a flow
// of a random packet delivered so far (the popular head) and a flow drawn
// uniformly from the whole trace (the tail, which may not have arrived
// yet), so both hits and misses occur.
std::vector<Read> reads_after(const Trace& trace, std::uint64_t seed,
                              std::uint64_t epochs, unsigned count);

// Flows whose flow_path is compared at the end of a phase of `packets`
// positions, drawn the same way.
std::vector<FiveTuple> path_sample(const Trace& trace, std::uint64_t seed,
                                   std::uint64_t packets, unsigned count);

std::uint64_t path_answer(const std::optional<std::vector<SwitchId>>& path);
std::uint64_t read_answer(const std::optional<std::vector<SwitchId>>& path,
                          const std::optional<double>& p99);
// Sequence fold of answers (order matters: both sides read in order).
std::uint64_t fold(std::uint64_t acc, std::uint64_t answer);

// What the reference knows after its first `packets` positions.
struct Checkpoint {
  std::uint64_t packets = 0;
  std::uint64_t records = 0;
  std::uint64_t hash = 0;
  std::vector<std::uint64_t> paths;  // path_answer per path_sample flow
};

struct Reference {
  std::vector<Checkpoint> checkpoints;  // ascending by packets
  std::vector<std::uint64_t> reads;     // fold of reads_after(epoch j + 1)
};

// Replays the trace positions through PintFramework::at_sink: one
// monolithic framework when the sink is unbounded (sharding must not
// change a single record), or, under a memory ceiling, one framework per
// shard built with the shard's share of the ceiling and fed that shard's
// flows (eviction is per shard by design). Answers the reads of the first
// `read_epochs` epochs and takes a checkpoint at each of `phase_packets`.
Reference run_reference(const Trace& trace,
                        const PintFramework::Builder& sink_builder,
                        std::uint64_t seed,
                        std::vector<std::uint64_t> phase_packets,
                        std::uint64_t read_epochs, unsigned reads_per_epoch,
                        unsigned path_samples);

}  // namespace pint::benchmark
