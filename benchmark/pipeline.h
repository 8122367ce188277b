// The deployed sink pipeline under load: pre-encoded packets go to
// FanInSender::deliver (a 2-shard ShardedSink), every 8,192 packets
// ship_epoch sends the epoch over a unix socket to a CollectorDaemon
// thread feeding a FanInCollector, and the benchmark's own observers on
// both sides time and check what comes out.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pint/framework.h"
#include "pint/sink_report.h"
#include "stats.h"
#include "tracing.h"
#include "traffic.h"

namespace pint::benchmark {

// What a workload sets on the sink beyond its trace's query mix.
struct SinkOptions {
  unsigned observer_rounds = 0;    // FNV rounds per event (0 = light)
  bool async_relay = false;        // async_observers(16384, kBlock, 1)
  std::size_t memory_ceiling = 0;  // bytes; 0 = unbounded stores
  unsigned reads_per_epoch = 0;    // operator reads after every epoch
};

PintFramework::Builder sink_builder(const Trace& trace,
                                    const SinkOptions& options);

// A phase's epochs fall into this many equal windows. End-to-end
// statistics are taken per window and reported as the median over the
// windows, so a slow stretch of a shared host spoils one window, not the
// run.
inline constexpr unsigned kWindows = 8;

// The window of item `i` (a position or an epoch) out of `n`.
inline unsigned window_of(std::uint64_t i, std::uint64_t n) {
  return static_cast<unsigned>(
      std::min<std::uint64_t>(kWindows - 1, i * kWindows / n));
}

struct PhaseSpec {
  std::string label;
  // Closed loop: each deliver waits for the previous one. Open loop: the
  // packets are due at `rate_pps`. Either way the phase delivers the
  // first `packets` trace positions, a whole number of epochs.
  bool open_loop = false;
  double rate_pps = 0.0;
  std::uint64_t packets = 0;
  bool traced = false;
  unsigned path_samples = 0;  // flows whose flow_path is checked at the end
};

struct PhaseResult {
  std::string label;
  std::uint64_t packets = 0;  // positions delivered: [0, packets)
  std::uint64_t epochs = 0;
  double setup_s = 0.0;  // pipeline construction until the sender connected
  double wall_s = 0.0;   // first deliver until the collector replayed all
  // Seconds from the first deliver to the end of each epoch (ship and
  // reads done); the last epoch ends when the collector replayed all.
  std::vector<double> epoch_done_s;

  // Checked against the reference.
  std::uint64_t sink_events = 0;
  std::uint64_t collector_records = 0;
  std::uint64_t record_hash = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t incomplete_epochs = 0;
  std::vector<std::uint64_t> reads;  // fold of each epoch's read answers
  std::vector<std::uint64_t> paths;  // path_answer per path_sample flow

  // Per epoch (open loop): ns from a packet's due time to each of its
  // sink observer events.
  std::vector<Histogram> sink_latency;
  // Per window: ns per read (flow_path + latency_quantile).
  std::vector<Histogram> query_latency = std::vector<Histogram>(kWindows);
  Histogram generator_lag;  // ns, scheduled tick -> wake-up (open loop)
  std::vector<double> epoch_visible_ms;  // per epoch: ship -> last record
  double rss_growth_mb = 0.0;            // peak at epoch ends - before build

  // Traced phases only.
  std::unique_ptr<SpanLog> generator_log;
  std::unique_ptr<SpanLog> daemon_log;
  Histogram flow_path_latency;
  Histogram quantile_latency;
  std::uint64_t refused_writes = 0;
  std::uint64_t bytes_written = 0;
  std::vector<MemoryCounters> store_after_epoch;
};

PhaseResult run_phase(const Trace& trace, const SinkOptions& options,
                      const PhaseSpec& spec, std::uint64_t seed);

// Builds and connects one pipeline, then tears it down; returns the
// seconds from construction until the sender connected.
double measure_setup(const Trace& trace, const SinkOptions& options);

}  // namespace pint::benchmark
