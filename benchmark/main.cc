// PINT sink benchmark: the deployed sink pipeline (FanInSender -> socket ->
// CollectorDaemon -> FanInCollector) under closed- and open-loop load, one
// workload per process. Prints every metric as `workload metric value
// unit`, checks every output against a monolithic reference, and ends with
// one JSON line. benchmark/README.md describes the metrics and workloads;
// benchmark/run.sh builds this program and is the command to run.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "pipeline.h"
#include "stats.h"
#include "tracing.h"
#include "traffic.h"

namespace pint::benchmark {
namespace {

constexpr unsigned kLightReads = 128;
constexpr unsigned kQueryMixReads = 1024;
constexpr unsigned kPathSamples = 1000;
constexpr std::size_t kSetupSamples = 5;
constexpr std::size_t kSmokePackets = 8 * kEpochPackets;
// Share of --seconds given to the open-loop phase; the closed loop gets
// the rest.
constexpr double kOpenShare = 0.75;
// Each open-loop rate is about this share of its workload's closed-loop
// saturation on the 4-core host, so a 2x slowdown of a shared host still
// leaves the sink headroom instead of a growing backlog. The closed loop
// is sized from the saturation this implies.
constexpr double kOpenLoad = 0.3;
// The traced closed loop's main-thread spans must cover its wall time to
// within this fraction.
constexpr double kReconcileTolerance = 0.05;

struct Workload {
  const char* name;
  const char* why;
  bool scenario;  // traffic from the leaf_spine_load simulation
  std::size_t packets;
  std::uint64_t flows;
  double zipf_s;
  double open_rate_pps;  // fixed absolute rate, ~kOpenLoad of saturation
  SinkOptions sink;
};

const Workload kWorkloads[] = {
    {"steady",
     "default deployment: 16k Zipf(0.8) flows, light observer, sync "
     "delivery; per-packet decode and the epoch report path both matter",
     false, 2'000'000, 16'384, 0.8, 155'000, {0, false, 0, kLightReads}},
    {"heavy_observer",
     "192-round sink observer behind one async relay: observer work and "
     "the chunk transport dominate, decode is a small share",
     false, 2'000'000, 16'384, 0.8, 170'000, {192, true, 0, kLightReads}},
    {"flow_churn",
     "1M-flow Zipf(1.0) universe under a 16 MiB ceiling: store create/evict "
     "and decoder construction dominate, working set far beyond cache",
     false, 2'000'000, 1'000'000, 1.0, 115'000,
     {0, false, 16u << 20, kLightReads}},
    {"query_mix",
     "steady's traffic plus 1,024 operator reads after every epoch: lookups "
     "beside ingest, and the stall the reads add",
     false, 2'000'000, 16'384, 0.8, 100'000, {0, false, 0, kQueryMixReads}},
    {"scenario_sim",
     "leaf-spine simulator traffic (hadoop sizes, 1- and 3-hop paths); the "
     "paper-reproduction simulator builds it during set-up",
     true, 600'000, 0, 0.0, 160'000, {0, false, 0, kLightReads}},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string trace_dir = ".bench_out";
  bool smoke = false;
  bool list = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--list") {
      args.list = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string_view(v) == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = v;
    } else {
      return false;
    }
  }
  return args.list || (!args.workload.empty() && args.seconds > 0.0);
}

// Prints `workload metric value unit` lines and gathers the metrics that
// belong in the final JSON line.
class Output {
 public:
  explicit Output(std::string workload) : workload_(std::move(workload)) {}

  void metric(const char* name, double value, const char* unit, bool in_json) {
    std::printf("%s %s %.6g %s\n", workload_.c_str(), name, value, unit);
    if (!in_json) return;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name, value, unit);
    json_ += buf;
  }

  void final_line(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        correct ? "true" : "false", static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), json_.c_str());
  }

 private:
  std::string workload_;
  std::string json_;
};

struct Verdict {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t expected_records = 0;
  std::uint64_t collected_records = 0;

  void fail(const std::string& phase, const std::string& what) {
    ok = false;
    std::printf("CHECK FAILED [%s]: %s\n", phase.c_str(), what.c_str());
  }
};

void check_phase(const PhaseResult& phase, const Reference& ref,
                 unsigned reads_per_epoch, Verdict& v) {
  const Checkpoint* cp = nullptr;
  for (const Checkpoint& c : ref.checkpoints) {
    if (c.packets == phase.packets) cp = &c;
  }
  if (cp == nullptr) {
    v.fail(phase.label, "no reference checkpoint");
    return;
  }
  v.attempted += cp->records + cp->paths.size() +
                 phase.reads.size() * reads_per_epoch;
  v.expected_records += cp->records;
  v.collected_records += phase.collector_records;
  const std::uint64_t missing = phase.collector_records > cp->records
                                    ? phase.collector_records - cp->records
                                    : cp->records - phase.collector_records;
  v.failed += missing;
  if (missing != 0) {
    v.fail(phase.label, "collector replayed " +
                            std::to_string(phase.collector_records) +
                            " records, reference " +
                            std::to_string(cp->records));
  } else if (phase.record_hash != cp->hash) {
    v.failed += 1;
    v.fail(phase.label, "record multiset hash differs from the reference");
  }
  if (phase.sink_events != phase.collector_records) {
    v.fail(phase.label, "sink observed " + std::to_string(phase.sink_events) +
                            " events, collector replayed " +
                            std::to_string(phase.collector_records));
  }
  if (phase.frame_errors != 0 || phase.incomplete_epochs != 0) {
    v.fail(phase.label, std::to_string(phase.frame_errors) +
                            " frame errors, " +
                            std::to_string(phase.incomplete_epochs) +
                            " incomplete epochs at the collector");
  }
  std::uint64_t path_mismatches = 0;
  for (std::size_t i = 0; i < cp->paths.size(); ++i) {
    if (i >= phase.paths.size() || phase.paths[i] != cp->paths[i]) {
      ++path_mismatches;
    }
  }
  v.failed += path_mismatches;
  if (path_mismatches != 0) {
    v.fail(phase.label, std::to_string(path_mismatches) +
                            " sampled flow_path answers differ");
  }
  std::uint64_t read_mismatches = 0;
  for (std::size_t j = 0; j < phase.reads.size(); ++j) {
    if (j >= ref.reads.size() || phase.reads[j] != ref.reads[j]) {
      ++read_mismatches;
    }
  }
  v.failed += read_mismatches * reads_per_epoch;
  if (read_mismatches != 0) {
    v.fail(phase.label, std::to_string(read_mismatches) +
                            " epochs of operator reads differ");
  }
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double x : values) total += x;
  return total;
}

void print_layer_table(const PhaseResult& phase) {
  std::printf("# per-layer table: %s\n", phase.label.c_str());
  std::printf("# %-18s %-16s %10s %12s %12s\n", "thread", "span", "calls",
              "busy_ms", "self_ms");
  for (const SpanLog* log :
       {phase.generator_log.get(), phase.daemon_log.get()}) {
    for (const LayerRow& row : layer_table(*log)) {
      std::printf("# %-18s %-16s %10llu %12.3f %12.3f\n",
                  log->thread().c_str(), row.name.c_str(),
                  static_cast<unsigned long long>(row.calls), row.busy_ms,
                  row.self_ms);
    }
  }
}

// Median over the parts of a phase (epochs or windows) of each part's
// percentile q, so a slow stretch of a shared host spoils a part, not the
// run. Sink latency is split by epoch: a packet's latency is set mostly by
// the stalls of its own epoch.
double median_percentile(const std::vector<Histogram>& parts, double q) {
  std::vector<double> per_part;
  for (const Histogram& h : parts) {
    if (h.count() > 0) per_part.push_back(h.percentile(q));
  }
  return quantile(per_part, 0.5);
}

// Median over the windows of the quantile q of each window's epochs.
double window_quantile(const std::vector<double>& per_epoch, double q) {
  std::vector<std::vector<double>> windows(kWindows);
  for (std::size_t e = 0; e < per_epoch.size(); ++e) {
    windows[window_of(e, per_epoch.size())].push_back(per_epoch[e]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return quantile(per_window, 0.5);
}

// Median over the windows of the packets each window's epochs moved per
// second of the window's wall time.
double throughput(const PhaseResult& closed) {
  std::vector<double> per_window;
  const std::vector<double>& done = closed.epoch_done_s;
  std::size_t begin = 0;
  for (unsigned w = 0; w < kWindows; ++w) {
    std::size_t end = begin;
    while (end < done.size() && window_of(end, done.size()) == w) ++end;
    if (end == begin) continue;
    const double start_s = begin == 0 ? 0.0 : done[begin - 1];
    per_window.push_back(static_cast<double>((end - begin) * kEpochPackets) /
                         (done[end - 1] - start_s));
    begin = end;
  }
  return quantile(per_window, 0.5);
}

std::uint64_t total_count(const std::vector<Histogram>& parts) {
  std::uint64_t n = 0;
  for (const Histogram& h : parts) n += h.count();
  return n;
}

void report_end_to_end(Output& out, const PhaseResult& open,
                       const PhaseResult& closed, double setup_s) {
  // Reads are timed in the open loop only: reads in a closed loop search a
  // store whose size depends on how fast the host ran.
  out.metric("throughput_pps", throughput(closed), "pkt/s", true);
  out.metric("sink_latency_p50_us",
             median_percentile(open.sink_latency, 0.5) / 1e3, "us", true);
  out.metric("sink_latency_p99_us",
             median_percentile(open.sink_latency, 0.99) / 1e3, "us", true);
  out.metric("epoch_visible_p50_ms",
             window_quantile(open.epoch_visible_ms, 0.5), "ms", true);
  out.metric("epoch_visible_p90_ms",
             window_quantile(open.epoch_visible_ms, 0.9), "ms", true);
  out.metric("query_latency_p50_us",
             median_percentile(open.query_latency, 0.5) / 1e3, "us", true);
  out.metric("query_latency_p99_us",
             median_percentile(open.query_latency, 0.99) / 1e3, "us", false);
  out.metric("rss_growth_mb", open.rss_growth_mb, "MiB", true);
  out.metric("setup_s", setup_s, "s", true);
  out.metric("sink_latency_samples",
             static_cast<double>(total_count(open.sink_latency)), "count",
             false);
  out.metric("epoch_visible_samples",
             static_cast<double>(open.epoch_visible_ms.size()), "count", false);
  out.metric("query_latency_samples",
             static_cast<double>(total_count(open.query_latency)), "count",
             false);
  out.metric("closed_loop_packets", static_cast<double>(closed.packets),
             "count", false);
  out.metric("open_loop_packets", static_cast<double>(open.packets), "count",
             false);
  out.metric("generator_lag_p99_us", open.generator_lag.percentile(0.99) / 1e3,
             "us", false);
}

// Per-layer metrics of the traced run, plus the stage reconciliation gate.
void report_per_layer(Output& out, const Trace& trace, const PhaseResult& open,
                      const PhaseResult& closed, const PhaseResult& traced,
                      Verdict& verdict) {
  const SpanLog& gen = *traced.generator_log;
  const SpanLog& daemon = *traced.daemon_log;
  const auto packets = static_cast<double>(traced.packets);
  const auto records = static_cast<double>(traced.sink_events);
  const auto epochs = static_cast<double>(traced.epochs);
  std::vector<double> flush_ms = durations_ns(gen, "flush");
  for (double& x : flush_ms) x /= 1e6;
  const double write_ms = (sum(durations_ns(gen, "try_write")) +
                           sum(durations_ns(gen, "blocked_wait"))) /
                          1e6;
  const std::vector<MemoryCounters>& stores = traced.store_after_epoch;
  double resident = 0.0;
  for (const MemoryCounters& m : stores) {
    resident +=
        static_cast<double>(m.flows) / static_cast<double>(stores.size());
  }
  const double evictions =
      stores.empty() ? 0.0 : static_cast<double>(stores.back().evictions);
  Histogram flow_path = open.flow_path_latency;
  flow_path.merge(traced.flow_path_latency);
  Histogram p99_reads = open.quantile_latency;
  p99_reads.merge(traced.quantile_latency);

  out.metric("switch.encode_ns_per_hop",
             trace.encode_s * 1e9 / static_cast<double>(trace.hop_encodes),
             "ns", true);
  out.metric("sink.deliver_ns_per_pkt",
             sum(durations_ns(gen, "deliver")) / packets, "ns", true);
  out.metric("sink.flush_ms_p50", quantile(flush_ms, 0.5), "ms", true);
  out.metric("sink.flush_ms_p90", quantile(flush_ms, 0.9), "ms", true);
  out.metric("report.ship_self_ns_per_record",
             self_ns(gen, "ship_epoch") / records, "ns", true);
  out.metric("transport.write_ms_per_epoch", write_ms / epochs, "ms", true);
  out.metric("transport.refused_writes",
             static_cast<double>(traced.refused_writes), "count", false);
  out.metric("transport.bytes_per_record",
             static_cast<double>(traced.bytes_written) / records, "B", true);
  out.metric("collector.ingest_ns_per_record",
             sum(durations_ns(daemon, "ingest_stream")) /
                 static_cast<double>(traced.collector_records),
             "ns", true);
  out.metric("store.evictions_per_kpkt", evictions * 1e3 / packets, "1/kpkt",
             true);
  out.metric("store.resident_flows", resident, "count", true);
  out.metric("inference.flow_path_us_p50", flow_path.percentile(0.5) / 1e3,
             "us", true);
  out.metric("inference.quantile_us_p50", p99_reads.percentile(0.5) / 1e3,
             "us", true);
  out.metric("inference.read_us_p99",
             median_percentile(open.query_latency, 0.99) / 1e3, "us", true);
  out.metric("generator.lag_p99_us",
             open.generator_lag.percentile(0.99) / 1e3, "us", true);
  out.metric("tracing.overhead_frac",
             throughput(closed) / throughput(traced) - 1.0, "fraction", true);

  // Stage reconciliation: deliver + flush + ship (self + writes) + reads +
  // store reports + the final drain must account for the phase's wall time.
  const double accounted = children_of_roots_ns(gen) / (traced.wall_s * 1e9);
  out.metric("tracing.accounted_frac", accounted, "fraction", false);
  if (std::abs(1.0 - accounted) > kReconcileTolerance) {
    verdict.fail(traced.label,
                 "main-thread spans cover " + std::to_string(accounted) +
                     " of the wall time, outside 1 +- " +
                     std::to_string(kReconcileTolerance));
  }
}

int run(const Args& args) {
  const std::int64_t process_start = now_ns();
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::size_t packets = args.smoke ? kSmokePackets : w->packets;
  const Trace trace =
      w->scenario ? make_scenario_trace(packets, args.seed)
                  : make_zipf_trace(packets, w->flows, w->zipf_s, args.seed);
  const double trace_ready_s =
      static_cast<double>(now_ns() - process_start) / 1e9;

  const auto whole_epochs = [](double packets) {
    return std::max<std::uint64_t>(
               1, static_cast<std::uint64_t>(packets) / kEpochPackets) *
           kEpochPackets;
  };
  const std::uint64_t open_packets =
      whole_epochs(w->open_rate_pps * kOpenShare * args.seconds);
  const std::uint64_t closed_packets = whole_epochs(
      w->open_rate_pps / kOpenLoad * (1.0 - kOpenShare) * args.seconds);
  // The open loop runs first, on the heap trace generation left, so its
  // RSS growth is its own sink's.
  std::vector<PhaseResult> phases;
  const auto phase = [&](const char* label, bool open_loop,
                         std::uint64_t phase_packets, bool traced) {
    phases.push_back(run_phase(trace, w->sink,
                               {label, open_loop, w->open_rate_pps,
                                phase_packets, traced, kPathSamples},
                               args.seed));
  };
  phase("open_loop", true, open_packets, args.trace);
  phase("closed_loop", false, closed_packets, false);
  if (args.trace) phase("closed_loop_traced", false, closed_packets, true);
  std::vector<double> setups;
  for (const PhaseResult& r : phases) setups.push_back(r.setup_s);
  while (setups.size() < kSetupSamples) {
    setups.push_back(measure_setup(trace, w->sink));
  }
  const double setup_s = trace_ready_s + quantile(setups, 0.5);

  const std::int64_t check_start = now_ns();
  Verdict verdict;
  std::vector<std::uint64_t> phase_packets;
  std::uint64_t read_epochs = 0;
  for (const PhaseResult& r : phases) {
    phase_packets.push_back(r.packets);
    read_epochs = std::max<std::uint64_t>(read_epochs, r.reads.size());
  }
  const Reference ref =
      run_reference(trace, sink_builder(trace, w->sink), args.seed,
                    phase_packets, read_epochs, w->sink.reads_per_epoch,
                    kPathSamples);
  for (const PhaseResult& r : phases) {
    check_phase(r, ref, w->sink.reads_per_epoch, verdict);
  }
  if (w->scenario) {
    std::string detail;
    const bool passed = scenario_expectations_pass(detail);
    std::printf("%s", detail.c_str());
    verdict.attempted += 1;
    if (!passed) {
      verdict.failed += 1;
      verdict.fail("scenario", "leaf_spine_load expectations not met");
    }
  }
  const double check_s = static_cast<double>(now_ns() - check_start) / 1e9;

  Output out(w->name);
  if (args.trace) {
    report_per_layer(out, trace, phases[0], phases[1], phases[2], verdict);
    print_layer_table(phases[0]);
    print_layer_table(phases[2]);
    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + w->name + ".trace.json";
    std::vector<PhaseTrace> traced;
    for (const PhaseResult* r : {&phases[0], &phases[2]}) {
      traced.push_back(
          {r->label, {r->generator_log.get(), r->daemon_log.get()}});
    }
    if (!write_chrome_trace(path, traced)) {
      verdict.fail("trace", "cannot write " + path);
    }
    std::printf("# trace written to %s\n", path.c_str());
  } else {
    report_end_to_end(out, phases[0], phases[1], setup_s);
  }
  out.metric("check_s", check_s, "s", false);
  out.metric("failed_ratio",
             verdict.expected_records == 0
                 ? 1.0
                 : 1.0 - static_cast<double>(verdict.collected_records) /
                             static_cast<double>(verdict.expected_records),
             "fraction", false);
  out.final_line(verdict.ok, verdict.attempted, verdict.failed);
  return verdict.ok ? 0 : 1;
}

}  // namespace
}  // namespace pint::benchmark

int main(int argc, char** argv) {
  using namespace pint::benchmark;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: pint_benchmark --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]\n"
                 "       pint_benchmark --list\n");
    return 2;
  }
  if (args.list) {
    for (const Workload& w : kWorkloads) {
      std::printf("%s\t%.0f\t%s\n", w.name, w.open_rate_pps, w.why);
    }
    return 0;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pint_benchmark: %s\n", e.what());
    return 2;
  }
}
