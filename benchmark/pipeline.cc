#include "pipeline.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "common/cacheline.h"
#include "sim/fanin.h"
#include "transport/collector_daemon.h"
#include "transport/sender.h"
#include "transport/stream.h"

namespace pint::benchmark {
namespace {

constexpr std::uint64_t kDeliverSpan = 256;     // closed loop packets per span
constexpr std::int64_t kTickNs = 100'000;       // open-loop generator tick
constexpr std::size_t kAsyncDepth = 16384;
constexpr std::int64_t kDrainTimeoutNs = 10'000'000'000;
constexpr std::uint32_t kSource = 1;
// Relative to the checkout root, which keeps the path well inside
// sun_path's 108 bytes wherever the checkout lives.
constexpr const char* kSocketDir = ".bench_out";

std::string socket_path() {
  static std::atomic<unsigned> counter{0};
  std::filesystem::create_directories(kSocketDir);
  return std::string(kSocketDir) + "/pint-" + std::to_string(::getpid()) +
         "-" + std::to_string(counter.fetch_add(1)) + ".sock";
}

// Each observer below is written by its own thread (shard workers, the
// daemon) and lives on the generator's stack next to the generator's
// atomics; cache-line alignment keeps the writers off each other's lines.

// The sink-side application: counts every observer event, optionally
// burns `rounds` FNV rounds on it (the heavy dashboard), and in the open
// loop times it from its packet's due time.
class alignas(kCacheLineBytes) SinkTap final : public SinkObserver {
 public:
  SinkTap(const Trace& trace, unsigned rounds)
      : trace_(trace), rounds_(rounds) {}

  // Times every event into the histogram of its packet's epoch.
  void time_from(std::int64_t first_due_ns, double ns_per_packet,
                 const std::atomic<std::uint64_t>* offered_end,
                 std::vector<Histogram>* epochs) {
    first_due_ns_ = first_due_ns;
    ns_per_packet_ = ns_per_packet;
    offered_end_ = offered_end;
    epochs_ = epochs;
  }

  void on_observation(const SinkContext& ctx, std::string_view,
                      const Observation&) override {
    note(ctx, ctx.packet_id);
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view,
                       const std::vector<SwitchId>& path) override {
    note(ctx, path.size());
  }

  // Exact once the sink is quiescent (after flush/ship_epoch).
  std::uint64_t events() const { return events_; }

 private:
  void note(const SinkContext& ctx, std::uint64_t salt) {
    ++events_;
    std::uint64_t h = acc_ ^ ctx.flow ^ salt;
    for (unsigned i = 0; i < rounds_; ++i) {
      h = (h ^ (h >> 29)) * 0x100000001B3ULL;
    }
    acc_ = h;
    if (epochs_ == nullptr) return;
    const std::uint64_t position = latest_position(
        trace_.index_of[ctx.packet_id],
        offered_end_->load(std::memory_order_acquire), trace_.size());
    (*epochs_)[position / kEpochPackets].add(
        now_ns() - first_due_ns_ -
        static_cast<std::int64_t>(static_cast<double>(position) *
                                  ns_per_packet_));
  }

  const Trace& trace_;
  const unsigned rounds_;
  std::uint64_t events_ = 0;
  std::uint64_t acc_ = 0xcbf29ce484222325ULL;
  std::int64_t first_due_ns_ = 0;
  double ns_per_packet_ = 0.0;
  const std::atomic<std::uint64_t>* offered_end_ = nullptr;
  std::vector<Histogram>* epochs_ = nullptr;
};

// The collector-side application, on the daemon thread: the multiset hash
// of every replayed record, a progress counter the generator can wait on,
// and optionally the arrival time of each epoch's last record.
class alignas(kCacheLineBytes) CollectorTap final : public SinkObserver {
 public:
  explicit CollectorTap(const Trace& trace) : trace_(trace) {}

  void track_epochs(std::size_t epochs,
                    const std::atomic<std::uint64_t>* shipped_end) {
    last_arrival_.assign(epochs, 0);
    shipped_end_ = shipped_end;
  }

  void on_observation(const SinkContext& ctx, std::string_view query,
                      const Observation& obs) override {
    note(ctx, record_hash(ctx, query, obs));
  }
  void on_path_decoded(const SinkContext& ctx, std::string_view query,
                       const std::vector<SwitchId>& path) override {
    note(ctx, path_record_hash(ctx, query, path));
  }

  // Any thread.
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_acquire);
  }
  // Daemon thread, or any thread after it was joined.
  std::uint64_t records() const { return records_; }
  std::uint64_t hash() const { return hash_; }
  std::int64_t last_epoch() const { return last_epoch_; }
  const std::vector<std::int64_t>& last_arrival() const {
    return last_arrival_;
  }

 private:
  void note(const SinkContext& ctx, std::uint64_t h) {
    hash_ += h;
    ++records_;
    progress_.store(records_, std::memory_order_release);
    if (shipped_end_ == nullptr) return;
    const std::uint64_t epoch =
        latest_position(trace_.index_of[ctx.packet_id],
                        shipped_end_->load(std::memory_order_acquire),
                        trace_.size()) /
        kEpochPackets;
    last_epoch_ = static_cast<std::int64_t>(epoch);
    if (epoch < last_arrival_.size()) last_arrival_[epoch] = now_ns();
  }

  const Trace& trace_;
  std::uint64_t records_ = 0;
  std::uint64_t hash_ = 0;
  std::atomic<std::uint64_t> progress_{0};
  std::int64_t last_epoch_ = -1;
  const std::atomic<std::uint64_t>* shipped_end_ = nullptr;
  std::vector<std::int64_t> last_arrival_;
};

// The sender's ByteStream: the socket, with refusals and bytes counted,
// and in a traced phase each try_write (and the backpressure wait
// after a refused one) recorded as a span.
class CountingStream final : public ByteStream {
 public:
  CountingStream(std::unique_ptr<SocketSenderStream> socket, SpanLog* log)
      : socket_(std::move(socket)), log_(log) {}

  bool try_write(std::span<const std::uint8_t> bytes) override {
    std::int64_t start = 0;
    if (log_ != nullptr) {
      start = now_ns();
      if (refused_last_) log_->add("blocked_wait", last_end_, start, -1);
    }
    const bool ok = socket_->try_write(bytes);
    if (ok) {
      bytes_written += bytes.size();
    } else {
      ++refused;
    }
    refused_last_ = !ok;
    if (log_ != nullptr) {
      last_end_ = now_ns();
      log_->add("try_write", start, last_end_, -1);
    }
    return ok;
  }
  std::size_t read(std::span<std::uint8_t> out) override {
    return socket_->read(out);
  }
  void close_write() override { socket_->close_write(); }
  bool eof() const override { return socket_->eof(); }
  std::size_t capacity() const override { return socket_->capacity(); }

  SocketSenderStream& socket() { return *socket_; }

  std::uint64_t refused = 0;
  std::uint64_t bytes_written = 0;

 private:
  std::unique_ptr<SocketSenderStream> socket_;
  SpanLog* log_;
  bool refused_last_ = false;
  std::int64_t last_end_ = 0;
};

// The daemon's StreamIngest: FanInCollector::ingest_stream, recorded as a
// span per call in a traced phase.
class TracedIngest final : public StreamIngest {
 public:
  TracedIngest(FanInCollector& collector, const CollectorTap& tap,
               SpanLog* log)
      : collector_(collector), tap_(tap), log_(log) {}

  void ingest_stream(std::uint32_t source,
                     std::span<const std::uint8_t> bytes) override {
    if (log_ == nullptr) {
      collector_.ingest_stream(source, bytes);
      return;
    }
    const std::int64_t start = now_ns();
    collector_.ingest_stream(source, bytes);
    log_->add("ingest_stream", start, now_ns(), tap_.last_epoch());
  }
  void end_stream(std::uint32_t source) override {
    collector_.end_stream(source);
  }
  void disconnect_stream(std::uint32_t source) override {
    collector_.disconnect_stream(source);
  }

 private:
  FanInCollector& collector_;
  const CollectorTap& tap_;
  SpanLog* log_;
};

// One sink host and its collector: FanInSender over a SocketSenderStream
// into a CollectorDaemon run by its own thread.
class Pipeline {
 public:
  Pipeline(const PintFramework::Builder& builder, SinkTap& sink_tap,
           CollectorTap& collector_tap, SpanLog* generator_log,
           SpanLog* daemon_log)
      : ingest_(collector_, collector_tap, daemon_log),
        daemon_(ingest_, daemon_config()) {
    collector_.add_observer(&collector_tap);
    SocketSenderConfig sc;
    sc.unix_path = daemon_.unix_path();
    sc.source = kSource;
    auto stream = std::make_unique<CountingStream>(
        std::make_unique<SocketSenderStream>(std::move(sc)), generator_log);
    stream_ = stream.get();
    FanInSender::Config config;
    config.shards = kShards;
    sender_ = std::make_unique<FanInSender>(builder, kSource,
                                            std::move(stream), config);
    sender_->sink().add_observer(&sink_tap);
    // Last: nothing after this may throw with the thread unjoined.
    daemon_thread_ = std::thread([this] {
      try {
        daemon_.run();
      } catch (const std::exception& e) {
        daemon_error_ = e.what();
      }
    });
  }

  ~Pipeline() { shutdown(); }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  bool wait_connected() {
    return stream_->socket().wait_connected(std::chrono::seconds(5));
  }

  // Ends the sender's stream, waits until the daemon saw it end, and joins
  // the daemon thread; afterwards the collector may be read. False when
  // the end of stream did not arrive in time or the daemon's loop failed.
  bool shutdown() {
    if (!daemon_thread_.joinable()) return true;
    sender_->close();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon_.sources_ended() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool ended = daemon_.sources_ended() >= 1;
    daemon_.stop();
    daemon_thread_.join();
    return ended && daemon_error_.empty();
  }

  FanInSender& sender() { return *sender_; }
  CountingStream& stream() { return *stream_; }
  const FanInCollector& collector() const { return collector_; }

 private:
  static CollectorDaemonConfig daemon_config() {
    CollectorDaemonConfig config;
    config.unix_path = socket_path();
    config.end_stream_on_disconnect = true;
    return config;
  }

  FanInCollector collector_;
  TracedIngest ingest_;
  CollectorDaemon daemon_;
  CountingStream* stream_ = nullptr;  // owned by sender_
  std::unique_ptr<FanInSender> sender_;
  std::string daemon_error_;  // written by the daemon thread before it ends
  std::thread daemon_thread_;
};

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}

}  // namespace

PintFramework::Builder sink_builder(const Trace& trace,
                                    const SinkOptions& options) {
  PintFramework::Builder builder = trace.builder;
  if (options.async_relay) {
    builder.async_observers(kAsyncDepth, OverflowPolicy::kBlock, 1);
  }
  if (options.memory_ceiling > 0) {
    builder.memory_ceiling_bytes(options.memory_ceiling);
  }
  return builder;
}

PhaseResult run_phase(const Trace& trace, const SinkOptions& options,
                      const PhaseSpec& spec, std::uint64_t seed) {
  PhaseResult r;
  r.label = spec.label;
  if (spec.traced) {
    r.generator_log = std::make_unique<SpanLog>("generator");
    r.daemon_log = std::make_unique<SpanLog>("collector daemon");
  }
  SpanLog* log = r.generator_log.get();
  SinkTap sink_tap(trace, options.observer_rounds);
  CollectorTap collector_tap(trace);
  // Positions below offered_end may be inside the sink; positions below
  // shipped_end may be on their way to the collector.
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> offered_end{0};
  std::atomic<std::uint64_t> shipped_end{0};
  std::vector<std::int64_t> ship_start;
  if (spec.open_loop) {
    r.sink_latency.resize(spec.packets / kEpochPackets);
    ship_start.assign(spec.packets / kEpochPackets, 0);
    collector_tap.track_epochs(ship_start.size(), &shipped_end);
  } else if (spec.traced) {
    collector_tap.track_epochs(0, &shipped_end);  // epochs for ingest spans
  }

  const double rss_before = rss_mib();
  double rss_peak = rss_before;
  const std::int64_t setup_start = now_ns();
  Pipeline pipe(sink_builder(trace, options), sink_tap, collector_tap, log,
                r.daemon_log.get());
  if (!pipe.wait_connected()) {
    throw std::runtime_error("sender did not connect to the collector daemon");
  }
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  FanInSender& sender = pipe.sender();

  const auto deliver = [&](std::uint64_t from, std::uint64_t to) {
    for (std::uint64_t p = from; p < to; ++p) {
      const std::size_t i = p % trace.size();
      sender.deliver(trace.packets[i], trace.hops[i]);
    }
  };

  const auto read = [&](std::uint64_t epochs) {
    ScopedSpan span(log, "reads", static_cast<std::int64_t>(epochs) - 1);
    Histogram& latency =
        r.query_latency[window_of(epochs - 1, spec.packets / kEpochPackets)];
    const ShardedSink& sink = sender.sink();
    std::uint64_t acc = 0;
    for (const Read& q :
         reads_after(trace, seed, epochs, options.reads_per_epoch)) {
      const std::int64_t a = now_ns();
      const std::optional<std::vector<SwitchId>> path =
          sink.flow_path("path", q.tuple);
      const std::int64_t b = now_ns();
      const std::optional<double> p99 =
          sink.latency_quantile("latency", q.tuple, q.hop, 0.99);
      const std::int64_t c = now_ns();
      latency.add(c - a);
      if (spec.traced) {
        r.flow_path_latency.add(b - a);
        r.quantile_latency.add(c - b);
      }
      acc = fold(acc, read_answer(path, p99));
    }
    r.reads.push_back(acc);
  };

  std::int64_t first = 0;  // the first deliver
  // Closes epoch `epoch` (0-based): every position below its end has been
  // delivered.
  const auto finish_epoch = [&](std::uint64_t epoch) {
    const auto request = static_cast<std::int64_t>(epoch);
    if (spec.traced) {
      // Split the drain of shard workers and relays out of ship_epoch,
      // whose own flush then finds the sink idle.
      ScopedSpan span(log, "flush", request);
      sender.sink().flush();
    }
    shipped_end.store((epoch + 1) * kEpochPackets, std::memory_order_release);
    if (epoch < ship_start.size()) ship_start[epoch] = now_ns();
    {
      ScopedSpan span(log, "ship_epoch", request);
      sender.ship_epoch();
    }
    read(epoch + 1);
    if (spec.traced) {
      ScopedSpan span(log, "store_report", request);
      r.store_after_epoch.push_back(sender.sink().memory_report().total);
    }
    if (spec.open_loop) rss_peak = std::max(rss_peak, rss_mib());
    r.epoch_done_s.push_back(static_cast<double>(now_ns() - first) / 1e9);
  };

  const int root = log != nullptr ? log->open(spec.open_loop ? "open_loop"
                                                             : "closed_loop",
                                              -1)
                                  : -1;
  first = now_ns();
  if (spec.open_loop) {
    const double ns_per_packet = 1e9 / spec.rate_pps;
    sink_tap.time_from(first, ns_per_packet, &offered_end, &r.sink_latency);
    std::int64_t tick = first;
    while (r.packets < spec.packets) {
      sleep_until_ns(tick);
      const std::int64_t woke = now_ns();
      r.generator_lag.add(woke - tick);
      const std::uint64_t epoch_end = (r.epochs + 1) * kEpochPackets;
      const std::uint64_t due = std::min(
          epoch_end, static_cast<std::uint64_t>(
                         static_cast<double>(woke - first) / ns_per_packet) +
                         1);
      if (due > r.packets) {
        offered_end.store(due, std::memory_order_release);
        ScopedSpan span(log, "deliver", static_cast<std::int64_t>(r.epochs));
        deliver(r.packets, due);
        r.packets = due;
      }
      if (r.packets == epoch_end) finish_epoch(r.epochs++);
      tick = first + ((now_ns() - first) / kTickNs + 1) * kTickNs;
    }
  } else {
    while (r.packets < spec.packets) {
      const std::uint64_t epoch_end = r.packets + kEpochPackets;
      for (std::uint64_t p = r.packets; p < epoch_end; p += kDeliverSpan) {
        ScopedSpan span(log, "deliver", static_cast<std::int64_t>(r.epochs));
        deliver(p, std::min(epoch_end, p + kDeliverSpan));
      }
      r.packets = epoch_end;
      finish_epoch(r.epochs++);
    }
  }
  r.sink_events = sink_tap.events();
  {
    // The run ends when the collector has replayed the last record.
    ScopedSpan span(log, "drain");
    const std::int64_t deadline = now_ns() + kDrainTimeoutNs;
    while (collector_tap.progress() < r.sink_events && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  r.wall_s = static_cast<double>(now_ns() - first) / 1e9;
  r.epoch_done_s.back() = r.wall_s;
  if (log != nullptr) log->close(root);

  for (const FiveTuple& flow :
       path_sample(trace, seed, r.packets, spec.path_samples)) {
    r.paths.push_back(path_answer(sender.sink().flow_path("path", flow)));
  }
  r.refused_writes = pipe.stream().refused;
  r.bytes_written = pipe.stream().bytes_written;
  if (!pipe.shutdown()) {
    throw std::runtime_error(
        "collector daemon failed or missed the end of stream");
  }
  r.collector_records = collector_tap.records();
  r.record_hash = collector_tap.hash();
  r.frame_errors = pipe.collector().errors_total();
  r.incomplete_epochs = pipe.collector().incomplete_epochs();
  for (std::size_t e = 0; e < ship_start.size(); ++e) {
    const std::int64_t arrived = collector_tap.last_arrival()[e];
    if (arrived > 0) {
      r.epoch_visible_ms.push_back(
          static_cast<double>(arrived - ship_start[e]) / 1e6);
    }
  }
  r.rss_growth_mb = rss_peak - rss_before;
  return r;
}

double measure_setup(const Trace& trace, const SinkOptions& options) {
  SinkTap sink_tap(trace, options.observer_rounds);
  CollectorTap collector_tap(trace);
  const std::int64_t start = now_ns();
  Pipeline pipe(sink_builder(trace, options), sink_tap, collector_tap,
                nullptr, nullptr);
  if (!pipe.wait_connected()) {
    throw std::runtime_error("sender did not connect to the collector daemon");
  }
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  pipe.shutdown();
  return seconds;
}

}  // namespace pint::benchmark
