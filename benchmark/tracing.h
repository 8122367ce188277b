// Spans for the traced run. The benchmark opens a span around each call
// it makes into a layer (a deliver batch, flush, ship_epoch, try_write,
// ingest_stream, ...); per-packet and per-record calls are only counted.
// Spans live in memory, one log per thread, and are written out as Chrome
// trace-event JSON when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pint::benchmark {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            // index in the same log; -1 for a root
  std::int64_t request = -1;  // epoch number the span served; -1 if none
};

// The spans of one thread. Not thread-safe: each thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {}

  // Starts a span now as a child of the innermost open span.
  int open(const char* name, std::int64_t request);
  void close(int id);

  // Records a completed span as a child of the innermost open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t request);

  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for its scope; a null log records nothing, so untraced runs
// pay one branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t request = -1)
      : log_(log), id_(log != nullptr ? log->open(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Per span name: calls, busy time (sum of durations) and self time (busy
// minus the time covered by child spans).
struct LayerRow {
  std::string name;
  std::uint64_t calls = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<LayerRow> layer_table(const SpanLog& log);

// Durations (ns) of every span called `name`.
std::vector<double> durations_ns(const SpanLog& log, const char* name);

// Summed self time (ns) of every span called `name`.
double self_ns(const SpanLog& log, const char* name);

// Summed duration (ns) of the root spans' direct children.
double children_of_roots_ns(const SpanLog& log);

// One traced phase: its label and its threads' logs.
struct PhaseTrace {
  std::string label;
  std::vector<const SpanLog*> logs;
};

// Writes every span as a Chrome trace "X" event (pid = phase, tid =
// thread). Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<PhaseTrace>& phases);

}  // namespace pint::benchmark
