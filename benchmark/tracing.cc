#include "tracing.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>

#include "stats.h"

namespace pint::benchmark {

int SpanLog::open(const char* name, std::int64_t request) {
  const int id = static_cast<int>(spans_.size());
  add(name, now_ns(), 0, request);
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::add(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns, std::int64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  // A span without its own request serves its parent's.
  if (request < 0 && parent >= 0) {
    request = spans_[static_cast<std::size_t>(parent)].request;
  }
  spans_.push_back({name, start_ns, end_ns, parent, request});
}

namespace {

double duration(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns);
}

// Time each span's direct children cover, by span index.
std::vector<double> child_time(const SpanLog& log) {
  std::vector<double> covered(log.spans().size(), 0.0);
  for (const Span& span : log.spans()) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] += duration(span);
    }
  }
  return covered;
}

}  // namespace

std::vector<LayerRow> layer_table(const SpanLog& log) {
  const std::vector<double> covered = child_time(log);
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    LayerRow& row = rows[span.name];
    row.name = span.name;
    ++row.calls;
    row.busy_ms += duration(span) / 1e6;
    row.self_ms += (duration(span) - covered[i]) / 1e6;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

std::vector<double> durations_ns(const SpanLog& log, const char* name) {
  std::vector<double> out;
  for (const Span& span : log.spans()) {
    if (std::strcmp(span.name, name) == 0) out.push_back(duration(span));
  }
  return out;
}

double self_ns(const SpanLog& log, const char* name) {
  const std::vector<double> covered = child_time(log);
  double total = 0.0;
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& span = log.spans()[i];
    if (std::strcmp(span.name, name) == 0) total += duration(span) - covered[i];
  }
  return total;
}

double children_of_roots_ns(const SpanLog& log) {
  double total = 0.0;
  for (const Span& span : log.spans()) {
    if (span.parent >= 0 &&
        log.spans()[static_cast<std::size_t>(span.parent)].parent < 0) {
      total += duration(span);
    }
  }
  return total;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<PhaseTrace>& phases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const PhaseTrace& phase : phases) {
    for (const SpanLog* log : phase.logs) {
      for (const Span& span : log->spans()) {
        origin = std::min(origin, span.start_ns);
      }
    }
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t pid = 0; pid < phases.size(); ++pid) {
    std::fprintf(f,
                 "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", pid, phases[pid].label.c_str());
    first = false;
    for (std::size_t tid = 0; tid < phases[pid].logs.size(); ++tid) {
      const SpanLog& log = *phases[pid].logs[tid];
      std::fprintf(f,
                   ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,"
                   "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                   pid, tid, log.thread().c_str());
      for (std::size_t i = 0; i < log.spans().size(); ++i) {
        const Span& span = log.spans()[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":%zu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"epoch\":%lld}}",
                     span.name, pid, tid,
                     static_cast<double>(span.start_ns - origin) / 1e3,
                     duration(span) / 1e3, i, span.parent,
                     static_cast<long long>(span.request));
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pint::benchmark
