// Measurement primitives of the benchmark: a fixed-memory latency
// histogram, small-sample quantiles, the clock and the process RSS probe.
#pragma once

#include <cstdint>
#include <vector>

namespace pint::benchmark {

// Nanoseconds on the steady clock.
std::int64_t now_ns();

// Resident set size of this process, in MiB (from /proc/self/statm).
double rss_mib();

// Log-linear histogram of non-negative integer samples (nanoseconds in
// practice): exact below 128, then 128 sub-buckets per power of two up to
// 2^40 (samples above land in the top bucket), so no bucket is wider than
// 1/128 of its lower edge. Fixed memory (35 KiB) whatever the sample
// count, which keeps millions of per-event latencies out of the RSS the
// benchmark reports. Percentiles interpolate linearly inside the bucket
// holding the requested rank. Single writer.
class Histogram {
 public:
  Histogram();

  void add(std::int64_t value);
  void merge(const Histogram& other);
  std::uint64_t count() const { return count_; }

  // Value at quantile q in [0, 1]; 0 when empty.
  double percentile(double q) const;

 private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxExponent = 40;

  static std::size_t index(std::uint64_t value);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// Quantile q of a small sample, interpolating between order statistics;
// 0 when empty.
double quantile(std::vector<double> values, double q);

}  // namespace pint::benchmark
