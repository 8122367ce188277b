#include "stats.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

namespace pint::benchmark {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rss_mib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Groups 0 (exact values below kSub) and one per exponent 7..kMaxExponent.
Histogram::Histogram() : buckets_(kSub * (kMaxExponent - kSubBits + 2), 0) {}

std::size_t Histogram::index(std::uint64_t value) {
  if (value < kSub) return static_cast<std::size_t>(value);
  value = std::min(value, (std::uint64_t{2} << kMaxExponent) - 1);
  const auto exponent = 63u - static_cast<unsigned>(std::countl_zero(value));
  const unsigned group = exponent - kSubBits;
  const std::uint64_t sub = (value >> group) - kSub;
  return static_cast<std::size_t>(kSub * (group + 1) + sub);
}

void Histogram::add(std::int64_t value) {
  ++buckets_[index(value < 0 ? 0 : static_cast<std::uint64_t>(value))];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto in_bucket = static_cast<double>(buckets_[i]);
    if (in_bucket == 0.0 || cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1.0;
    if (i >= kSub) {
      const std::size_t group = i / kSub - 1;
      lower = static_cast<double>((kSub + i % kSub) << group);
      width = static_cast<double>(std::uint64_t{1} << group);
    }
    return lower + width * (target - cumulative) / in_bucket;
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace pint::benchmark
