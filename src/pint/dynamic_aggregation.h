/// \file
/// Dynamic per-flow aggregation: per-hop latency quantiles
/// (paper Example #1, Section 4.1; Theorems 1 and 2).
///
/// Each packet carries the (compressed) value of one uniformly chosen hop,
/// selected by distributed reservoir sampling: hop i overwrites the digest
/// when g(packet, i) <= 1/i. The Recording Module re-runs the same hashes to
/// attribute every digest to its hop, producing per-(flow, hop) sub-streams;
/// quantiles come from raw samples or a KLL sketch (the paper's PINT_S).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "approx/value_compression.h"
#include "coding/scheme.h"
#include "common/types.h"
#include "hash/global_hash.h"
#include "sketch/kll.h"
#include "sketch/sliding_window.h"
#include "sketch/space_saving.h"

namespace pint {

struct DynamicAggregationConfig {
  unsigned bits = 8;          // digest bit budget
  double max_value = 1 << 30; // largest value that must be representable
  /// When true, use the zero-mean randomized rounding of Section 4.3.
  bool randomized_rounding = false;
};

class DynamicAggregationQuery {
 public:
  DynamicAggregationQuery(DynamicAggregationConfig config, std::uint64_t seed);

  /// Switch side: hop i overwrites the digest with its compressed value iff
  /// its reservoir decision fires.
  Digest encode_step(PacketId packet, HopIndex i, Digest cur,
                     double value) const;

  /// Sink side: which hop's value this packet carries (k = path length), and
  /// the decompressed value.
  struct Sample {
    HopIndex hop;
    double value;
  };
  Sample decode(PacketId packet, Digest digest, unsigned k) const;

  double decompress(Digest digest) const { return compressor_.decode(digest); }
  const DynamicAggregationConfig& config() const { return config_; }

 private:
  DynamicAggregationConfig config_;
  MultiplicativeCompressor compressor_;
  GlobalHash g_;
  GlobalHash rounding_;
};

/// Recording + Inference for one flow: per-hop sub-streams held either as raw
/// samples (exact, linear space) or as KLL sketches (paper's PINT_S,
/// O(eps^-1) space). Space budget, when given, is split evenly across the k
/// hops (Section 4.1). An optional sliding window (Section 4.1: "we can use a
/// sliding-window sketch to reflect only the most recent measurements")
/// answers windowed quantile queries alongside the all-time ones.
class FlowLatencyRecorder {
 public:
  /// sketch_bytes = 0 keeps raw samples; otherwise each hop gets a KLL sketch
  /// sized to about sketch_bytes / k bytes. `bytes_per_item` is the storage
  /// cost of one retained identifier — the paper's Recording Module stores
  /// b-bit compressed codes, so pass (bits+7)/8 to model Fig. 9's
  /// 100-300 byte sketches faithfully (default: raw 8-byte doubles).
  FlowLatencyRecorder(unsigned k, std::size_t sketch_bytes = 0,
                      std::uint64_t seed = 0x4C415245C0DE,
                      std::size_t bytes_per_item = 8);

  void add(const DynamicAggregationQuery::Sample& sample);

  /// phi-quantile of the sub-stream observed at `hop` (1-based).
  std::optional<double> quantile(HopIndex hop, double phi) const;

  /// Enable per-hop sliding windows over the most recent `window` samples
  /// (must be called before the first add()).
  void enable_sliding_window(std::size_t window, std::size_t blocks = 8);

  /// phi-quantile over the recent window at `hop`; nullopt if windows are
  /// disabled or empty.
  std::optional<double> windowed_quantile(HopIndex hop, double phi) const;

  /// Values appearing in at least a theta fraction at `hop` (Theorem 2),
  /// values keyed by their compressed code.
  std::vector<std::uint64_t> frequent_values(HopIndex hop, double theta) const;

  std::size_t samples_at(HopIndex hop) const;
  unsigned k() const { return static_cast<unsigned>(hops_.size()); }

  /// Approximate heap + object footprint in bytes, for the Recording
  /// Module's memory accounting. Grows with raw samples (or sketch
  /// compactions) and the frequent-value counters.
  std::size_t approx_bytes() const;

 private:
  // One hop's sub-stream, kept together: its sample count, its raw samples
  // (when not sketching) and its frequent-value counters (codes).
  struct Hop {
    std::size_t samples = 0;
    std::vector<double> raw;
    SpaceSaving frequent{kFrequentCounters};
  };
  static constexpr std::size_t kFrequentCounters = 64;

  const Hop& hop_at(HopIndex hop) const;  // 1-based; throws out_of_range

  std::vector<Hop> hops_;
  std::vector<KllSketch> sketches_;              // per hop, when sketching
  std::vector<SlidingWindowQuantiles> windows_;  // per hop, when enabled
};

}  // namespace pint
