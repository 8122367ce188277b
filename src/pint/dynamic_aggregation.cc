#include "pint/dynamic_aggregation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.h"

namespace pint {

namespace {
// KLL parameter from an item budget: total retained items across levels is
// about 1.5x the top-level capacity k.
std::size_t kll_k_for_items(std::size_t items) {
  return std::max<std::size_t>(8, items * 2 / 3);
}
}  // namespace

DynamicAggregationQuery::DynamicAggregationQuery(
    DynamicAggregationConfig config, std::uint64_t seed)
    : config_(config),
      compressor_(MultiplicativeCompressor::eps_for(config.max_value,
                                                    config.bits),
                  config.max_value),
      g_(GlobalHash(seed).derive(0xD1A)),
      rounding_(GlobalHash(seed).derive(0xD1B)) {
  if (config.bits == 0 || config.bits > 64)
    throw std::invalid_argument("bits in [1,64]");
}

Digest DynamicAggregationQuery::encode_step(PacketId packet, HopIndex i,
                                            Digest cur, double value) const {
  if (!baseline_writes(g_, packet, i)) return cur;
  if (config_.randomized_rounding) {
    return compressor_.encode_randomized(value, rounding_, packet);
  }
  return compressor_.encode(value);
}

DynamicAggregationQuery::Sample DynamicAggregationQuery::decode(
    PacketId packet, Digest digest, unsigned k) const {
  const HopIndex hop = baseline_carrier(g_, packet, k);
  return Sample{hop, compressor_.decode(digest)};
}

FlowLatencyRecorder::FlowLatencyRecorder(unsigned k, std::size_t sketch_bytes,
                                         std::uint64_t seed,
                                         std::size_t bytes_per_item)
    : hops_(k) {
  if (k == 0) throw std::invalid_argument("k > 0");
  if (bytes_per_item == 0) throw std::invalid_argument("bytes_per_item > 0");
  if (sketch_bytes > 0) {
    const std::size_t items_per_hop =
        std::max<std::size_t>(12, sketch_bytes / k / bytes_per_item);
    sketches_.reserve(k);
    for (unsigned i = 0; i < k; ++i) {
      sketches_.emplace_back(kll_k_for_items(items_per_hop), seed ^ (i + 1));
    }
  }
}

const FlowLatencyRecorder::Hop& FlowLatencyRecorder::hop_at(
    HopIndex hop) const {
  if (hop == 0 || hop > hops_.size())
    throw std::out_of_range("hop out of range");
  return hops_[hop - 1];
}

void FlowLatencyRecorder::add(const DynamicAggregationQuery::Sample& sample) {
  if (sample.hop == 0 || sample.hop > hops_.size())
    throw std::out_of_range("hop out of range");
  const unsigned idx = sample.hop - 1;
  Hop& hop = hops_[idx];
  ++hop.samples;
  if (sketches_.empty()) {
    hop.raw.push_back(sample.value);
  } else {
    sketches_[idx].add(sample.value);
  }
  if (!windows_.empty()) windows_[idx].add(sample.value);
  hop.frequent.add(static_cast<std::uint64_t>(std::llround(sample.value)));
}

void FlowLatencyRecorder::enable_sliding_window(std::size_t window,
                                                std::size_t blocks) {
  for (const Hop& hop : hops_) {
    if (hop.samples != 0)
      throw std::logic_error("enable_sliding_window before first add()");
  }
  windows_.clear();
  windows_.reserve(hops_.size());
  for (unsigned i = 0; i < hops_.size(); ++i) {
    windows_.emplace_back(window, blocks, 64, 0x51DE ^ (i + 1));
  }
}

std::optional<double> FlowLatencyRecorder::windowed_quantile(
    HopIndex hop, double phi) const {
  hop_at(hop);  // range check
  if (windows_.empty() || windows_[hop - 1].items_covered() == 0)
    return std::nullopt;
  return windows_[hop - 1].quantile(phi);
}

std::optional<double> FlowLatencyRecorder::quantile(HopIndex hop,
                                                    double phi) const {
  const Hop& h = hop_at(hop);
  if (h.samples == 0) return std::nullopt;
  if (!sketches_.empty()) return sketches_[hop - 1].quantile(phi);
  return percentile(h.raw, phi);
}

std::vector<std::uint64_t> FlowLatencyRecorder::frequent_values(
    HopIndex hop, double theta) const {
  return hop_at(hop).frequent.frequent(theta);
}

std::size_t FlowLatencyRecorder::samples_at(HopIndex hop) const {
  return hop_at(hop).samples;
}

std::size_t FlowLatencyRecorder::approx_bytes() const {
  std::size_t bytes =
      sizeof(*this) + heap_block_bytes(hops_.capacity() * sizeof(Hop));
  for (const Hop& hop : hops_) {
    bytes += heap_block_bytes(hop.raw.capacity() * sizeof(double)) +
             hop.frequent.heap_bytes();
  }
  for (const KllSketch& sketch : sketches_) bytes += sketch.size_bytes();
  for (const SlidingWindowQuantiles& win : windows_) bytes += win.size_bytes();
  return bytes;
}

}  // namespace pint
