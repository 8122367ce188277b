// SpaceSaving heavy-hitters sketch (Metwally, Agrawal, El Abbadi — ICDT 2005,
// paper reference [50]).
//
// PINT's dynamic per-flow aggregation uses SpaceSaving on the sampled
// sub-stream of each (flow, hop) to report frequent values within an additive
// eps fraction using O(eps^-1) counters (Appendix A.1, Theorem 2).
//
// The counters live in one flat slot array that grows to `capacity` and is
// then only rewritten in place: an add allocates nothing once the array has
// reached its final size. Lookups scan the slots linearly, which for the
// per-hop sketches here (tens of counters) is cheaper than any node-based
// index. The eviction victim is the slot with the smallest count; among
// equal counts, the one that reached its count earliest (smallest stamp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/types.h"

namespace pint {

class SpaceSaving {
 public:
  // `capacity` = number of monitored values (use ceil(1/eps)).
  explicit SpaceSaving(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("capacity > 0");
  }

  void add(std::uint64_t value) {
    ++total_;
    if (const std::size_t i = index_of(value); i != slots_.size()) {
      ++slots_[i].count;
      slots_[i].stamp = clock_++;
      return;
    }
    if (slots_.size() < capacity_) {
      if (slots_.size() == slots_.capacity()) {
        // Double, but never past `capacity`: a sub-stream that sees one
        // value keeps one slot.
        slots_.reserve(std::min(capacity_, 2 * slots_.size() + 1));
      }
      slots_.push_back(Slot{value, 1, 0, clock_++});
      return;
    }
    // Evict the current minimum and inherit its count as overestimation
    // error, per the SpaceSaving replacement rule.
    Slot* victim = &slots_.front();
    for (Slot& s : slots_) {
      if (s.count < victim->count ||
          (s.count == victim->count && s.stamp < victim->stamp)) {
        victim = &s;
      }
    }
    const std::uint64_t min_count = victim->count;
    *victim = Slot{value, min_count + 1, min_count, clock_++};
  }

  // Estimated count; guaranteed within [true, true + total/capacity].
  std::uint64_t estimate(std::uint64_t value) const {
    const std::size_t i = index_of(value);
    return i == slots_.size() ? 0 : slots_[i].count;
  }

  // Guaranteed lower bound on the true count.
  std::uint64_t lower_bound(std::uint64_t value) const {
    const std::size_t i = index_of(value);
    return i == slots_.size() ? 0 : slots_[i].count - slots_[i].error;
  }

  // Values whose estimated frequency is at least `theta` of the stream.
  std::vector<std::uint64_t> frequent(double theta) const {
    std::vector<std::uint64_t> out;
    const double cut = theta * static_cast<double>(total_);
    for (const Slot& s : slots_) {
      if (static_cast<double>(s.count) >= cut) out.push_back(s.value);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::uint64_t total() const { return total_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t monitored() const { return slots_.size(); }

  // Footprint: the object plus its slot array (the one heap allocation).
  std::size_t size_bytes() const { return sizeof(*this) + heap_bytes(); }
  std::size_t heap_bytes() const {
    return heap_block_bytes(slots_.capacity() * sizeof(Slot));
  }

 private:
  struct Slot {
    std::uint64_t value;
    std::uint64_t count;
    std::uint64_t error;
    // Position of the add that gave this slot its current count; ties on
    // count evict the smallest stamp, the slot that has sat longest at
    // the minimum.
    std::uint64_t stamp;
  };

  // Slot holding `value`, or slots_.size() when it is not monitored.
  std::size_t index_of(std::uint64_t value) const {
    std::size_t i = 0;
    while (i < slots_.size() && slots_[i].value != value) ++i;
    return i;
  }

  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::uint64_t clock_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace pint
