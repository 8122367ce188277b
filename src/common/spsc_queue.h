// Bounded single-producer/single-consumer queue of typed items: the
// per-shard observer-relay ring behind ShardedSink's observer transport.
// One cache-line-separated index per side, acquire/release publication —
// the classic SPSC contract (the byte-level sibling is
// transport/stream.h's SpscRingStream). try_push/try_pop are non-blocking;
// a full queue refuses the push so the caller can apply an explicit
// OverflowPolicy (block with backoff, or drop and count).
//
// Memory-ordering invariant (the exact acquire/release pairing):
//
//  * Publication: the producer writes cells_[head & mask_] *before*
//    head_.store(head + 1, release). The consumer's
//    head_.load(acquire) in try_pop pairs with that store, so observing
//    the new head happens-after the element write — the consumer never
//    reads a half-constructed payload.
//  * Reclamation: the consumer moves the element out and resets the cell
//    *before* tail_.store(tail + 1, release). The producer's
//    tail_.load(acquire) in try_push pairs with it, so a producer that
//    sees the freed slot happens-after the consumer finished with it —
//    the producer never overwrites a payload still being read.
//  * head_/tail_ are monotonically increasing totals (never wrapped);
//    occupancy is head - tail, and each index has exactly one writer, so
//    relaxed self-reads (head_ by the producer, tail_ by the consumer)
//    are exact. tail_cache_/head_cache_ are stale-tolerant snapshots of
//    the *other* side: staleness can only under-report free slots /
//    available items (a spurious "full"/"empty"), never fabricate them.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cacheline.h"

namespace pint {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(std::size_t capacity)
      : cells_(std::bit_ceil(std::max<std::size_t>(capacity, 2))),
        mask_(cells_.size() - 1) {
    // The ring's cell protocol bakes in assumptions about T (asserted
    // here, not at class scope, so nested payload types — whose default
    // member initializers are only visible once the enclosing class is
    // complete — are fully formed when checked):
    //  * cells are default-constructed up front and re-assigned to T{} on
    //    pop (dropping heap a moved-from payload may still pin), so T
    //    must be nothrow-default-constructible;
    //  * a push/pop transfers by move-assignment after the slot is
    //    claimed; if that move could throw, the ring would publish or
    //    recycle a cell whose payload transfer never happened.
    static_assert(std::is_nothrow_default_constructible_v<T>,
                  "SpscQueue<T> default-constructs cells and resets them "
                  "on pop; T must be nothrow default-constructible");
    static_assert(std::is_nothrow_move_assignable_v<T>,
                  "SpscQueue<T> transfers payloads by move-assignment "
                  "after claiming a slot; a throwing move would corrupt "
                  "the ring");
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const { return cells_.size(); }

  /// False when the queue is full (value untouched). Producer thread only.
  [[nodiscard]] bool try_push(T&& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_cache_ == cells_.size()) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head - tail_cache_ == cells_.size()) return false;
    }
    cells_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// False when the queue is empty. Consumer thread only.
  [[nodiscard]] bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return false;
    }
    out = std::move(cells_[tail & mask_]);
    // Release the cell: drop payloads the moved-from state may still pin
    // (vectors keep their capacity after a move) so a drained ring holds
    // no stale heap.
    cells_[tail & mask_] = T{};
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Racy size hint (monitoring only); exact from the producer thread.
  std::size_t approx_size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }

 private:
  std::vector<T> cells_;
  std::size_t mask_;
  // Four private cache lines (common/cacheline.h): each index has one
  // writer and one reader, and each side's stale-tolerant cache of the
  // other index is written only by its owner — separating all four keeps
  // a push from invalidating the popper's lines and vice versa.
  alignas(kCacheLineBytes) std::atomic<std::size_t> head_{0};  // producer
  alignas(kCacheLineBytes) std::atomic<std::size_t> tail_{0};  // consumer
  alignas(kCacheLineBytes) std::size_t tail_cache_ = 0;  // producer's view
  alignas(kCacheLineBytes) std::size_t head_cache_ = 0;  // consumer's view
};

// The index/cache lines above are the queue's whole point; if the alignas
// decays the ring still works, just slower on every core count — make it
// a compile error instead.
PINT_ASSERT_CACHELINE_ALIGNED(SpscQueue<int>);

}  // namespace pint
