// Accounting honesty: the footprint a per-flow state reports to the
// Recording Module must cover the heap it really holds. This binary
// replaces the global operator new/delete with a counting pair (hence its
// own test binary), then checks a path decoder and a latency recorder at
// several fill levels: the bytes they hold live on the heap must not exceed
// approx_bytes() plus the store's per-entry node charge.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "coding/encoder.h"
#include "coding/hashed_decoder.h"
#include "coding/scheme.h"
#include "common/rng.h"
#include "pint/dynamic_aggregation.h"
#include "pint/recording_store.h"

namespace {

// Live bytes requested through operator new and not yet deleted. Each
// block carries its requested size in a header so unsized deletes can
// subtract it.
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) noexcept {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) return nullptr;
  *static_cast<std::size_t*>(base) = n;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

// GCC cannot see that the counting delete frees exactly the malloc block
// the counting new handed out, and flags the pairing once both inline.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace pint {
namespace {

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

TEST(CountingAllocator, SeesVectorGrowthAndRelease) {
  const std::int64_t before = live_bytes();
  {
    std::vector<std::uint64_t> v(100);
    EXPECT_EQ(live_bytes() - before, 800);
  }
  EXPECT_EQ(live_bytes(), before);
}

struct DecoderCase {
  std::size_t universe_size;
  unsigned k;
  unsigned bits;
  unsigned instances;
  SchemeConfig scheme;
};

TEST(AccountingHonesty, DecoderHeapWithinApproxBytesPlusNodeCharge) {
  const std::size_t node = RecordingStore<HashedPathDecoder>::node_bytes();
  // The sink's default shape, a record-heavy XOR decode over a wide
  // universe, and a one-past-a-word universe.
  const std::vector<DecoderCase> cases = {
      {64, 5, 8, 1, make_multilayer_scheme(5)},
      {200, 12, 4, 2, make_xor_scheme(12)},
      {65, 9, 3, 1, make_hybrid_scheme(9)},
  };
  for (const DecoderCase& c : cases) {
    std::vector<std::uint64_t> universe(c.universe_size);
    for (std::size_t j = 0; j < universe.size(); ++j) universe[j] = j + 1;
    const GlobalHash root(0xACC0 + c.k);
    const auto tables = std::make_shared<const HashedDecoderTables>(
        c.bits, c.instances, c.scheme, root, universe);
    std::vector<InstanceHashes> hashes;
    for (unsigned inst = 0; inst < c.instances; ++inst) {
      hashes.push_back(make_instance_hashes(root, inst));
    }
    std::vector<std::uint64_t> path(c.k);
    for (unsigned i = 0; i < c.k; ++i) path[i] = universe[(i * 37) % 64];
    std::vector<Digest> digests(c.instances);

    const std::int64_t before = live_bytes();
    HashedPathDecoder decoder(c.k, tables);
    std::size_t checks = 0;
    const auto check = [&](PacketId packets) {
      const std::int64_t held = live_bytes() - before;
      EXPECT_LE(held,
                static_cast<std::int64_t>(decoder.approx_bytes() + node))
          << "|V|=" << c.universe_size << " k=" << c.k << " after "
          << packets << " packets";
      ++checks;
    };
    check(0);
    PacketId next_check = 1;
    for (PacketId packet = 1; packet <= 4096; ++packet) {
      for (unsigned inst = 0; inst < c.instances; ++inst) {
        digests[inst] =
            encode_path(c.scheme, hashes[inst], packet, path, c.bits);
      }
      decoder.add_packet(packet, digests);
      if (packet == next_check || decoder.complete()) {
        check(packet);
        next_check *= 2;
      }
      if (decoder.complete()) break;
    }
    EXPECT_TRUE(decoder.complete());
    EXPECT_GT(checks, 3u);
  }
}

TEST(AccountingHonesty, RecorderHeapWithinApproxBytesPlusNodeCharge) {
  const std::size_t node = RecordingStore<FlowLatencyRecorder>::node_bytes();
  for (const unsigned k : {1u, 5u, 8u}) {
    Rng rng(k);
    const std::int64_t before = live_bytes();
    FlowLatencyRecorder recorder(k);
    const auto check = [&](std::size_t samples) {
      const std::int64_t held = live_bytes() - before;
      EXPECT_LE(held,
                static_cast<std::int64_t>(recorder.approx_bytes() + node))
          << "k=" << k << " after " << samples << " samples";
    };
    check(0);
    std::size_t next_check = 1;
    for (std::size_t n = 1; n <= 20'000; ++n) {
      // Values spread over a few hundred codes: the frequent-value
      // counters fill up and start evicting.
      const DynamicAggregationQuery::Sample sample{
          static_cast<HopIndex>(1 + rng.uniform_int(k)),
          static_cast<double>(1000 + rng.uniform_int(300))};
      recorder.add(sample);
      if (n == next_check) {
        check(n);
        next_check = next_check * 3 + 1;
      }
    }
    check(20'000);
  }
}

}  // namespace
}  // namespace pint
