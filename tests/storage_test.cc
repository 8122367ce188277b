// Tests for the Recording Module storage manager, the INT-spec wire model,
// and the LT-code comparator.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baselines/int_spec.h"
#include "coding/lt_code.h"
#include "common/rng.h"
#include "pint/recording_store.h"

namespace pint {
namespace {

// --- recording store ---------------------------------------------------------

struct FakeState {
  std::uint64_t flow = 0;
  std::size_t bytes = 100;
};

RecordingStore<FakeState> make_store(std::size_t capacity) {
  return RecordingStore<FakeState>(
      capacity, [](std::uint64_t f) { return FakeState{f, 100}; },
      [](const FakeState& s) { return s.bytes; });
}

TEST(RecordingStore, CreatesAndFinds) {
  auto store = make_store(0);
  FakeState& s = store.touch(42);
  EXPECT_EQ(s.flow, 42u);
  EXPECT_EQ(store.flows(), 1u);
  EXPECT_NE(store.find(42), nullptr);
  EXPECT_EQ(store.find(43), nullptr);
}

TEST(RecordingStore, EvictsLruWhenOverCapacity) {
  auto store = make_store(250);  // fits two 100B flows
  store.touch(1);
  store.touch(2);
  store.touch(1);  // 1 is now more recent than 2
  store.touch(3);  // must evict 2
  EXPECT_EQ(store.flows(), 2u);
  EXPECT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_NE(store.find(3), nullptr);
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(RecordingStore, GrowingStateReaccounted) {
  auto store = make_store(100'000);  // bounded: sizes refresh per touch
  FakeState& s = store.touch(7);
  EXPECT_EQ(store.used_bytes(), 100u);
  s.bytes = 500;
  store.touch(7);
  EXPECT_EQ(store.used_bytes(), 500u);
  EXPECT_EQ(store.created(), 1u);  // no re-creation
}

TEST(RecordingStore, UnboundedStoreKeepsCreationSizes) {
  // With no capacity there is nothing to evict, so touch() deliberately
  // skips the per-touch size walk (hot-path cost for a disabled feature);
  // used_bytes() reflects creation-time sizes.
  auto store = make_store(0);
  FakeState& s = store.touch(7);
  s.bytes = 500;
  store.touch(7);
  EXPECT_EQ(store.used_bytes(), 100u);
  // put() replaces the entry wholesale and does re-account.
  std::ignore = store.put(7, FakeState{7, 300});
  EXPECT_EQ(store.used_bytes(), 300u);
}

TEST(RecordingStore, ShrinkingStateReaccountedExplicitly) {
  // Regression: the old re-accounting (`used_ += now - bytes`) leaned on
  // unsigned wraparound when a state shrank below its prior size — path
  // decoders do exactly that as candidate sets are filtered.
  auto store = make_store(100'000);
  FakeState& s = store.touch(7);
  EXPECT_EQ(store.used_bytes(), 100u);
  s.bytes = 40;  // state shrank
  store.touch(7);
  EXPECT_EQ(store.used_bytes(), 40u);
  EXPECT_EQ(store.created(), 1u);
  // A second flow keeps summing correctly after the shrink.
  store.touch(8);
  EXPECT_EQ(store.used_bytes(), 140u);
}

TEST(RecordingStore, ShrinkBelowCapacityCancelsEvictionPressure) {
  auto store = make_store(250);
  FakeState& a = store.touch(1);
  store.touch(2);
  a.bytes = 10;
  store.touch(1);  // re-account: 10 + 100
  store.touch(3);  // 210 total: fits, nothing evicted
  EXPECT_EQ(store.flows(), 3u);
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.used_bytes(), 210u);
}

TEST(RecordingStore, NeverEvictsFlowBeingTouched) {
  RecordingStore<FakeState> store(
      50,  // smaller than a single flow
      [](std::uint64_t f) { return FakeState{f, 100}; },
      [](const FakeState& s) { return s.bytes; });
  store.touch(1);  // over capacity but must survive
  EXPECT_NE(store.find(1), nullptr);
}

TEST(RecordingStore, SoleOversizedFlowKeptAndFlagged) {
  // A single protected entry above the whole ceiling is deliberately kept
  // (evicting the flow being updated would livelock); the condition is
  // surfaced through over_budget() and clears once the state shrinks back.
  RecordingStore<FakeState> store(
      50, [](std::uint64_t f) { return FakeState{f, 100}; },
      [](const FakeState& s) { return s.bytes; });
  FakeState& s = store.touch(1);
  EXPECT_EQ(store.flows(), 1u);
  EXPECT_EQ(store.used_bytes(), 100u);
  EXPECT_TRUE(store.over_budget());
  EXPECT_EQ(store.evictions(), 0u);
  s.bytes = 30;
  store.touch(1);
  EXPECT_FALSE(store.over_budget());
  EXPECT_EQ(store.used_bytes(), 30u);
}

TEST(RecordingStore, PeakExcludesMidTouchTransient) {
  // Degenerate share (smaller than one entry): inserting flow 2 while the
  // oversized flow 1 is still resident transiently accounts both, but the
  // peak is recorded after the eviction pass, so the documented
  // "peak <= capacity + one entry" bound holds even here.
  RecordingStore<FakeState> store(
      50, [](std::uint64_t f) { return FakeState{f, 100}; },
      [](const FakeState& s) { return s.bytes; });
  store.touch(1);
  store.touch(2);  // mid-touch used_ hits 200; flow 1 evicted before peak
  EXPECT_EQ(store.used_bytes(), 100u);
  EXPECT_EQ(store.peak_used_bytes(), 100u);
  EXPECT_LE(store.peak_used_bytes(),
            store.capacity_bytes() + store.max_entry_bytes());
}

TEST(RecordingStore, OversizedNewcomerEvictsRestThenFlags) {
  auto store = make_store(250);
  store.touch(1);
  store.touch(2);
  FakeState& big = store.touch(3);
  big.bytes = 400;
  store.touch(3);  // re-account: over ceiling; 1 and 2 must go
  EXPECT_EQ(store.flows(), 1u);
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_EQ(store.used_bytes(), 400u);
  EXPECT_TRUE(store.over_budget());
}

TEST(RecordingStore, RefreshBumpsWithoutCreating) {
  auto store = make_store(250);
  EXPECT_EQ(store.refresh(9), nullptr);  // unknown flow: not created
  EXPECT_EQ(store.flows(), 0u);
  store.touch(1);
  store.touch(2);
  EXPECT_NE(store.refresh(1), nullptr);  // 1 is now most recent
  store.touch(3);                        // evicts 2, not 1
  EXPECT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
}

TEST(RecordingStore, ThrowingFactoryLeavesStoreUntouched) {
  auto store = make_store(250);
  store.touch(1);
  EXPECT_THROW(store.touch(2,
                           []() -> FakeState {
                             throw std::runtime_error("recorder factory");
                           }),
               std::runtime_error);
  EXPECT_EQ(store.flows(), 1u);
  EXPECT_EQ(store.used_bytes(), 100u);
  // No dangling LRU node: later eviction passes walk only real entries.
  store.touch(3);
  store.touch(4);  // 300 bytes total: evicts 1
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.flows(), 2u);
  // Retrying the failed key works normally.
  EXPECT_EQ(store.touch(2).flow, 2u);
}

TEST(RecordingStore, PutInsertsOrOverwritesWithAccounting) {
  RecordingStore<FakeState> store(0,
                                  [](const FakeState& s) { return s.bytes; });
  std::ignore = store.put(1, FakeState{1, 100});
  EXPECT_EQ(store.used_bytes(), 100u);
  // overwrite re-accounts, no re-create
  std::ignore = store.put(1, FakeState{1, 30});
  EXPECT_EQ(store.used_bytes(), 30u);
  EXPECT_EQ(store.flows(), 1u);
  EXPECT_EQ(store.created(), 1u);
}

TEST(RecordingStore, ReplaceReaccountsInPlaceKeepingLruPosition) {
  auto store = make_store(300);
  store.touch(1);
  store.touch(2);
  // Replacing the least-recent flow re-accounts it and leaves it
  // least-recent.
  EXPECT_EQ(store.replace(1, FakeState{1, 50}).bytes, 50u);
  EXPECT_EQ(store.used_bytes(), 150u);
  EXPECT_EQ(store.created(), 2u);
  store.touch(3);
  store.touch(4);  // over the ceiling: the LRU tail, flow 1, goes first
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_NE(store.find(2), nullptr);
  EXPECT_THROW((void)store.replace(1, FakeState{1, 10}), std::out_of_range);
  EXPECT_EQ(store.flows(), store.created() - store.evictions());
}

TEST(RecordingStore, FactorylessStoreUsesTouchSiteFactory) {
  RecordingStore<FakeState> store(
      0, [](const FakeState& s) { return s.bytes; });
  FakeState& s = store.touch(5, [] { return FakeState{5, 64}; });
  EXPECT_EQ(s.flow, 5u);
  EXPECT_EQ(store.used_bytes(), 64u);
  EXPECT_THROW(store.touch(6), std::logic_error);  // no stored factory
}

TEST(RecordingStore, PeakStaysWithinCeilingPlusOneEntry) {
  // Heavy-tailed churn: sizes vary 40..360 bytes, most keys are one-shot
  // mice. The transient overshoot of the accounting must never exceed the
  // ceiling by more than the largest single entry.
  const std::size_t kCeiling = 5000;
  RecordingStore<FakeState> store(
      kCeiling,
      [](std::uint64_t f) { return FakeState{f, 40 + (f * 17) % 321}; },
      [](const FakeState& s) { return s.bytes; });
  for (std::uint64_t i = 0; i < 20000; ++i) {
    store.touch(1000 + i);               // one-shot mouse
    FakeState& s = store.touch(i % 5);   // hot flows refresh constantly
    if (i % 100 == 0) s.bytes += 8;      // ...and slowly grow
  }
  EXPECT_GT(store.evictions(), 0u);
  EXPECT_LE(store.used_bytes(), kCeiling + store.max_entry_bytes());
  EXPECT_LE(store.peak_used_bytes(), kCeiling + store.max_entry_bytes());
  // The few hot flows survive the churn.
  for (std::uint64_t f = 0; f < 5; ++f) EXPECT_NE(store.find(f), nullptr);
}

TEST(RecordingStore, EraseFreesBytes) {
  auto store = make_store(0);
  store.touch(1);
  store.touch(2);
  EXPECT_TRUE(store.erase(1));
  EXPECT_FALSE(store.erase(1));
  EXPECT_EQ(store.used_bytes(), 100u);
  EXPECT_EQ(store.flows(), 1u);
}

TEST(RecordingStore, ManyFlowsChurn) {
  auto store = make_store(100 * 100);  // 100 flows
  for (std::uint64_t f = 0; f < 1000; ++f) store.touch(f);
  EXPECT_EQ(store.flows(), 100u);
  EXPECT_EQ(store.evictions(), 900u);
  // The survivors are the 100 most recent.
  for (std::uint64_t f = 900; f < 1000; ++f) EXPECT_NE(store.find(f), nullptr);
  EXPECT_EQ(store.find(0), nullptr);
}

// --- INT spec ----------------------------------------------------------------

TEST(IntSpec, BitmapAndValueCount) {
  IntInstructionHeader h;
  h.request(IntInstruction::kSwitchId);
  h.request(IntInstruction::kQueueOccupancy);
  h.request(IntInstruction::kEgressTxUtilization);
  EXPECT_TRUE(h.requests(IntInstruction::kSwitchId));
  EXPECT_FALSE(h.requests(IntInstruction::kHopLatency));
  EXPECT_EQ(h.values_per_hop(), 3u);
}

TEST(IntSpec, PushPopRoundTrip) {
  IntInstructionHeader h;
  h.request(IntInstruction::kSwitchId);
  h.request(IntInstruction::kHopLatency);
  IntPacketState pkt(h);
  for (std::uint32_t hop = 1; hop <= 5; ++hop) {
    IntHopView view;
    view.switch_id = 100 + hop;
    view.hop_latency = 1000 * hop;
    ASSERT_TRUE(pkt.push_hop(view));
  }
  // 8B header + 5 hops * 2 values * 4B = 48B (the paper's Fig. 1 midpoint).
  EXPECT_EQ(pkt.wire_bytes(), 48);
  const auto records = pkt.pop_all();
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 5u);
  for (std::uint32_t hop = 1; hop <= 5; ++hop) {
    EXPECT_EQ((*records)[hop - 1].values[0], 100 + hop);     // switch id
    EXPECT_EQ((*records)[hop - 1].values[1], 1000 * hop);    // latency
  }
}

TEST(IntSpec, MaxHopsEnforced) {
  IntInstructionHeader h;
  h.request(IntInstruction::kSwitchId);
  h.max_hops = 2;
  IntPacketState pkt(h);
  EXPECT_TRUE(pkt.push_hop({}));
  EXPECT_TRUE(pkt.push_hop({}));
  EXPECT_FALSE(pkt.push_hop({}));  // spec overflow rule: stop appending
  EXPECT_EQ(pkt.header().hop_count, 2u);
}

TEST(IntSpec, OverheadMatchesSection2Numbers) {
  IntInstructionHeader one;
  one.request(IntInstruction::kSwitchId);
  IntPacketState p1(one);
  for (int i = 0; i < 5; ++i) p1.push_hop({});
  EXPECT_EQ(p1.wire_bytes(), 28);  // "minimum space required ... 28 bytes"

  IntInstructionHeader five;
  for (unsigned b = 0; b < 5; ++b) five.request(static_cast<IntInstruction>(b));
  IntPacketState p5(five);
  for (int i = 0; i < 5; ++i) p5.push_hop({});
  EXPECT_EQ(p5.wire_bytes(), 108);
}

// --- LT codes ----------------------------------------------------------------

TEST(LtCode, SolitonCdfIsMonotoneAndComplete) {
  RobustSoliton rs(50);
  const auto& cdf = rs.cdf();
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
}

TEST(LtCode, DegreeOneExistsOftenEnough) {
  // The soliton distribution must emit degree-1 packets to bootstrap.
  RobustSoliton rs(50);
  GlobalHash h(1);
  int degree_one = 0;
  for (PacketId p = 0; p < 10000; ++p) degree_one += (rs.degree(h, p) == 1);
  EXPECT_GT(degree_one, 100);
}

TEST(LtCode, DecodesNearOptimal) {
  const unsigned k = 50;
  std::vector<std::uint64_t> blocks(k);
  for (unsigned i = 0; i < k; ++i) blocks[i] = mix64(900 + i);
  double total = 0.0;
  const int reps = 20;
  for (int r = 0; r < reps; ++r) {
    GlobalHash root(7100 + r);
    LtEncoder enc(k, root);
    LtDecoder dec(k, root);
    PacketId p = 1;
    while (!dec.complete() && p < 10000) {
      dec.add_packet(p, enc.encode(p, blocks));
      ++p;
    }
    ASSERT_TRUE(dec.complete());
    EXPECT_EQ(dec.message(), blocks);
    total += static_cast<double>(p - 1);
  }
  // LT overhead is typically within ~2x of k for small k (asymptotically
  // k + O(sqrt(k) log^2)); the point is it beats coupon collecting (k ln k
  // ~ 196 here) because a single encoder controls the degree distribution.
  EXPECT_LT(total / reps, 150.0);
}

TEST(LtCode, EncoderDecoderAgreeOnNeighbors) {
  GlobalHash root(8200);
  LtEncoder a(30, root), b(30, root);
  for (PacketId p = 1; p <= 500; ++p) {
    EXPECT_EQ(a.neighbors(p), b.neighbors(p));
  }
}

}  // namespace
}  // namespace pint
