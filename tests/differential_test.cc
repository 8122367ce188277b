// Differential tests: the compact per-flow state (slot-array SpaceSaving,
// bitmap HashedPathDecoder) against straightforward reference models kept
// here — a hash-map + count-multimap SpaceSaving and a decoder holding one
// candidate vector per hop. Both sides must agree on every observable after
// every update, including tie-breaks and the inconsistent-digest throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "coding/encoder.h"
#include "coding/hashed_decoder.h"
#include "coding/scheme.h"
#include "common/rng.h"
#include "hash/global_hash.h"
#include "sketch/space_saving.h"

namespace pint {
namespace {

// --- SpaceSaving ------------------------------------------------------------

// Reference SpaceSaving: values in a hash map, an ordered count -> value
// multimap for the victim. The multimap keeps equal counts in insertion
// order, so the victim is the value that reached the minimum count first.
class RefSpaceSaving {
 public:
  explicit RefSpaceSaving(std::size_t capacity) : capacity_(capacity) {}

  void add(std::uint64_t value) {
    ++total_;
    auto it = counters_.find(value);
    if (it != counters_.end()) {
      auto range = by_count_.equal_range(it->second.count);
      for (auto bi = range.first; bi != range.second; ++bi) {
        if (bi->second == value) {
          by_count_.erase(bi);
          break;
        }
      }
      ++it->second.count;
      by_count_.emplace(it->second.count, value);
      return;
    }
    if (counters_.size() < capacity_) {
      counters_.emplace(value, Entry{1, 0});
      by_count_.emplace(1, value);
      return;
    }
    auto min_it = by_count_.begin();
    const std::uint64_t evicted = min_it->second;
    const std::uint64_t min_count = min_it->first;
    by_count_.erase(min_it);
    counters_.erase(evicted);
    counters_.emplace(value, Entry{min_count + 1, min_count});
    by_count_.emplace(min_count + 1, value);
  }

  std::uint64_t estimate(std::uint64_t value) const {
    auto it = counters_.find(value);
    return it == counters_.end() ? 0 : it->second.count;
  }

  std::uint64_t lower_bound(std::uint64_t value) const {
    auto it = counters_.find(value);
    return it == counters_.end() ? 0 : it->second.count - it->second.error;
  }

  std::vector<std::uint64_t> frequent(double theta) const {
    std::vector<std::uint64_t> out;
    const double cut = theta * static_cast<double>(total_);
    for (const auto& [value, entry] : counters_) {
      if (static_cast<double>(entry.count) >= cut) out.push_back(value);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::size_t monitored() const { return counters_.size(); }

 private:
  struct Entry {
    std::uint64_t count;
    std::uint64_t error;
  };
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::unordered_map<std::uint64_t, Entry> counters_;
  std::multimap<std::uint64_t, std::uint64_t> by_count_;
};

// Feeds `stream` to both sketches and compares every observable over
// values [0, domain) after each add.
void expect_same_sketch(std::size_t capacity,
                        const std::vector<std::uint64_t>& stream,
                        std::uint64_t domain) {
  SpaceSaving fast(capacity);
  RefSpaceSaving ref(capacity);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    fast.add(stream[i]);
    ref.add(stream[i]);
    ASSERT_EQ(fast.monitored(), ref.monitored()) << "add " << i;
    for (std::uint64_t v = 0; v < domain; ++v) {
      ASSERT_EQ(fast.estimate(v), ref.estimate(v))
          << "capacity " << capacity << " add " << i << " value " << v;
      ASSERT_EQ(fast.lower_bound(v), ref.lower_bound(v))
          << "capacity " << capacity << " add " << i << " value " << v;
    }
    for (const double theta : {0.0, 0.01, 0.1, 0.3}) {
      ASSERT_EQ(fast.frequent(theta), ref.frequent(theta))
          << "capacity " << capacity << " add " << i << " theta " << theta;
    }
  }
}

TEST(SpaceSavingDifferential, RandomStreamsMatchReference) {
  for (const std::size_t capacity : {1u, 3u, 8u, 64u}) {
    for (const std::uint64_t domain : {4u, 40u, 300u}) {
      Rng rng(capacity * 1000 + domain);
      std::vector<std::uint64_t> stream(1500);
      for (auto& v : stream) v = rng.uniform_int(domain);
      expect_same_sketch(capacity, stream, domain);
    }
  }
}

TEST(SpaceSavingDifferential, TieHeavyStreamsMatchReference) {
  // Round-robin over more values than counters: every eviction is a tie
  // among many minimum-count slots, so the victim order is what is tested.
  for (const std::size_t capacity : {2u, 5u, 16u}) {
    std::vector<std::uint64_t> stream;
    for (int round = 0; round < 40; ++round) {
      for (std::uint64_t v = 0; v < capacity + 3; ++v) stream.push_back(v);
    }
    expect_same_sketch(capacity, stream, capacity + 3);
    // Bursts: runs of one value, then a sweep of fresh values that all
    // tie at the minimum.
    std::vector<std::uint64_t> bursty;
    Rng rng(capacity);
    for (int round = 0; round < 60; ++round) {
      const std::uint64_t hot = rng.uniform_int(6);
      for (int j = 0; j < 3; ++j) bursty.push_back(hot);
      for (std::uint64_t v = 0; v < capacity; ++v) {
        bursty.push_back(10 + (round + v) % (2 * capacity));
      }
    }
    expect_same_sketch(capacity, bursty, 10 + 2 * capacity);
  }
}

// --- HashedPathDecoder -------------------------------------------------------

// Reference decoder: one candidate vector per hop, filtered in place; XOR
// records index their unresolved hops through a hop -> records map.
class RefDecoder {
 public:
  RefDecoder(HashedDecoderConfig cfg, const GlobalHash& root,
             std::vector<std::uint64_t> universe)
      : cfg_(cfg) {
    for (unsigned inst = 0; inst < cfg.instances; ++inst) {
      hashes_.push_back(make_instance_hashes(root, inst));
    }
    candidates_.assign(cfg.k, universe);
    if (universe.size() == 1) resolved_ = cfg.k;
  }

  unsigned add_packet(PacketId packet, std::span<const Digest> digests) {
    unsigned newly = 0;
    for (unsigned inst = 0; inst < cfg_.instances; ++inst) {
      const InstanceHashes& h = hashes_[inst];
      const unsigned layer = select_layer(cfg_.scheme, h.layer, packet);
      if (layer == 0) {
        newly += filter_hop(baseline_carrier(h.g, packet, cfg_.k), inst,
                            packet, digests[inst]);
        continue;
      }
      Record rec{packet, inst, digests[inst], {}};
      for (HopIndex i :
           xor_layer_hops(cfg_.scheme, h, packet, cfg_.k, layer)) {
        if (candidates_[i - 1].size() == 1) {
          rec.residual ^=
              h.value.digest2(candidates_[i - 1][0], packet, cfg_.bits);
        } else {
          rec.unknown.push_back(i);
        }
      }
      if (rec.unknown.empty()) continue;
      if (rec.unknown.size() == 1) {
        newly += filter_hop(rec.unknown[0], inst, packet, rec.residual);
        continue;
      }
      const std::size_t idx = records_.size();
      records_.push_back(std::move(rec));
      for (HopIndex i : records_[idx].unknown) {
        hop_to_records_[i].push_back(idx);
      }
    }
    return newly;
  }

  bool complete() const { return resolved_ == cfg_.k; }
  unsigned resolved_count() const { return resolved_; }

  std::optional<std::uint64_t> value_at(HopIndex hop) const {
    const auto& cands = candidates_[hop - 1];
    if (cands.size() == 1) return cands[0];
    return std::nullopt;
  }

  std::vector<std::uint64_t> path() const {
    std::vector<std::uint64_t> out;
    for (const auto& cands : candidates_) out.push_back(cands[0]);
    return out;
  }

 private:
  struct Record {
    PacketId packet;
    unsigned instance;
    Digest residual;
    std::vector<HopIndex> unknown;
  };

  unsigned filter_hop(HopIndex hop, unsigned inst, PacketId packet,
                      Digest digest) {
    auto& cands = candidates_[hop - 1];
    if (cands.size() == 1) return 0;
    const InstanceHashes& h = hashes_[inst];
    std::erase_if(cands, [&](std::uint64_t v) {
      return h.value.digest2(v, packet, cfg_.bits) != digest;
    });
    if (cands.empty()) throw std::runtime_error("inconsistent digests");
    if (cands.size() == 1) return on_resolved(hop);
    return 0;
  }

  unsigned on_resolved(HopIndex hop) {
    unsigned newly = 1;
    ++resolved_;
    const std::uint64_t value = candidates_[hop - 1][0];
    auto it = hop_to_records_.find(hop);
    if (it == hop_to_records_.end()) return newly;
    const std::vector<std::size_t> affected = it->second;
    hop_to_records_.erase(it);
    for (std::size_t idx : affected) {
      Record& rec = records_[idx];
      auto pos = std::find(rec.unknown.begin(), rec.unknown.end(), hop);
      if (pos == rec.unknown.end()) continue;
      rec.unknown.erase(pos);
      rec.residual ^=
          hashes_[rec.instance].value.digest2(value, rec.packet, cfg_.bits);
      if (rec.unknown.size() == 1) {
        newly += filter_hop(rec.unknown[0], rec.instance, rec.packet,
                            rec.residual);
      }
    }
    return newly;
  }

  HashedDecoderConfig cfg_;
  std::vector<InstanceHashes> hashes_;
  std::vector<std::vector<std::uint64_t>> candidates_;
  unsigned resolved_ = 0;
  std::vector<Record> records_;
  std::unordered_map<HopIndex, std::vector<std::size_t>> hop_to_records_;
};

struct DecoderCase {
  std::size_t universe_size;
  unsigned instances;
  unsigned k;
  unsigned bits;
  SchemeConfig scheme;
  std::string label;
};

enum class Outcome { kComplete, kThrew, kUnfinished };

// Runs both decoders over the same packets and compares every observable
// after each one. With `corrupt_every` > 0, every such packet carries
// random digests instead of the path's, so decoding eventually hits an
// inconsistent digest; both sides must throw on the same packet.
Outcome expect_same_decoder(const DecoderCase& c, std::uint64_t seed,
                            unsigned corrupt_every) {
  SCOPED_TRACE(c.label + " |V|=" + std::to_string(c.universe_size) +
               " instances=" + std::to_string(c.instances) +
               " k=" + std::to_string(c.k) + " seed=" + std::to_string(seed));
  std::vector<std::uint64_t> universe(c.universe_size);
  for (std::size_t j = 0; j < universe.size(); ++j) {
    universe[j] = mix64(seed * 7919 + j) | 1;  // arbitrary, distinct
  }
  Rng rng(seed);
  std::vector<std::uint64_t> path(c.k);
  for (auto& v : path) v = universe[rng.uniform_int(universe.size())];

  const GlobalHash root(seed ^ 0xD1FF);
  HashedDecoderConfig cfg;
  cfg.k = c.k;
  cfg.bits = c.bits;
  cfg.instances = c.instances;
  cfg.scheme = c.scheme;
  HashedPathDecoder fast(cfg, root, universe);
  RefDecoder ref(cfg, root, universe);
  std::vector<InstanceHashes> hashes;
  for (unsigned inst = 0; inst < c.instances; ++inst) {
    hashes.push_back(make_instance_hashes(root, inst));
  }

  std::vector<Digest> digests(c.instances);
  for (PacketId packet = 1; packet <= 3000; ++packet) {
    const bool corrupt = corrupt_every != 0 && packet % corrupt_every == 0;
    for (unsigned inst = 0; inst < c.instances; ++inst) {
      digests[inst] = corrupt ? rng.next() & low_bits_mask(c.bits)
                              : encode_path(c.scheme, hashes[inst], packet,
                                            path, c.bits);
    }
    unsigned fast_newly = 0;
    unsigned ref_newly = 0;
    bool fast_threw = false;
    bool ref_threw = false;
    try {
      fast_newly = fast.add_packet(packet, digests);
    } catch (const std::runtime_error&) {
      fast_threw = true;
    }
    try {
      ref_newly = ref.add_packet(packet, digests);
    } catch (const std::runtime_error&) {
      ref_threw = true;
    }
    EXPECT_EQ(fast_threw, ref_threw) << "packet " << packet;
    if (fast_threw || ref_threw) return Outcome::kThrew;
    EXPECT_EQ(fast_newly, ref_newly) << "packet " << packet;
    EXPECT_EQ(fast.resolved_count(), ref.resolved_count())
        << "packet " << packet;
    EXPECT_EQ(fast.complete(), ref.complete()) << "packet " << packet;
    for (HopIndex hop = 1; hop <= c.k; ++hop) {
      EXPECT_EQ(fast.value_at(hop), ref.value_at(hop))
          << "packet " << packet << " hop " << hop;
    }
    if (::testing::Test::HasFailure()) return Outcome::kUnfinished;
    if (fast.complete()) {
      EXPECT_EQ(fast.path(), ref.path());
      if (corrupt_every == 0) {
        EXPECT_EQ(fast.path(), path);
      }
      return Outcome::kComplete;
    }
  }
  return Outcome::kUnfinished;
}

std::vector<DecoderCase> decoder_cases() {
  std::vector<DecoderCase> cases;
  for (const std::size_t universe_size : {1u, 63u, 64u, 65u, 200u}) {
    for (const unsigned instances : {1u, 2u}) {
      for (const unsigned k : {1u, 5u, 12u}) {
        cases.push_back({universe_size, instances, k, 8,
                         make_multilayer_scheme(k), "multilayer b=8"});
        cases.push_back({universe_size, instances, k, 4,
                         make_xor_scheme(k), "xor b=4"});
        cases.push_back({universe_size, instances, k, 3,
                         make_hybrid_scheme(k), "hybrid b=3"});
        cases.push_back({universe_size, instances, k, 6,
                         make_fast(make_multilayer_scheme(k)),
                         "multilayer fast b=6"});
      }
    }
  }
  return cases;
}

TEST(HashedDecoderDifferential, TrajectoryMatchesCandidateVectorReference) {
  std::size_t runs = 0;
  std::size_t completed = 0;
  for (const DecoderCase& c : decoder_cases()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ++runs;
      completed += expect_same_decoder(c, seed, /*corrupt_every=*/0) ==
                   Outcome::kComplete;
      if (HasFailure()) return;
    }
  }
  // Clean digests decode: every run reaches a complete path.
  EXPECT_EQ(completed, runs);
}

TEST(HashedDecoderDifferential, InconsistentDigestThrowMatchesReference) {
  std::size_t threw = 0;
  for (const DecoderCase& c : decoder_cases()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      threw += expect_same_decoder(c, seed, /*corrupt_every=*/5) ==
               Outcome::kThrew;
      if (HasFailure()) return;
    }
  }
  // Corruption is caught in most runs (a run can still complete first,
  // and |V| = 1 never has anything to contradict).
  EXPECT_GT(threw, decoder_cases().size());
}

TEST(HashedDecoderDifferential, SharedTablesDecodeLikePrivateTables) {
  // Decoders built over one shared table set behave exactly like decoders
  // that own a private copy.
  std::vector<std::uint64_t> universe;
  for (std::uint64_t s = 1; s <= 100; ++s) universe.push_back(s * 3);
  const GlobalHash root(0x5AB1E);
  HashedDecoderConfig cfg;
  cfg.k = 6;
  cfg.bits = 5;
  cfg.scheme = make_multilayer_scheme(cfg.k);
  const auto tables = std::make_shared<const HashedDecoderTables>(
      cfg.bits, cfg.instances, cfg.scheme, root, universe);
  const std::vector<std::uint64_t> path = {3, 42, 300, 9, 3, 150};
  const InstanceHashes h = make_instance_hashes(root, 0);
  HashedPathDecoder shared_a(cfg.k, tables);
  HashedPathDecoder shared_b(cfg.k, tables);
  HashedPathDecoder own(cfg, root, universe);
  for (PacketId packet = 1; !own.complete() && packet < 2000; ++packet) {
    const Digest d = encode_path(cfg.scheme, h, packet, path, cfg.bits);
    const unsigned own_newly = own.add_packet(packet, std::span(&d, 1));
    EXPECT_EQ(shared_a.add_packet(packet, std::span(&d, 1)), own_newly);
    EXPECT_EQ(shared_b.add_packet(packet, std::span(&d, 1)), own_newly);
  }
  ASSERT_TRUE(own.complete());
  EXPECT_EQ(shared_a.path(), path);
  EXPECT_EQ(shared_b.path(), path);
  EXPECT_EQ(&shared_a.tables(), &shared_b.tables());
}

}  // namespace
}  // namespace pint
