// Hashed-value path decoder (paper Section 4.2, "Reducing the Bit-overhead
// using Hashing").
//
// When the digest is narrower than a value, hop i writes h(M_i, packet)
// instead of M_i. The decoder knows the finite value universe V (e.g. all
// switch IDs in the network) and keeps, per hop, the set of candidate values
// consistent with every Baseline packet observed from that hop. A hop is
// resolved when exactly one candidate survives. XOR packets are stored and
// peeled: once all-but-one of a packet's participant hops are resolved, the
// residual digest acts like one more Baseline observation for the remaining
// hop.
//
// Multiple instantiations (Section 4.2) run `instances` independent scheme
// copies whose observations all narrow the *shared* per-hop candidate sets,
// which is why 2 x (b=8) outperforms 1 x (b=16) in packets-to-decode.
//
// Memory layout: everything that is the same for every flow of a query —
// digest width, scheme, per-instance hashes and V itself — lives in one
// immutable HashedDecoderTables shared by all of that query's decoders. A
// decoder owns only its candidate sets, held as one bitmap over the indices
// of V (|V| bits per hop) in one allocation, and the XOR records it has not
// yet peeled, which it frees once the path is complete.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "coding/encoder.h"
#include "coding/scheme.h"
#include "common/types.h"

namespace pint {

struct HashedDecoderConfig {
  unsigned k = 0;          // path length
  unsigned bits = 8;       // digest bits per instance (1..64)
  unsigned instances = 1;  // independent scheme copies
  SchemeConfig scheme;
};

/// Thrown by HashedPathDecoder::add_packet when a hop's candidate set runs
/// empty: the digests do not fit one path over the universe (wrong
/// universe or path length, corrupted packets, or a flow that moved to
/// another path mid-decode). The decoder's state is then unusable.
class InconsistentDigestsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Immutable decode-side state shared by every decoder of one query.
struct HashedDecoderTables {
  /// Validates `digest_bits` in [1,64], `instance_count` > 0 and a
  /// nonempty `values`; throws std::invalid_argument otherwise.
  HashedDecoderTables(unsigned digest_bits, unsigned instance_count,
                      SchemeConfig layers, const GlobalHash& root,
                      std::vector<std::uint64_t> values);

  unsigned bits;
  unsigned instances;
  SchemeConfig scheme;
  std::vector<InstanceHashes> hashes;   // one per instance
  std::vector<std::uint64_t> universe;  // V; bit j of a hop's set = V[j]
  std::size_t words_per_hop;            // ceil(|V| / 64)
};

class HashedPathDecoder {
 public:
  /// A decoder for a `k`-hop path over shared `tables` (k > 0).
  HashedPathDecoder(unsigned k,
                    std::shared_ptr<const HashedDecoderTables> tables);

  /// Standalone form: builds private tables from `cfg`, `root` and
  /// `universe` (all possible block values, e.g. every switch ID).
  HashedPathDecoder(HashedDecoderConfig cfg, const GlobalHash& root,
                    std::vector<std::uint64_t> universe);

  // Feed one packet; `digests` has one lane per instance.
  // Returns the number of hops newly resolved. Throws
  // InconsistentDigestsError when no candidate of some hop survives.
  unsigned add_packet(PacketId packet, std::span<const Digest> digests);

  bool complete() const { return resolved_ == k_; }
  unsigned resolved_count() const { return resolved_; }
  unsigned k() const { return k_; }

  std::optional<std::uint64_t> value_at(HopIndex hop) const;
  std::vector<std::uint64_t> path() const;  // requires complete()

  std::uint64_t packets_consumed() const { return packets_; }

  const HashedDecoderTables& tables() const { return *tables_; }

  // Heap + object footprint in bytes, for the Recording Module's memory
  // accounting: the object, its candidate bitmap and its buffered XOR
  // records (released once the path is complete). The shared tables are
  // not charged to any one flow.
  std::size_t approx_bytes() const;

 private:
  // A stored XOR packet with two or more unresolved participants. Its
  // unresolved hops are unknown_hops_[first, first + unknown), in no
  // particular order.
  struct XorRecord {
    PacketId packet;
    Digest residual;
    std::uint32_t instance;
    std::uint32_t first;
    std::uint32_t unknown;
  };

  std::uint64_t* hop_set(HopIndex hop) {
    return candidates_.get() + (hop - 1) * tables_->words_per_hop;
  }
  const std::uint64_t* hop_set(HopIndex hop) const {
    return candidates_.get() + (hop - 1) * tables_->words_per_hop;
  }
  bool resolved(HopIndex hop) const;             // exactly one candidate
  std::uint64_t sole_value(HopIndex hop) const;  // requires resolved(hop)

  // Keep only candidates v of `hop` with h(v, packet) == digest under
  // instance `inst`; returns resolved hops triggered (cascade).
  unsigned filter_hop(HopIndex hop, unsigned inst, PacketId packet,
                      Digest digest);
  unsigned on_resolved(HopIndex hop);

  std::shared_ptr<const HashedDecoderTables> tables_;
  // The k x words_per_hop candidate bitmap, hop-major.
  std::unique_ptr<std::uint64_t[]> candidates_;
  unsigned k_;
  unsigned resolved_ = 0;
  std::uint64_t packets_ = 0;
  std::vector<XorRecord> records_;
  std::vector<HopIndex> unknown_hops_;
};

}  // namespace pint
