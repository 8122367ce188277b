#include "coding/hashed_decoder.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace pint {

HashedDecoderTables::HashedDecoderTables(unsigned digest_bits,
                                         unsigned instance_count,
                                         SchemeConfig layers,
                                         const GlobalHash& root,
                                         std::vector<std::uint64_t> values)
    : bits(digest_bits), instances(instance_count), scheme(std::move(layers)),
      universe(std::move(values)),
      words_per_hop((universe.size() + 63) / 64) {
  if (bits == 0 || bits > 64) throw std::invalid_argument("bits in [1,64]");
  if (instances == 0) throw std::invalid_argument("instances > 0");
  if (universe.empty()) throw std::invalid_argument("universe nonempty");
  hashes.reserve(instances);
  for (unsigned inst = 0; inst < instances; ++inst) {
    hashes.push_back(make_instance_hashes(root, inst));
  }
}

HashedPathDecoder::HashedPathDecoder(
    unsigned k, std::shared_ptr<const HashedDecoderTables> tables)
    : tables_(std::move(tables)), k_(k) {
  if (k == 0) throw std::invalid_argument("k > 0");
  if (tables_ == nullptr) throw std::invalid_argument("tables required");
  const std::size_t words = tables_->words_per_hop;
  const auto tail = static_cast<unsigned>(tables_->universe.size() % 64);
  candidates_ = std::make_unique_for_overwrite<std::uint64_t[]>(k * words);
  for (HopIndex hop = 1; hop <= k; ++hop) {
    std::uint64_t* set = hop_set(hop);
    std::fill(set, set + words, ~std::uint64_t{0});
    if (tail != 0) set[words - 1] = low_bits_mask(tail);
  }
  // Degenerate universe: every hop starts resolved, nothing to learn.
  if (tables_->universe.size() == 1) resolved_ = k;
}

HashedPathDecoder::HashedPathDecoder(HashedDecoderConfig cfg,
                                     const GlobalHash& root,
                                     std::vector<std::uint64_t> universe)
    : HashedPathDecoder(
          cfg.k, std::make_shared<const HashedDecoderTables>(
              cfg.bits, cfg.instances, std::move(cfg.scheme), root,
              std::move(universe))) {}

bool HashedPathDecoder::resolved(HopIndex hop) const {
  const std::uint64_t* set = hop_set(hop);
  int seen = 0;
  for (std::size_t w = 0; w < tables_->words_per_hop; ++w) {
    seen += std::popcount(set[w]);
    if (seen > 1) return false;
  }
  return seen == 1;
}

std::uint64_t HashedPathDecoder::sole_value(HopIndex hop) const {
  const std::uint64_t* set = hop_set(hop);
  std::size_t w = 0;
  while (set[w] == 0) ++w;
  return tables_->universe[w * 64 + std::countr_zero(set[w])];
}

unsigned HashedPathDecoder::add_packet(PacketId packet,
                                       std::span<const Digest> digests) {
  const HashedDecoderTables& t = *tables_;
  if (digests.size() != t.instances)
    throw std::invalid_argument("one digest lane per instance expected");
  ++packets_;
  unsigned newly = 0;
  for (unsigned inst = 0; inst < t.instances; ++inst) {
    const InstanceHashes& h = t.hashes[inst];
    const unsigned layer = select_layer(t.scheme, h.layer, packet);
    if (layer == 0) {
      const HopIndex carrier = baseline_carrier(h.g, packet, k_);
      newly += filter_hop(carrier, inst, packet, digests[inst]);
      continue;
    }
    Digest residual = digests[inst];
    const std::size_t first = unknown_hops_.size();
    for (HopIndex i : xor_layer_hops(t.scheme, h, packet, k_, layer)) {
      if (resolved(i)) {
        residual ^= h.value.digest2(sole_value(i), packet, t.bits);
      } else {
        unknown_hops_.push_back(i);
      }
    }
    const std::size_t unknown = unknown_hops_.size() - first;
    if (unknown == 0) continue;
    if (unknown == 1) {
      const HopIndex hop = unknown_hops_.back();
      unknown_hops_.pop_back();
      newly += filter_hop(hop, inst, packet, residual);
      continue;
    }
    records_.push_back(XorRecord{packet, residual, inst,
                                 static_cast<std::uint32_t>(first),
                                 static_cast<std::uint32_t>(unknown)});
  }
  if (complete() && records_.capacity() != 0) {
    records_ = {};
    unknown_hops_ = {};
  }
  return newly;
}

unsigned HashedPathDecoder::filter_hop(HopIndex hop, unsigned inst,
                                       PacketId packet, Digest digest) {
  if (resolved(hop)) return 0;
  const HashedDecoderTables& t = *tables_;
  const InstanceHashes& h = t.hashes[inst];
  std::uint64_t* set = hop_set(hop);
  int survivors = 0;
  for (std::size_t w = 0; w < t.words_per_hop; ++w) {
    std::uint64_t keep = set[w];
    for (std::uint64_t rest = keep; rest != 0; rest &= rest - 1) {
      const int bit = std::countr_zero(rest);
      if (h.value.digest2(t.universe[w * 64 + bit], packet, t.bits) !=
          digest) {
        keep &= ~(std::uint64_t{1} << bit);
      }
    }
    set[w] = keep;
    survivors += std::popcount(keep);
  }
  if (survivors == 0) {
    throw InconsistentDigestsError(
        "inconsistent digests: no candidate survives (wrong universe, path "
        "length, or corrupted packets)");
  }
  if (survivors == 1) return on_resolved(hop);
  return 0;
}

unsigned HashedPathDecoder::on_resolved(HopIndex hop) {
  unsigned newly = 1;
  ++resolved_;
  const std::uint64_t value = sole_value(hop);
  // Records are visited in arrival order. The cascade below never adds a
  // record, and only this call removes `hop` from one, so every record
  // holding `hop` when the call starts is peeled exactly once.
  for (XorRecord& rec : records_) {
    HopIndex* begin = unknown_hops_.data() + rec.first;
    HopIndex* end = begin + rec.unknown;
    HopIndex* pos = std::find(begin, end, hop);
    if (pos == end) continue;
    *pos = *(end - 1);
    --rec.unknown;
    rec.residual ^= tables_->hashes[rec.instance].value.digest2(
        value, rec.packet, tables_->bits);
    if (rec.unknown == 1) {
      newly += filter_hop(unknown_hops_[rec.first], rec.instance, rec.packet,
                          rec.residual);
    }
  }
  return newly;
}

std::optional<std::uint64_t> HashedPathDecoder::value_at(HopIndex hop) const {
  if (resolved(hop)) return sole_value(hop);
  return std::nullopt;
}

std::size_t HashedPathDecoder::approx_bytes() const {
  return sizeof(*this) +
         heap_block_bytes(k_ * tables_->words_per_hop *
                          sizeof(std::uint64_t)) +
         heap_block_bytes(records_.capacity() * sizeof(XorRecord)) +
         heap_block_bytes(unknown_hops_.capacity() * sizeof(HopIndex));
}

std::vector<std::uint64_t> HashedPathDecoder::path() const {
  if (!complete()) throw std::runtime_error("path not fully decoded");
  std::vector<std::uint64_t> out;
  out.reserve(k_);
  for (HopIndex hop = 1; hop <= k_; ++hop) out.push_back(sole_value(hop));
  return out;
}

}  // namespace pint
