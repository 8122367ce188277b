#include "pint/static_aggregation.h"

#include <stdexcept>

namespace pint {

SchemeConfig make_scheme(SchemeVariant variant, unsigned d) {
  switch (variant) {
    case SchemeVariant::kBaseline:
      return make_baseline_scheme();
    case SchemeVariant::kXor:
      return make_xor_scheme(d);
    case SchemeVariant::kHybrid:
      return make_hybrid_scheme(d);
    case SchemeVariant::kMultiLayer:
      return make_multilayer_scheme(d);
    case SchemeVariant::kMultiLayerRevised:
      return make_multilayer_scheme_revised(d);
  }
  throw std::invalid_argument("unknown scheme variant");
}

PathTracingQuery::PathTracingQuery(PathTracingConfig config,
                                   std::uint64_t seed)
    : config_(config),
      scheme_(make_scheme(config.variant, config.d)),
      root_(seed) {
  if (config.bits == 0 || config.bits > 64)
    throw std::invalid_argument("bits in [1,64]");
  if (config.instances == 0) throw std::invalid_argument("instances > 0");
  hashes_.reserve(config.instances);
  for (unsigned inst = 0; inst < config.instances; ++inst) {
    hashes_.push_back(make_instance_hashes(root_, inst));
  }
}

void PathTracingQuery::encode(PacketId packet, HopIndex i, SwitchId sid,
                              std::span<Digest> lanes) const {
  if (lanes.size() != config_.instances)
    throw std::invalid_argument("one lane per instance expected");
  for (unsigned inst = 0; inst < config_.instances; ++inst) {
    lanes[inst] = encode_step(scheme_, hashes_[inst], packet, i, lanes[inst],
                              sid, config_.bits);
  }
}

std::shared_ptr<const HashedDecoderTables> PathTracingQuery::decoder_tables(
    std::vector<std::uint64_t> universe) const {
  return std::make_shared<const HashedDecoderTables>(
      config_.bits, config_.instances, scheme_, root_, std::move(universe));
}

HashedPathDecoder PathTracingQuery::make_decoder(
    unsigned k, std::shared_ptr<const HashedDecoderTables> tables) const {
  if (tables == nullptr || tables->bits != config_.bits ||
      tables->instances != config_.instances) {
    throw std::invalid_argument("decoder tables from a different query");
  }
  return HashedPathDecoder(k, std::move(tables));
}

HashedPathDecoder PathTracingQuery::make_decoder(
    unsigned k, std::vector<std::uint64_t> universe) const {
  return HashedPathDecoder(k, decoder_tables(std::move(universe)));
}

}  // namespace pint
