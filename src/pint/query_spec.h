/// \file
/// QuerySpec: everything the framework needs to run one query.
///
/// The Query (query.h) is the paper's declarative tuple; a QuerySpec adds the
/// per-module tuning for whichever aggregation type the query uses, plus an
/// optional factory for the sink-side recorder so applications control how
/// dynamic samples are retained (raw, sketched, windowed...) without the
/// framework knowing the difference. The Builder keeps a registry of specs
/// keyed by query name.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "pint/dynamic_aggregation.h"
#include "pint/perpacket_aggregation.h"
#include "pint/policy.h"
#include "pint/query.h"
#include "pint/static_aggregation.h"

namespace pint {

/// Builds the per-flow recorder for a dynamic per-flow query. `k` is the
/// flow's path length and the recorder must cover exactly `k` hops: the
/// sink rebuilds a flow's recorder whenever its k() differs from a
/// packet's path length (a rerouted flow). `seed` is derived per
/// (query, flow).
using RecorderFactory =
    std::function<FlowLatencyRecorder(unsigned k, std::uint64_t seed)>;

struct QuerySpec {
  Query query;

  /// Module tuning; only the struct matching query.aggregation is used. The
  /// digest widths inside are synced to query.bit_budget at build time.
  PathTracingConfig path;
  DynamicAggregationConfig dynamic;
  PerPacketConfig perpacket;

  /// Optional; defaults to FlowLatencyRecorder(k, query.space_budget_bytes,
  /// seed). Only consulted for dynamic per-flow queries.
  RecorderFactory recorder_factory;

  /// Optional Recording-Module storage budget (bytes) for this query's
  /// per-flow state across *all* flows; 0 means "share the Builder's
  /// memory_ceiling_bytes() remainder" (or stay unbounded when no ceiling is
  /// set either). Setting it on a per-packet query — which keeps no sink
  /// state — or over-committing the ceiling is a kInconsistentMemoryBudget
  /// build error.
  std::size_t memory_budget_bytes = 0;

  /// Admission/eviction policy for this query's sink-side stores
  /// (pint/policy.h). Unset inherits the Builder's default_store_policy()
  /// (itself kLru unless overridden); kLru is the original byte-identical
  /// path. A non-LRU policy on a per-packet query — which keeps no sink
  /// state to admit or evict — is a kInconsistentMemoryBudget build error,
  /// like a memory budget on one.
  std::optional<StorePolicyKind> store_policy;

  /// Relative delivery priority under transport pressure. When a bounded
  /// observer ring (ShardedSink) or fan-in frame budget must shed, only
  /// events/frames of the *lowest* registered priority are droppable;
  /// higher classes take the blocking path instead. All queries default to
  /// the same priority, so with no explicit priorities nothing changes —
  /// a single class behaves exactly like the pre-priority code.
  unsigned priority = 1;
};

/// Convenience constructors for the three aggregation families.
inline QuerySpec make_path_query(std::string name, unsigned bit_budget,
                                 double frequency,
                                 PathTracingConfig tuning = {}) {
  QuerySpec spec;
  spec.query.name = std::move(name);
  spec.query.aggregation = AggregationType::kStaticPerFlow;
  spec.query.bit_budget = bit_budget;
  spec.query.frequency = frequency;
  spec.path = tuning;
  return spec;
}

inline QuerySpec make_dynamic_query(std::string name, std::string extractor,
                                    unsigned bit_budget, double frequency,
                                    DynamicAggregationConfig tuning = {}) {
  QuerySpec spec;
  spec.query.name = std::move(name);
  spec.query.extractor = std::move(extractor);
  spec.query.aggregation = AggregationType::kDynamicPerFlow;
  spec.query.bit_budget = bit_budget;
  spec.query.frequency = frequency;
  spec.dynamic = tuning;
  return spec;
}

inline QuerySpec make_perpacket_query(std::string name, std::string extractor,
                                      unsigned bit_budget, double frequency,
                                      PerPacketConfig tuning = {}) {
  QuerySpec spec;
  spec.query.name = std::move(name);
  spec.query.extractor = std::move(extractor);
  spec.query.aggregation = AggregationType::kPerPacket;
  spec.query.bit_budget = bit_budget;
  spec.query.frequency = frequency;
  spec.perpacket = tuning;
  return spec;
}

}  // namespace pint
