#include "checks.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <type_traits>
#include <variant>

#include "common/rng.h"
#include "hash/global_hash.h"
#include "pint/sharded_sink.h"

namespace pint::benchmark {
namespace {

std::uint64_t context_hash(const SinkContext& ctx, std::string_view query,
                           std::uint64_t kind) {
  std::uint64_t h = hash_combine(mix64(ctx.packet_id), ctx.flow);
  h = hash_combine(h, ctx.path_length);
  h = hash_combine(h, std::hash<std::string_view>{}(query));
  return hash_combine(h, kind);
}

// A flow and its hop count: from the head (a random packet among the
// first `delivered` positions) or from the whole trace's flows.
Read pick_flow(const Trace& trace, Rng& rng, std::uint64_t delivered,
               bool head) {
  std::size_t hops = 0;
  Read read;
  if (head && delivered > 0) {
    const std::size_t i = rng.uniform_int(delivered) % trace.size();
    read.tuple = trace.packets[i].tuple;
    hops = trace.hops[i];
  } else {
    const std::size_t f = rng.uniform_int(trace.flows.size());
    read.tuple = trace.flows[f];
    hops = trace.flow_hops[f];
  }
  read.hop = static_cast<HopIndex>(1 + rng.uniform_int(hops));
  return read;
}

}  // namespace

std::uint64_t record_hash(const SinkContext& ctx, std::string_view query,
                          const Observation& obs) {
  std::uint64_t h = context_hash(ctx, query, obs.index());
  std::visit(
      [&h](const auto& o) {
        using T = std::decay_t<decltype(o)>;
        if constexpr (std::is_same_v<T, AggregateObservation>) {
          h = hash_combine(h, std::bit_cast<std::uint64_t>(o.value));
        } else if constexpr (std::is_same_v<T, HopSampleObservation>) {
          h = hash_combine(h, o.hop);
          h = hash_combine(h, std::bit_cast<std::uint64_t>(o.value));
        } else {
          h = hash_combine(h, o.resolved_hops);
          h = hash_combine(h, o.path_length);
          h = hash_combine(h, o.complete ? 1 : 0);
        }
      },
      obs);
  return mix64(h);
}

std::uint64_t path_record_hash(const SinkContext& ctx, std::string_view query,
                               const std::vector<SwitchId>& path) {
  std::uint64_t h = context_hash(ctx, query, 0xDA7);
  for (const SwitchId s : path) h = hash_combine(h, s);
  return mix64(h);
}

std::vector<Read> reads_after(const Trace& trace, std::uint64_t seed,
                              std::uint64_t epochs, unsigned count) {
  Rng rng(hash_combine(seed ^ 0x4EAD5, epochs));
  std::vector<Read> reads(count);
  for (unsigned i = 0; i < count; ++i) {
    reads[i] = pick_flow(trace, rng, epochs * kEpochPackets, i % 2 == 0);
  }
  return reads;
}

std::vector<FiveTuple> path_sample(const Trace& trace, std::uint64_t seed,
                                   std::uint64_t packets, unsigned count) {
  Rng rng(hash_combine(seed ^ 0x9A745, packets));
  std::vector<FiveTuple> flows(count);
  for (unsigned i = 0; i < count; ++i) {
    flows[i] = pick_flow(trace, rng, packets, i % 2 == 0).tuple;
  }
  return flows;
}

std::uint64_t path_answer(const std::optional<std::vector<SwitchId>>& path) {
  if (!path.has_value()) return 0x0DECADE;
  std::uint64_t h = mix64(path->size());
  for (const SwitchId s : *path) h = hash_combine(h, s);
  return h;
}

std::uint64_t read_answer(const std::optional<std::vector<SwitchId>>& path,
                          const std::optional<double>& p99) {
  return hash_combine(path_answer(path),
                      p99.has_value() ? std::bit_cast<std::uint64_t>(*p99)
                                      : 0x0DECADE);
}

std::uint64_t fold(std::uint64_t acc, std::uint64_t answer) {
  return hash_combine(acc, answer);
}

Reference run_reference(const Trace& trace,
                        const PintFramework::Builder& sink_builder,
                        std::uint64_t seed,
                        std::vector<std::uint64_t> phase_packets,
                        std::uint64_t read_epochs, unsigned reads_per_epoch,
                        unsigned path_samples) {
  // Under a ceiling, route exactly as the sink does; ShardedSink::shard_of
  // is the routing rule's only definition.
  const bool per_shard = sink_builder.memory_ceiling() > 0;
  std::unique_ptr<ShardedSink> router;
  std::vector<std::unique_ptr<PintFramework>> parts;
  RecordHasher hasher;
  if (per_shard) {
    router = std::make_unique<ShardedSink>(sink_builder, kShards);
    const PintFramework::Builder share =
        sink_builder.with_memory_divided(kShards);
    for (unsigned s = 0; s < kShards; ++s) {
      parts.push_back(share.build_or_throw());
    }
  } else {
    parts.push_back(sink_builder.build_or_throw());
  }
  for (auto& fw : parts) fw->add_observer(&hasher);
  const auto owner = [&](const FiveTuple& tuple) -> const PintFramework& {
    return *parts[per_shard ? router->shard_of(tuple) : 0];
  };
  std::vector<std::uint8_t> route(trace.size(), 0);
  if (per_shard) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      route[i] =
          static_cast<std::uint8_t>(router->shard_of(trace.packets[i].tuple));
    }
  }

  std::sort(phase_packets.begin(), phase_packets.end());
  phase_packets.erase(std::unique(phase_packets.begin(), phase_packets.end()),
                      phase_packets.end());
  const std::uint64_t total =
      std::max(phase_packets.back(), read_epochs * kEpochPackets);
  Reference ref;
  std::size_t next_checkpoint = 0;
  SinkReport report;
  for (std::uint64_t done = 1; done <= total; ++done) {
    const std::size_t i = (done - 1) % trace.size();
    parts[route[i]]->at_sink(trace.packets[i], trace.hops[i], report);
    if (done % kEpochPackets == 0 && done / kEpochPackets <= read_epochs) {
      std::uint64_t acc = 0;
      for (const Read& read :
           reads_after(trace, seed, done / kEpochPackets, reads_per_epoch)) {
        const PintFramework& fw = owner(read.tuple);
        const auto path =
            fw.flow_path("path", fw.flow_key_for("path", read.tuple));
        const auto p99 = fw.latency_quantile(
            "latency", fw.flow_key_for("latency", read.tuple), read.hop, 0.99);
        acc = fold(acc, read_answer(path, p99));
      }
      ref.reads.push_back(acc);
    }
    while (next_checkpoint < phase_packets.size() &&
           phase_packets[next_checkpoint] == done) {
      Checkpoint cp;
      cp.packets = done;
      cp.records = hasher.records;
      cp.hash = hasher.hash;
      for (const FiveTuple& flow :
           path_sample(trace, seed, done, path_samples)) {
        const PintFramework& fw = owner(flow);
        cp.paths.push_back(
            path_answer(fw.flow_path("path", fw.flow_key_for("path", flow))));
      }
      ref.checkpoints.push_back(std::move(cp));
      ++next_checkpoint;
    }
  }
  return ref;
}

}  // namespace pint::benchmark
