// Basic identifier and unit types shared by every PINT module.
//
// We keep these as plain aliases (rather than wrapper classes) because they
// cross module boundaries constantly and are hashed/serialized in hot paths;
// the names document intent at interfaces.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pint {

// Unique per-packet identifier. The paper (Section 4.1) assumes packets carry
// enough entropy (IPID, TCP seq, ...) to derive a unique id; in this
// reproduction every simulated packet is assigned a distinct 64-bit id.
using PacketId = std::uint64_t;

// Switch identifier. The paper uses 32-bit switch IDs (Section 4.2).
using SwitchId = std::uint32_t;

// 1-based position of a switch on a flow's path ("hop number"), derivable
// from the TTL in a real deployment (Section 4.1, footnote 6).
using HopIndex = std::uint32_t;

// A digest is the per-packet telemetry bitstring PINT appends. Its width is
// the query bit budget (1..64 bits here); we store it right-aligned.
using Digest = std::uint64_t;

// Simulated time in nanoseconds.
using TimeNs = std::int64_t;

// Bits/second, bytes.
using Bandwidth = std::int64_t;
using Bytes = std::int64_t;

constexpr TimeNs kMicro = 1'000;
constexpr TimeNs kMilli = 1'000'000;
constexpr TimeNs kSecond = 1'000'000'000;

// Heap bytes one `n`-byte allocation really costs: the request plus an
// 8-byte chunk header, rounded up to 16-byte granules and at least 32
// bytes (glibc malloc's layout); 0 when nothing is allocated. Footprint
// functions charge their heap blocks through it, so the Recording Module's
// accounting follows what the allocator hands out, small blocks included.
constexpr std::size_t heap_block_bytes(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t chunk = (n + 8 + 15) & ~std::size_t{15};
  return chunk < 32 ? 32 : chunk;
}

// Returns a bitmask with the low `bits` bits set. `bits` must be in [0, 64].
constexpr std::uint64_t low_bits_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

}  // namespace pint
