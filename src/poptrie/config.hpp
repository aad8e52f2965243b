// poptrie/config.hpp — build-time options and observable statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "rib/route.hpp"

namespace poptrie {

/// Options controlling how a Poptrie is compiled. The defaults correspond to
/// the paper's best configuration ("Poptrie18": leafvec + route aggregation +
/// direct pointing with s = 18).
struct Config {
    /// §3.4 direct pointing parameter `s`: the most significant s bits index
    /// a 2^s top-level array. 0 disables direct pointing ("Poptrie0").
    unsigned direct_bits = 18;

    /// §3.3 leaf compression with the `leafvec` bit vector. When false the
    /// structure is the paper's "basic" Poptrie: one leaf slot per zero bit
    /// of `vector`, and lookup counts zeros in `vector` instead.
    bool leaf_compression = true;

    /// §3 route aggregation: compress the RIB's route set (identical-next-hop
    /// subtree merging + redundant-route removal) before building the FIB.
    bool route_aggregation = true;

    /// Dictionary-coded leaf storage (an extension beyond the paper, in the
    /// spirit of Rétvári et al.'s entropy bounds): real tables use far fewer
    /// distinct next hops than the 16-bit leaf model can express, so at
    /// compact()/snapshot time — never on the update path — the reachable
    /// leaf runs are re-encoded as 8-bit codes into a dense side array plus a
    /// <= 256-entry dictionary. A re-encoded run is addressed by
    /// kLeaf8Bit | offset, so the hot path stays a popcount-indexed load with
    /// one predictable tag test. Tables with > 256 distinct next hops fall
    /// back to the plain 16-bit layout at compact time (lookup results are
    /// identical either way). Post-compaction incremental updates allocate
    /// plain 16-bit runs; the next compact() re-encodes them.
    bool leaf_dict = false;
};

// --- compile-time invariants of the structure's layout ---------------------
//
// The node layout (64-bit vector/leafvec), the 2-byte leaf model of §3.3, and
// the direct-pointing slot packing of §3.4 are all stated as static_asserts
// here so a drive-by change to a type or constant fails at compile time with
// the paper reference in hand, not at lookup time. tools/astcheck's HP2 rule
// accepts `// shift-ok:` justifications that cite valid_config() below.

/// Bits consumed per trie level (k in the paper). Poptrie::kStride mirrors
/// this; a static_assert there keeps the two in lock step.
inline constexpr unsigned kStrideBits = 6;

/// Upper bound valid_config() puts on Config::direct_bits. The direct array
/// stores `kDirectLeafBit | value` in uint32 slots, so internal-node indices
/// must stay below 2^31; capping s at 30 also caps the array itself at 2^30
/// slots (4 GiB), far above the paper's s = 18 sweet spot.
inline constexpr unsigned kMaxDirectBits = 30;

/// Leaf-index tag for Config::leaf_dict: a Node::base0 with this MSB set
/// addresses a dictionary-coded 8-bit run at `base0 & ~kLeaf8Bit` in the
/// dense code array instead of a 16-bit run in the leaf pool. Shares the
/// "bit 31 is a tag, payload stays below it" convention with kDirectLeafBit
/// (the two live in disjoint index spaces: direct slots vs leaf indices).
/// The buddy allocator's kMaxCapacity of 2^31 slots is what keeps every
/// tagged index unambiguous.
inline constexpr std::uint32_t kLeaf8Bit = 0x8000'0000u;

static_assert((std::uint64_t{1} << kStrideBits) == 64,
              "Node::vector/leafvec are std::uint64_t with one bit per child: "
              "the stride must be exactly 64-ary (k = 6, §3.1)");
static_assert(std::is_same_v<rib::NextHop, std::uint16_t>,
              "the paper's 2-byte leaf model (§3.3, Table 2) and the direct-slot "
              "packing kDirectLeafBit | next_hop assume 16-bit next hops");
static_assert(kMaxDirectBits < 31,
              "direct slots are uint32 with the MSB reserved as kDirectLeafBit; "
              "2^direct_bits slot indices must stay below bit 31");

/// Validity of a Config for an address of `width` bits. Every Poptrie pool
/// set asserts this (via Poptrie::direct_slots) before reserving storage, so
/// everything downstream — the builder, the incremental updater, the
/// compactor — may rely on these bounds:
///   * direct_bits == 0 (direct pointing off) or 1 <= direct_bits < width,
///     and direct_bits <= kMaxDirectBits (< 64, so `1 << direct_bits` on a
///     64-bit operand is well defined).
[[nodiscard]] constexpr bool valid_config(const Config& cfg, unsigned width) noexcept
{
    return cfg.direct_bits == 0 ||
           (cfg.direct_bits < width && cfg.direct_bits <= kMaxDirectBits);
}

/// Size and shape statistics, matching the columns of Table 2.
struct Stats {
    std::size_t internal_nodes = 0;  ///< "# of inodes"
    std::size_t leaves = 0;          ///< "# of leaves"
    std::size_t direct_slots = 0;    ///< 2^s (0 when direct pointing is off)

    /// Leaf slots currently served from the dictionary-coded 8-bit array
    /// (Config::leaf_dict; populated by compact()), and the dictionary's
    /// entry count. leaves - leaf8_slots is the plain 16-bit remainder.
    std::size_t leaf8_slots = 0;
    std::size_t leaf_dict_entries = 0;

    /// Paper-style analytic footprint: inodes x (24 or 16 in basic mode)
    /// + 16-bit leaves x 2 + dict-coded leaves x 1 + dict entries x 2
    /// + direct slots x 4 bytes.
    std::size_t memory_bytes = 0;

    /// Bytes committed to the five arrays: each commits whole 2 MiB steps
    /// (alloc::kCommitStep) as it grows, so this runs ahead of the touched
    /// extent by less than one step per array. The reserved address space
    /// past the committed pages is not memory and is not counted.
    std::size_t allocated_bytes = 0;

    /// Buddy-allocator slots currently handed out (power-of-two rounded).
    /// After withdrawing every route and draining reclamation these return
    /// to the empty-table baseline — the tests use them as a leak check.
    std::size_t node_pool_used = 0;
    std::size_t leaf_pool_used = 0;

    /// Fragmentation signals (per pool): how many blocks sit on the buddy
    /// free lists, the largest run still allocatable, and the high-water
    /// mark (one past the highest slot ever handed out). A fresh or
    /// freshly-compacted pool has few free blocks and a high-water close to
    /// the live size; a long churn feed scatters both.
    std::size_t node_free_blocks = 0;
    std::size_t leaf_free_blocks = 0;
    std::size_t node_largest_free_run = 0;
    std::size_t leaf_largest_free_run = 0;
    std::size_t node_high_water = 0;
    std::size_t leaf_high_water = 0;
};

}  // namespace poptrie
