// analysis/lookup_cost.hpp — the host-independent cost of a lookup: how many
// distinct 64-byte cache lines and how many dependent loads the one scalar
// walk (batch::lookup_one) reads per key, replayed through a counting view.
//
// The counts are a pure function of the FIB's layout and the keys, so on a
// seeded table they are the same on every host (the CRAM lens of Chang et
// al., PAPERS.md): a layout change that shortens the chain of dependent
// lines shows here before any timing does. The hot path is untouched — the
// replay instantiates lookup_one over CountingView, a PlainView that
// records what each load reads.
//
// Per lookup:
//   * lines — distinct 64-byte lines read: the direct slot, every node
//     field the walk reads (a 24-byte node crosses a line in 2 of every 8
//     slots), the leaf or code, a folded run's leafvec and code. The <= 512
//     byte dictionary is not counted: it stays in L1.
//   * dependent loads — steps of the load chain that reach a line not read
//     earlier in the same lookup: the direct slot, each node (however many
//     lines it spans: their addresses are known together), the leaf, and a
//     folded run's leafvec and then its code (the code's address depends on
//     the leafvec, but it costs a line only when the run crosses one).
//   * depth — internal nodes visited; direct hits — keys the direct slot
//     answers with a next hop; folded — keys a folded run answers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "poptrie/poptrie.hpp"

namespace analysis {

struct LookupCost {
    /// Deepest walk the histogram records: 128-bit keys at s = 0 visit
    /// ceil(128 / 6) = 22 nodes.
    static constexpr std::size_t kMaxDepth = 22;

    std::uint64_t lookups = 0;
    std::uint64_t lines = 0;            ///< distinct 64-byte lines, summed over lookups
    std::uint64_t dependent_loads = 0;  ///< summed over lookups
    std::uint64_t direct_hits = 0;
    std::uint64_t folded = 0;
    std::array<std::uint64_t, kMaxDepth + 1> depth{};  ///< lookups by nodes visited

    [[nodiscard]] double lines_per_lookup() const noexcept { return per_lookup(lines); }
    [[nodiscard]] double loads_per_lookup() const noexcept { return per_lookup(dependent_loads); }
    [[nodiscard]] double direct_hit_share() const noexcept { return per_lookup(direct_hits); }
    [[nodiscard]] double folded_share() const noexcept { return per_lookup(folded); }
    [[nodiscard]] double mean_depth() const noexcept;

private:
    [[nodiscard]] double per_lookup(std::uint64_t n) const noexcept
    {
        return lookups == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(lookups);
    }
};

/// Replays batch::lookup_one for `keys[0, n)` over `view` (a loaded image's,
/// or a live pool set's) and counts what each lookup reads.
template <class Addr>
[[nodiscard]] LookupCost lookup_cost(const typename poptrie::Poptrie<Addr>::View& view,
                                     const typename Addr::value_type* keys, std::size_t n);

/// The same over a live trie's current pool set. Writer-thread only, like
/// audit(): it reads the set without a read section.
template <class Addr>
[[nodiscard]] LookupCost lookup_cost(const poptrie::Poptrie<Addr>& pt,
                                     const typename Addr::value_type* keys, std::size_t n);

extern template LookupCost lookup_cost<netbase::Ipv4Addr>(
    const poptrie::Poptrie<netbase::Ipv4Addr>::View&, const std::uint32_t*, std::size_t);
extern template LookupCost lookup_cost<netbase::Ipv6Addr>(
    const poptrie::Poptrie<netbase::Ipv6Addr>::View&, const netbase::Ipv6Addr::value_type*,
    std::size_t);
extern template LookupCost lookup_cost<netbase::Ipv4Addr>(
    const poptrie::Poptrie<netbase::Ipv4Addr>&, const std::uint32_t*, std::size_t);
extern template LookupCost lookup_cost<netbase::Ipv6Addr>(
    const poptrie::Poptrie<netbase::Ipv6Addr>&, const netbase::Ipv6Addr::value_type*,
    std::size_t);

}  // namespace analysis
