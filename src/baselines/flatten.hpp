// baselines/flatten.hpp — flattening a radix RIB into resolution runs.
//
// Several baselines (DXR, DIR-24-8, SAIL) are built from the *resolution
// function* of the table rather than its trie shape: the address space as a
// sorted list of maximal runs [start, next_start) that resolve to a single
// next hop. One DFS over the radix trie produces them in address order.
#pragma once

#include <cstdint>
#include <vector>

#include "rib/radix_trie.hpp"
#include "rib/route.hpp"

namespace baselines {

/// One maximal run: addresses from `start` up to the next run's start (or
/// the end of the address space) resolve to `next_hop`.
template <class Addr>
struct Run {
    typename Addr::value_type start;
    rib::NextHop next_hop;
};

/// Flattens `rib` into runs covering the entire address space, in ascending
/// order, adjacent runs guaranteed to differ in next hop. The first run
/// always starts at address 0 (with kNoRoute if nothing covers it). An empty
/// table yields a single kNoRoute run.
template <class Addr>
[[nodiscard]] std::vector<Run<Addr>> flatten(const rib::RadixTrie<Addr>& rib)
{
    using value_type = typename Addr::value_type;
    const auto* const nodes = rib.nodes().data();
    std::vector<Run<Addr>> runs;
    auto emit = [&](value_type base, rib::NextHop nh) {
        if (runs.empty() || runs.back().next_hop != nh) runs.push_back({base, nh});
    };
    // Iterative DFS would also do; recursion depth is bounded by the address
    // width (<= 128). A missing child (index kRoot) is one run.
    auto rec = [&](auto&& self, std::uint32_t i, rib::NextHop inherited, value_type base,
                   unsigned depth) -> void {
        const auto& n = nodes[i];
        if (n.has_route()) inherited = n.next_hop;
        if (!n.has_children()) {
            emit(base, inherited);
            return;
        }
        const value_type half = value_type{1} << (Addr::kWidth - 1 - depth);
        for (unsigned b = 0; b < 2; ++b) {
            const value_type at = b == 0 ? base : base | half;
            if (n.child[b] == rib::RadixTrie<Addr>::kRoot)
                emit(at, inherited);
            else
                self(self, n.child[b], inherited, at, depth + 1);
        }
    };
    if (rib.empty())
        emit(value_type{0}, rib::kNoRoute);
    else
        rec(rec, rib::RadixTrie<Addr>::kRoot, rib::kNoRoute, value_type{0}, 0);
    return runs;
}

}  // namespace baselines
