// rib/aggregate.hpp — route aggregation (§3 of the paper).
//
// "The route aggregation performs merger of a set of prefixes with the
// identical next hop that belong to a subtree without any gap, into the
// single prefix representing the whole subtree" — plus removal of redundant
// prefixes whose next hop equals what they would inherit anyway. The paper
// applies this RIB→FIB step before building Poptrie (it is equally applicable
// to the other structures, and the ablation bench measures it separately).
//
// Aggregation is two passes over the RIB. classify() labels every node
// bottom-up with how the routes inside its subtree cover its address space,
// in an array beside the trie's nodes; aggregate_routes() then emits the
// aggregated route set top-down. The Poptrie compile
// (Config::route_aggregation) runs only the first pass and compiles the RIB
// itself, reading each node's label through resolves_uniformly(), so it never
// builds the aggregated set.
//
// The transformation is semantics-preserving: for every address, the longest-
// prefix-match result over the aggregated route set equals the result over
// the original set (tests verify this property exhaustively on small tables
// and at all prefix boundaries on large ones).
#pragma once

#include <cstdint>
#include <vector>

#include "rib/radix_trie.hpp"
#include "rib/route.hpp"

namespace rib {

/// How the routes inside a subtree cover its address space (classify()):
enum class Coverage : std::uint8_t {
    kEmpty,    ///< no routes: every address resolves to the inherited hop
    kFull,     ///< fully covered: every address resolves to the label's hop
    kPartial,  ///< the routed part resolves to the label's hop, gaps remain
    kMixed,    ///< at least two resolutions, whatever is inherited
};

/// classify()'s label of one node: how the routes inside its subtree cover
/// its address space, and the hop they resolve to (kFull, kPartial).
struct Label {
    NextHop hop = kNoRoute;
    Coverage kind = Coverage::kEmpty;
};

/// Labels every node of `rib` with its subtree's Coverage and hop. The
/// result is indexed like rib.nodes(); free slots keep the empty label.
template <class Addr>
[[nodiscard]] std::vector<Label> classify(const RadixTrie<Addr>& rib);

/// True when every address under a node labelled `label` resolves to one
/// hop, given that the hop inherited from above the node is `inherited`;
/// the hop is stored in `hop`. Aggregation replaces such a subtree by at
/// most one route at the node (none when `hop` == `inherited`).
[[nodiscard]] inline bool resolves_uniformly(const Label& label, NextHop inherited,
                                             NextHop& hop) noexcept
{
    switch (label.kind) {
    case Coverage::kEmpty: hop = inherited; return true;
    case Coverage::kFull: hop = label.hop; return true;
    case Coverage::kPartial: hop = inherited; return label.hop == inherited;
    case Coverage::kMixed: return false;
    }
    return false;
}

/// Returns the aggregated equivalent of `input`'s route set.
template <class Addr>
[[nodiscard]] RouteList<Addr> aggregate_routes(const RadixTrie<Addr>& input);

/// Convenience: aggregates and loads the result into a fresh trie. The
/// Poptrie compile does not need it (see above); the baselines, lpmd and the
/// benches build their structures from its result.
template <class Addr>
[[nodiscard]] RadixTrie<Addr> aggregate(const RadixTrie<Addr>& input)
{
    RadixTrie<Addr> out;
    out.insert_all(aggregate_routes(input));
    return out;
}

extern template std::vector<Label> classify(const RadixTrie<netbase::Ipv4Addr>&);
extern template std::vector<Label> classify(const RadixTrie<netbase::Ipv6Addr>&);
extern template RouteList<netbase::Ipv4Addr> aggregate_routes(
    const RadixTrie<netbase::Ipv4Addr>&);
extern template RouteList<netbase::Ipv6Addr> aggregate_routes(
    const RadixTrie<netbase::Ipv6Addr>&);

}  // namespace rib
