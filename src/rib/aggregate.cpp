#include "rib/aggregate.hpp"

namespace rib {
namespace {

// A subtree's label (Coverage and hop), considering only the routes inside
// the subtree.
struct Cov {
    Coverage kind = Coverage::kEmpty;
    NextHop val = kNoRoute;
};

// Resolves a child coverage when gaps are filled by route `r`.
Cov fill(const Cov& c, NextHop r)
{
    switch (c.kind) {
    case Coverage::kEmpty: return {Coverage::kFull, r};
    case Coverage::kFull: return c;
    case Coverage::kPartial:
        return c.val == r ? Cov{Coverage::kFull, r} : Cov{Coverage::kMixed, kNoRoute};
    case Coverage::kMixed: return c;
    }
    return c;
}

// Merges sibling coverages when the parent has no route of its own.
Cov merge(const Cov& a, const Cov& b)
{
    using enum Coverage;
    if (a.kind == kMixed || b.kind == kMixed) return {kMixed, kNoRoute};
    if (a.kind == kEmpty && b.kind == kEmpty) return {kEmpty, kNoRoute};
    if (a.kind == kEmpty) return {kPartial, b.val};
    if (b.kind == kEmpty) return {kPartial, a.val};
    if (a.val != b.val) return {kMixed, kNoRoute};
    if (a.kind == kFull && b.kind == kFull) return {kFull, a.val};
    return {kPartial, a.val};
}

template <class Node>
Cov compute(const Node* n)
{
    if (n == nullptr) return {};
    const Cov c0 = compute(n->child[0].get());
    const Cov c1 = compute(n->child[1].get());
    Cov result;
    if (n->has_route) {
        // The node's own route fills both children's gaps.
        const Cov e0 = fill(c0, n->next_hop);
        const Cov e1 = fill(c1, n->next_hop);
        result = (e0.kind == Coverage::kFull && e1.kind == Coverage::kFull && e0.val == e1.val)
                     ? Cov{Coverage::kFull, e0.val}
                     : Cov{Coverage::kMixed, kNoRoute};
    } else {
        result = merge(c0, c1);
    }
    n->scratch_kind = static_cast<std::uint8_t>(result.kind);
    n->scratch_value = result.val;
    return result;
}

template <class Node, class Prefix, class Out>
void emit(const Node* n, Prefix at, NextHop inherited, Out& out)
{
    if (n == nullptr) return;
    if (NextHop hop; resolves_uniformly(*n, inherited, hop)) {
        if (hop != inherited) out.push_back({at, hop});
        return;
    }
    NextHop next_inherited = inherited;
    if (n->has_route) {
        next_inherited = n->next_hop;
        if (n->next_hop != inherited) out.push_back({at, n->next_hop});
    }
    emit(n->child[0].get(), at.child(0), next_inherited, out);
    emit(n->child[1].get(), at.child(1), next_inherited, out);
}

}  // namespace

template <class Addr>
void classify(const RadixTrie<Addr>& rib)
{
    compute(rib.root());
}

template <class Addr>
RouteList<Addr> aggregate_routes(const RadixTrie<Addr>& input)
{
    RouteList<Addr> out;
    classify(input);
    emit(input.root(), typename RadixTrie<Addr>::prefix_type{}, kNoRoute, out);
    return out;
}

template void classify(const RadixTrie<netbase::Ipv4Addr>&);
template void classify(const RadixTrie<netbase::Ipv6Addr>&);
template RouteList<netbase::Ipv4Addr> aggregate_routes(const RadixTrie<netbase::Ipv4Addr>&);
template RouteList<netbase::Ipv6Addr> aggregate_routes(const RadixTrie<netbase::Ipv6Addr>&);

}  // namespace rib
