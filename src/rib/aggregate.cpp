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

// Labels node `i` and its subtree bottom-up; returns node `i`'s label. A
// child index of 0 (RadixTrie::kRoot) means no child.
template <class Node>
Cov compute(const Node* nodes, std::uint32_t i, Label* labels)
{
    const Node& n = nodes[i];
    const Cov c0 = n.child[0] != 0 ? compute(nodes, n.child[0], labels) : Cov{};
    const Cov c1 = n.child[1] != 0 ? compute(nodes, n.child[1], labels) : Cov{};
    Cov result;
    if (n.has_route()) {
        // The node's own route fills both children's gaps.
        const Cov e0 = fill(c0, n.next_hop);
        const Cov e1 = fill(c1, n.next_hop);
        result = (e0.kind == Coverage::kFull && e1.kind == Coverage::kFull && e0.val == e1.val)
                     ? Cov{Coverage::kFull, e0.val}
                     : Cov{Coverage::kMixed, kNoRoute};
    } else {
        result = merge(c0, c1);
    }
    labels[i] = {result.val, result.kind};
    return result;
}

template <class Node, class Prefix, class Out>
void emit(const Node* nodes, const Label* labels, std::uint32_t i, Prefix at,
          NextHop inherited, Out& out)
{
    if (NextHop hop; resolves_uniformly(labels[i], inherited, hop)) {
        if (hop != inherited) out.push_back({at, hop});
        return;
    }
    const Node& n = nodes[i];
    NextHop next_inherited = inherited;
    if (n.has_route()) {
        next_inherited = n.next_hop;
        if (n.next_hop != inherited) out.push_back({at, n.next_hop});
    }
    for (unsigned b = 0; b < 2; ++b)
        if (n.child[b] != 0) emit(nodes, labels, n.child[b], at.child(b), next_inherited, out);
}

}  // namespace

template <class Addr>
std::vector<Label> classify(const RadixTrie<Addr>& rib)
{
    const auto nodes = rib.nodes();
    std::vector<Label> labels(nodes.size());
    if (!rib.empty()) compute(nodes.data(), RadixTrie<Addr>::kRoot, labels.data());
    return labels;
}

template <class Addr>
RouteList<Addr> aggregate_routes(const RadixTrie<Addr>& input)
{
    RouteList<Addr> out;
    if (input.empty()) return out;
    const auto labels = classify(input);
    emit(input.nodes().data(), labels.data(), RadixTrie<Addr>::kRoot,
         typename RadixTrie<Addr>::prefix_type{}, kNoRoute, out);
    return out;
}

template std::vector<Label> classify(const RadixTrie<netbase::Ipv4Addr>&);
template std::vector<Label> classify(const RadixTrie<netbase::Ipv6Addr>&);
template RouteList<netbase::Ipv4Addr> aggregate_routes(const RadixTrie<netbase::Ipv4Addr>&);
template RouteList<netbase::Ipv6Addr> aggregate_routes(const RadixTrie<netbase::Ipv6Addr>&);

}  // namespace rib
