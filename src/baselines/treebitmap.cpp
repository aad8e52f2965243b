#include "baselines/treebitmap.hpp"

namespace baselines {
namespace {

// Collects the radix nodes exactly `depth` bits below `n` in path order
// (nulls where the radix tree has no node); `rib` is the trie's nodes().
template <class RadixNode>
void gather(const RadixNode* n, unsigned depth, const RadixNode* rib, const RadixNode** out,
            unsigned& pos)
{
    if (depth == 0) {
        out[pos++] = n;
        return;
    }
    for (unsigned b = 0; b < 2; ++b) {
        const RadixNode* child = n != nullptr && n->child[b] != 0 ? &rib[n->child[b]] : nullptr;
        gather(child, depth - 1, rib, out, pos);
    }
}

}  // namespace

template <class Addr, unsigned K>
TreeBitmap<Addr, K>::TreeBitmap(const rib::RadixTrie<Addr>& rib)
{
    nodes_.resize(1);  // zeroed root: empty table answers kNoRoute
    const RadixNode* const nodes = rib.nodes().data();
    if (nodes != nullptr) fill(0, &nodes[rib::RadixTrie<Addr>::kRoot], nodes);
}

template <class Addr, unsigned K>
void TreeBitmap<Addr, K>::fill(std::uint32_t index, const RadixNode* n, const RadixNode* rib)
{
    bitmap_type internal = 0;
    bitmap_type external = 0;
    std::vector<rib::NextHop> local_results;
    const RadixNode* level[std::size_t{1} << K];

    // Internal bitmap: one bit per route of relative length 0..K-1, in
    // bit-position order (which is (level, value) lexicographic order).
    for (unsigned l = 0; l < K; ++l) {
        unsigned pos = 0;
        gather(n, l, rib, level, pos);
        for (unsigned p = 0; p < (1u << l); ++p) {
            if (level[p] != nullptr && level[p]->has_route()) {
                internal |= static_cast<bitmap_type>(bitmap_type{1} << ((1u << l) - 1 + p));
                local_results.push_back(level[p]->next_hop);
            }
        }
    }

    // External bitmap: children are the radix nodes K bits down. The radix
    // trie prunes routeless leaves, so a non-null node always leads to a
    // route (its own or a descendant's).
    unsigned pos = 0;
    gather(n, K, rib, level, pos);
    std::vector<const RadixNode*> kids;
    for (unsigned c = 0; c < (1u << K); ++c) {
        if (level[c] != nullptr) {
            external |= static_cast<bitmap_type>(bitmap_type{1} << c);
            kids.push_back(level[c]);
        }
    }

    const auto result_base = static_cast<std::uint32_t>(results_.size());
    results_.insert(results_.end(), local_results.begin(), local_results.end());
    const auto child_base = static_cast<std::uint32_t>(nodes_.size());
    nodes_.resize(nodes_.size() + kids.size());
    nodes_[index] = Node{internal, external, child_base, result_base};
    for (std::size_t i = 0; i < kids.size(); ++i)
        fill(child_base + static_cast<std::uint32_t>(i), kids[i], rib);
}

template class TreeBitmap<netbase::Ipv4Addr, 4>;
template class TreeBitmap<netbase::Ipv4Addr, 6>;
template class TreeBitmap<netbase::Ipv6Addr, 6>;

}  // namespace baselines
