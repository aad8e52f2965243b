// baselines/treebitmap.hpp — Tree Bitmap (Eatherton, Varghese, Dittia 2004).
//
// The multibit-trie baseline of Tables 2/3 and Fig. 9. Each node covers K
// bits of the address and holds two bitmaps:
//   * the internal bitmap marks prefixes of length 0..K-1 relative to the
//     node, laid out as a pre-order perfect binary tree (bit (2^l - 1) + p
//     for the length-l prefix with value p);
//   * the external bitmap marks which of the 2^K children exist.
// Children and per-node results are contiguous arrays indexed with popcnt —
// the paper notes Tree Bitmap "uses the population count operation in a
// similar way to Poptrie" but needs an O(K) scan of the internal bitmap per
// node, which is exactly why it loses (§4.5). As in the paper's evaluation,
// both the original 16-ary (K = 4) and the 64-ary (K = 6) variants are
// provided.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/bits.hpp"
#include "rib/radix_trie.hpp"
#include "rib/route.hpp"

namespace baselines {

namespace tbm_detail {
template <unsigned K>
struct BitmapTraits;
template <>
struct BitmapTraits<4> {
    using type = std::uint16_t;
};
template <>
struct BitmapTraits<6> {
    using type = std::uint64_t;
};
}  // namespace tbm_detail

/// Tree Bitmap LPM over 2^K-ary strides.
template <class Addr, unsigned K>
class TreeBitmap {
public:
    using value_type = typename Addr::value_type;
    using bitmap_type = typename tbm_detail::BitmapTraits<K>::type;
    static constexpr unsigned kWidth = Addr::kWidth;

    struct Node {
        bitmap_type internal = 0;  ///< prefixes of length 0..K-1 within the node
        bitmap_type external = 0;  ///< existing children
        std::uint32_t child_base = 0;
        std::uint32_t result_base = 0;
    };

    TreeBitmap() = default;

    /// Compiles from the RIB radix trie.
    explicit TreeBitmap(const rib::RadixTrie<Addr>& rib);

    /// Longest-prefix match; rib::kNoRoute on miss.
    [[nodiscard]] rib::NextHop lookup(Addr addr) const noexcept
    {
        const value_type key = addr.value();
        unsigned offset = 0;
        std::uint32_t index = 0;
        rib::NextHop best = rib::kNoRoute;
        for (;;) {
            const Node& node = nodes_[index];
            const auto c = static_cast<unsigned>(chunk(key, offset));
            // O(K) scan for the longest prefix stored inside this node.
            for (int l = static_cast<int>(K) - 1; l >= 0; --l) {
                const unsigned pos = (1u << l) - 1 + (c >> (K - static_cast<unsigned>(l)));
                if ((node.internal >> pos) & 1u) {
                    const auto before = static_cast<std::uint32_t>(netbase::popcount64(
                        static_cast<std::uint64_t>(node.internal) &
                        netbase::low_mask_inclusive(pos)));
                    best = results_[node.result_base + before - 1];
                    break;
                }
            }
            if (((node.external >> c) & 1u) == 0) return best;
            const auto before = static_cast<std::uint32_t>(
                netbase::popcount64(static_cast<std::uint64_t>(node.external) &
                                    netbase::low_mask_inclusive(c)));
            index = node.child_base + before - 1;
            offset += K;
        }
    }

    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t result_count() const noexcept { return results_.size(); }
    [[nodiscard]] std::size_t memory_bytes() const noexcept
    {
        return nodes_.size() * sizeof(Node) + results_.size() * sizeof(rib::NextHop);
    }

private:
    using RadixNode = typename rib::RadixTrie<Addr>::Node;

    [[nodiscard]] static value_type chunk(value_type key, unsigned off) noexcept
    {
        if (off >= kWidth) return 0;
        return static_cast<value_type>(static_cast<value_type>(key << off) >> (kWidth - K));
    }

    // Builds node `index` from radix node `n`; `rib` is the trie's nodes().
    void fill(std::uint32_t index, const RadixNode* n, const RadixNode* rib);

    std::vector<Node> nodes_;
    std::vector<rib::NextHop> results_;
};

using TreeBitmap16 = TreeBitmap<netbase::Ipv4Addr, 4>;  ///< the original 16-ary variant
using TreeBitmap64 = TreeBitmap<netbase::Ipv4Addr, 6>;  ///< "Tree BitMap (64-ary)" of Table 3

extern template class TreeBitmap<netbase::Ipv4Addr, 4>;
extern template class TreeBitmap<netbase::Ipv4Addr, 6>;
extern template class TreeBitmap<netbase::Ipv6Addr, 6>;

}  // namespace baselines
