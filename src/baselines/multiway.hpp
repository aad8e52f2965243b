// baselines/multiway.hpp — the plain 2^k-ary multiway trie of the paper's
// Figure 1: every internal node holds a full descendant array, one slot per
// k-bit chunk value, each slot either pointing to a child node or holding a
// leaf (FIB index) directly.
//
// This is the structure Poptrie *starts from* before any compression: same
// depth, same branching, none of the bit-vector indirection. It exists here
// as the ablation baseline that quantifies what §3.1's vector/base1
// compression actually buys — a node costs 64 x 6 bytes here versus
// Poptrie's 24 bytes plus only the descendants that exist.
#pragma once

#include <cstdint>
#include <vector>

#include "poptrie/detail.hpp"
#include "rib/radix_trie.hpp"
#include "rib/route.hpp"

namespace baselines {

/// Uncompressed 64-ary multiway trie (k = 6), IPv4 or IPv6.
template <class Addr>
class MultiwayTrie {
public:
    using value_type = typename Addr::value_type;
    static constexpr unsigned kStride = 6;
    static constexpr unsigned kWidth = Addr::kWidth;

    /// One descendant array: child[v] >= 0 is the next node's index,
    /// child[v] < 0 means `leaf[v]` terminates the search.
    struct Node {
        std::int32_t child[64];
        rib::NextHop leaf[64];
    };

    MultiwayTrie() = default;

    /// Compiles from the RIB radix trie (no aggregation: this is the
    /// Figure 1 strawman).
    explicit MultiwayTrie(const rib::RadixTrie<Addr>& rib)
    {
        const poptrie::detail::RibView<Addr> view{rib.nodes().data()};
        root_ = build(view, poptrie::detail::root_ctx(view), 0);
    }

    /// Longest-prefix match; rib::kNoRoute on miss.
    [[nodiscard]] rib::NextHop lookup(Addr addr) const noexcept
    {
        const value_type key = addr.value();
        std::uint32_t index = root_;
        unsigned offset = 0;
        for (;;) {
            const auto v = static_cast<unsigned>(chunk(key, offset));
            const std::int32_t next = nodes_[index].child[v];
            if (next < 0) return nodes_[index].leaf[v];
            index = static_cast<std::uint32_t>(next);
            offset += kStride;
        }
    }

    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t memory_bytes() const noexcept
    {
        return nodes_.size() * sizeof(Node);
    }

private:
    [[nodiscard]] static value_type chunk(value_type key, unsigned off) noexcept
    {
        if (off >= kWidth) return 0;
        return static_cast<value_type>(static_cast<value_type>(key << off) >>
                                       (kWidth - kStride));
    }

    std::uint32_t build(const poptrie::detail::RibView<Addr>& rib,
                        const poptrie::detail::SlotCtx& slot, unsigned level)
    {
        const auto stride = poptrie::detail::RibSource<Addr>{rib}.slots(slot, level);
        const poptrie::detail::SlotCtx* const slots = stride.slot;
        const auto index = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
        for (unsigned v = 0; v < 64; ++v) {
            nodes_[index].child[v] = -1;
            nodes_[index].leaf[v] = slots[v].inherited;
        }
        for (unsigned v = 0; v < 64; ++v) {
            if (poptrie::detail::is_internal(slots[v])) {
                const auto child = build(rib, slots[v], level + kStride);
                nodes_[index].child[v] = static_cast<std::int32_t>(child);
            }
        }
        return index;
    }

    std::vector<Node> nodes_;
    std::uint32_t root_ = 0;
};

using MultiwayTrie4 = MultiwayTrie<netbase::Ipv4Addr>;

}  // namespace baselines
