// rib/radix_trie.hpp — binary radix trie: the RIB substrate and a baseline.
//
// This is the paper's "binary radix tree": one node per bit level, two
// children. It serves three roles here:
//   1. the RIB all FIB structures are compiled from (§3: "the routes are
//      preserved in a separate routing table (RIB) such as radix or Patricia
//      trie");
//   2. the slowest baseline in Tables 2/3 and Figure 9 ("Radix");
//   3. the reference implementation tests validate every other structure
//      against, and the source of the "binary radix depth" metric of Fig. 7.
//
// Nodes carry the `marked` flag the incremental-update procedure of §3.5 uses
// to find which parts of the Poptrie must be rebuilt.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "netbase/bits.hpp"
#include "netbase/prefix.hpp"
#include "rib/route.hpp"

namespace rib {

/// Binary (one bit per level) radix trie mapping prefixes to next hops.
/// Addr is netbase::Ipv4Addr or netbase::Ipv6Addr.
template <class Addr>
class RadixTrie {
public:
    using value_type = typename Addr::value_type;
    using prefix_type = netbase::Prefix<Addr>;
    static constexpr unsigned kWidth = Addr::kWidth;

    /// Trie node. Exposed (read-only) so FIB compilers can walk the tree.
    struct Node {
        std::unique_ptr<Node> child[2];
        NextHop next_hop = kNoRoute;
        bool has_route = false;
        /// §3.5 update mark: resolution under this node may have changed.
        bool marked = false;
        /// Route aggregation's coverage class of this subtree and its hop
        /// (rib::classify in aggregate.hpp), which the aggregating FIB
        /// compile reads back. Written by every classify() of the trie, so
        /// it is single-threaded scratch; fits the struct's padding.
        mutable NextHop scratch_value = kNoRoute;
        mutable std::uint8_t scratch_kind = 0;
    };

    RadixTrie() = default;
    RadixTrie(RadixTrie&&) noexcept = default;
    RadixTrie& operator=(RadixTrie&&) noexcept = default;

    /// Inserts `prefix -> next_hop`, replacing any existing route at the same
    /// prefix. `next_hop` must not be kNoRoute.
    void insert(const prefix_type& prefix, NextHop next_hop);

    /// Removes the route at exactly `prefix`. Returns false if absent.
    bool erase(const prefix_type& prefix);

    /// Longest-prefix-match lookup. Returns kNoRoute on miss.
    [[nodiscard]] NextHop lookup(Addr addr) const noexcept;

    /// Extra detail for analysis benches (Fig. 7 / Fig. 11).
    struct LookupDetail {
        NextHop next_hop = kNoRoute;
        /// Bits examined to decide the answer: the paper's "binary radix
        /// depth" (depth of the deepest trie node on the address's path).
        unsigned radix_depth = 0;
        /// Length of the matched prefix (0 when next_hop may still be a
        /// default route at /0; check `matched`).
        unsigned matched_length = 0;
        bool matched = false;
    };
    [[nodiscard]] LookupDetail lookup_detail(Addr addr) const noexcept;

    /// Exact-match: next hop registered at `prefix`, or kNoRoute.
    [[nodiscard]] NextHop find(const prefix_type& prefix) const noexcept;

    /// Number of routes installed.
    [[nodiscard]] std::size_t route_count() const noexcept { return routes_; }

    /// Number of trie nodes allocated.
    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_; }

    /// Approximate heap footprint (nodes * sizeof(Node)), the number reported
    /// as "Radix" memory in Table 3.
    [[nodiscard]] std::size_t memory_bytes() const noexcept { return nodes_ * sizeof(Node); }

    /// Root node (null when the trie is empty... the root always exists once
    /// any route was inserted; may be null for an empty trie).
    [[nodiscard]] const Node* root() const noexcept { return root_.get(); }

    /// Visits every route as (prefix, next_hop) in trie (DFS, shorter-first)
    /// order.
    template <class F>
    void for_each_route(F&& fn) const
    {
        walk(root_.get(), prefix_type{}, fn);
    }

    /// Collects all routes into a list (convenience for generators/tests).
    [[nodiscard]] RouteList<Addr> routes() const
    {
        RouteList<Addr> out;
        out.reserve(routes_);
        for_each_route([&](const prefix_type& p, NextHop nh) { out.push_back({p, nh}); });
        return out;
    }

    /// Marks every node on and under `prefix`'s node whose resolution can be
    /// affected by a change of the route at `prefix` (stops descending at
    /// nodes shadowed by a more specific route). Creates the path if needed?
    /// No — call after insert / before erase while the node still exists.
    void mark_subtree(const prefix_type& prefix);

    /// Clears marks under `prefix` (after the FIB consumed them).
    void clear_marks(const prefix_type& prefix);

    /// Bulk load, with the result of an insert() loop over `list`: of
    /// duplicate prefixes the last one in `list` wins. The copy is put in
    /// prefix order by a stable radix sort (sort_routes), and each route is
    /// inserted from the deepest node it shares with the route before it, so
    /// no path is walked twice and the nodes are allocated in DFS order.
    /// `displaced(hop)` runs for every route that a later one replaces, the
    /// trie's own routes included.
    template <class Displaced>
    void insert_all(RouteList<Addr> list, Displaced&& displaced);

    void insert_all(RouteList<Addr> list)
    {
        insert_all(std::move(list), [](NextHop) {});
    }

private:
    // Stable LSD radix sort of `list` into Prefix order (address, then
    // length), one byte per pass, skipping every pass whose byte is the same
    // in all routes.
    static void sort_routes(RouteList<Addr>& list);

    // Walks to the node for `prefix`, returns nullptr if the path is absent.
    [[nodiscard]] Node* walk_to(const prefix_type& prefix) const noexcept;

    template <class F>
    static void walk(const Node* n, prefix_type at, F& fn)
    {
        if (n == nullptr) return;
        if (n->has_route) fn(at, n->next_hop);
        if (at.length() < kWidth) {
            walk(n->child[0].get(), at.child(0), fn);
            walk(n->child[1].get(), at.child(1), fn);
        }
    }

    static void mark_rec(Node* n)
    {
        if (n == nullptr) return;
        n->marked = true;
        // A more specific route shadows the change below it — but its node
        // itself is on the boundary and stays marked above. Descend only
        // through unshadowed children.
        for (auto& c : n->child) {
            if (c != nullptr && !c->has_route) mark_rec(c.get());
            // Children that carry their own route shadow everything beneath.
        }
    }

    static void clear_rec(Node* n)
    {
        if (n == nullptr) return;
        n->marked = false;
        clear_rec(n->child[0].get());
        clear_rec(n->child[1].get());
    }

    // Prunes route-less leaf nodes on the path to `prefix` after an erase.
    void prune(const prefix_type& prefix);

    std::unique_ptr<Node> root_;
    std::size_t routes_ = 0;
    std::size_t nodes_ = 0;
};

// ---------------------------------------------------------------------------
// Implementation (template; declarations explicitly instantiated in the .cpp
// for the two address families to keep client compile times down).

template <class Addr>
void RadixTrie<Addr>::insert(const prefix_type& prefix, NextHop next_hop)
{
    assert(next_hop != kNoRoute);
    if (!root_) {
        root_ = std::make_unique<Node>();
        ++nodes_;
    }
    Node* n = root_.get();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
        const unsigned b = netbase::bit_at(prefix.bits(), depth);
        if (!n->child[b]) {
            n->child[b] = std::make_unique<Node>();
            ++nodes_;
        }
        n = n->child[b].get();
    }
    if (!n->has_route) ++routes_;
    n->has_route = true;
    n->next_hop = next_hop;
}

template <class Addr>
template <class Displaced>
void RadixTrie<Addr>::insert_all(RouteList<Addr> list, Displaced&& displaced)
{
    if (list.empty()) return;
    sort_routes(list);
    if (!root_) {
        root_ = std::make_unique<Node>();
        ++nodes_;
    }
    // path[d] is the node at depth d on the previous route's path, valid for
    // d <= prev_len; the root starts every path.
    Node* path[kWidth + 1];
    path[0] = root_.get();
    value_type prev_bits = 0;
    unsigned prev_len = 0;
    for (const auto& r : list) {
        assert(r.next_hop != kNoRoute);
        const value_type bits = r.prefix.bits();
        const unsigned len = r.prefix.length();
        unsigned depth =
            netbase::common_prefix_length(prev_bits, bits, std::min(prev_len, len));
        Node* n = path[depth];
        for (; depth < len; ++depth) {
            auto& child = n->child[netbase::bit_at(bits, depth)];
            if (!child) {
                child = std::make_unique<Node>();
                ++nodes_;
            }
            n = child.get();
            path[depth + 1] = n;
        }
        if (n->has_route)
            displaced(n->next_hop);
        else
            ++routes_;
        n->has_route = true;
        n->next_hop = r.next_hop;
        prev_bits = bits;
        prev_len = len;
    }
}

template <class Addr>
void RadixTrie<Addr>::sort_routes(RouteList<Addr>& list)
{
    // Digit 0 is the length (the least significant key), digits 1..kBytes
    // the address bytes from the lowest up. All histograms come from one
    // read of the list: a digit's histogram does not depend on the order.
    constexpr unsigned kBytes = sizeof(value_type);
    constexpr unsigned kDigits = kBytes + 1;
    const auto digit = [](const Route<Addr>& r, unsigned d) -> unsigned {
        if (d == 0) return r.prefix.length();
        // shift-ok: 1 <= d <= kBytes, so the count is at most width - 8.
        return static_cast<unsigned>(r.prefix.bits() >> (8 * (d - 1))) & 0xFFu;
    };
    std::vector<std::array<std::size_t, 256>> count(kDigits);
    for (const auto& r : list)
        for (unsigned d = 0; d < kDigits; ++d) ++count[d][digit(r, d)];
    RouteList<Addr> out(list.size());
    for (unsigned d = 0; d < kDigits; ++d) {
        auto& at = count[d];
        if (at[digit(list.front(), d)] == list.size()) continue;  // one bucket: already in order
        std::size_t next = 0;
        for (auto& c : at) next += std::exchange(c, next);
        for (const auto& r : list) out[at[digit(r, d)]++] = r;
        list.swap(out);
    }
}

template <class Addr>
bool RadixTrie<Addr>::erase(const prefix_type& prefix)
{
    Node* n = walk_to(prefix);
    if (n == nullptr || !n->has_route) return false;
    n->has_route = false;
    n->next_hop = kNoRoute;
    --routes_;
    prune(prefix);
    return true;
}

template <class Addr>
typename RadixTrie<Addr>::Node* RadixTrie<Addr>::walk_to(const prefix_type& prefix) const noexcept
{
    Node* n = root_.get();
    for (unsigned depth = 0; n != nullptr && depth < prefix.length(); ++depth)
        n = n->child[netbase::bit_at(prefix.bits(), depth)].get();
    return n;
}

template <class Addr>
void RadixTrie<Addr>::prune(const prefix_type& prefix)
{
    // Re-walk the path recording it, then delete trailing route-less leaves.
    // Path length <= kWidth, so a fixed-size array suffices.
    Node* path[Addr::kWidth + 1];
    unsigned len = 0;
    Node* n = root_.get();
    path[len++] = n;
    for (unsigned depth = 0; n != nullptr && depth < prefix.length(); ++depth) {
        n = n->child[netbase::bit_at(prefix.bits(), depth)].get();
        if (n == nullptr) return;  // path vanished (shouldn't happen right after erase)
        path[len++] = n;
    }
    while (len > 1) {
        Node* leaf = path[len - 1];
        if (leaf->has_route || leaf->child[0] || leaf->child[1]) break;
        Node* parent = path[len - 2];
        const unsigned b = netbase::bit_at(prefix.bits(), len - 2);
        assert(parent->child[b].get() == leaf);
        parent->child[b].reset();
        --nodes_;
        --len;
    }
    if (root_ && !root_->has_route && !root_->child[0] && !root_->child[1]) {
        root_.reset();
        --nodes_;
    }
}

template <class Addr>
NextHop RadixTrie<Addr>::lookup(Addr addr) const noexcept
{
    const value_type key = addr.value();
    NextHop best = kNoRoute;
    const Node* n = root_.get();
    unsigned depth = 0;
    while (n != nullptr) {
        if (n->has_route) best = n->next_hop;
        if (depth == kWidth) break;
        n = n->child[netbase::bit_at(key, depth)].get();
        ++depth;
    }
    return best;
}

template <class Addr>
typename RadixTrie<Addr>::LookupDetail RadixTrie<Addr>::lookup_detail(Addr addr) const noexcept
{
    const value_type key = addr.value();
    LookupDetail out;
    const Node* n = root_.get();
    unsigned depth = 0;
    while (n != nullptr) {
        if (n->has_route) {
            out.next_hop = n->next_hop;
            out.matched_length = depth;
            out.matched = true;
        }
        out.radix_depth = depth;
        if (depth == kWidth) break;
        n = n->child[netbase::bit_at(key, depth)].get();
        ++depth;
    }
    return out;
}

template <class Addr>
NextHop RadixTrie<Addr>::find(const prefix_type& prefix) const noexcept
{
    const Node* n = walk_to(prefix);
    return (n != nullptr && n->has_route) ? n->next_hop : kNoRoute;
}

template <class Addr>
void RadixTrie<Addr>::mark_subtree(const prefix_type& prefix)
{
    // Mark the path from the root down (ancestors see a shape change when
    // nodes appear/disappear), then the affected subtree.
    Node* n = root_.get();
    if (n == nullptr) return;
    n->marked = true;
    for (unsigned depth = 0; n != nullptr && depth < prefix.length(); ++depth) {
        n = n->child[netbase::bit_at(prefix.bits(), depth)].get();
        if (n != nullptr) n->marked = true;
    }
    if (n == nullptr) return;
    // Below the prefix, resolution changes only where this route is the
    // longest match: stop at more specific routes.
    for (auto& c : n->child)
        if (c != nullptr && !c->has_route) mark_rec(c.get());
}

template <class Addr>
void RadixTrie<Addr>::clear_marks(const prefix_type& prefix)
{
    Node* n = root_.get();
    if (n == nullptr) return;
    n->marked = false;
    for (unsigned depth = 0; n != nullptr && depth < prefix.length(); ++depth) {
        n = n->child[netbase::bit_at(prefix.bits(), depth)].get();
        if (n != nullptr) n->marked = false;
    }
    if (n != nullptr) clear_rec(n);
}

using RadixTrie4 = RadixTrie<netbase::Ipv4Addr>;
using RadixTrie6 = RadixTrie<netbase::Ipv6Addr>;

extern template class RadixTrie<netbase::Ipv4Addr>;
extern template class RadixTrie<netbase::Ipv6Addr>;

}  // namespace rib
