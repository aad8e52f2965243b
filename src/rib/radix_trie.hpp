// rib/radix_trie.hpp — binary radix trie: the RIB substrate and a baseline.
//
// This is the paper's "binary radix tree": one node per bit level, two
// children. It serves three roles here:
//   1. the RIB all FIB structures are compiled from (§3: "the routes are
//      preserved in a separate routing table (RIB) such as radix or Patricia
//      trie"), and that the §3.5 updater patches the FIB from;
//   2. the slowest baseline in Tables 2/3 and Figure 9 ("Radix");
//   3. the reference implementation tests validate every other structure
//      against, and the source of the "binary radix depth" metric of Fig. 7.
//
// The nodes live in one array of 12-byte nodes linked by 32-bit index, in
// arena-backed storage that is reserved on the first insert and never moves
// (alloc/arena.hpp): a table load commits pages instead of allocating a heap
// object per node, and dropping the trie is one unmap. Nodes that erase()
// prunes go on a free list that later inserts take from first. insert_all()
// allocates a fresh trie's nodes in DFS order, so a compile that walks the
// trie reads the array front to back.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "alloc/arena.hpp"
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

    /// Index of a node in nodes().
    using Index = std::uint32_t;
    /// The root's index. The root is no node's child, so a child index of
    /// kRoot means "no child".
    static constexpr Index kRoot = 0;

    /// Trie node, exposed read-only (nodes()) so FIB compilers can walk it.
    struct Node {
        Index child[2] = {kRoot, kRoot};  ///< kRoot: no child on that side
        /// kNoRoute when no route ends here (it is never a route's target).
        NextHop next_hop = kNoRoute;

        [[nodiscard]] bool has_route() const noexcept { return next_hop != kNoRoute; }
        [[nodiscard]] bool has_children() const noexcept
        {
            return (child[0] | child[1]) != kRoot;
        }
    };
    static_assert(sizeof(Node) == 12);

    RadixTrie() noexcept = default;
    /// Moves take the storage whole; the source is left empty.
    RadixTrie(RadixTrie&&) noexcept = default;
    RadixTrie& operator=(RadixTrie&&) noexcept = default;

    /// Inserts `prefix -> next_hop`, replacing any existing route at the same
    /// prefix. `next_hop` must not be kNoRoute. Throws std::bad_alloc when
    /// the storage cannot be reserved or committed.
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
    [[nodiscard]] std::size_t route_count() const noexcept { return s_ ? s_->routes : 0; }

    /// Number of live trie nodes (free slots not counted).
    [[nodiscard]] std::size_t node_count() const noexcept { return s_ ? s_->live : 0; }

    /// True while the trie owns no storage: before the first insert, after
    /// the last route is erased, and after a move out of it.
    [[nodiscard]] bool empty() const noexcept { return s_ == nullptr; }

    /// Live node bytes (node_count() * sizeof(Node)), the number reported as
    /// "Radix" memory in Table 3.
    [[nodiscard]] std::size_t memory_bytes() const noexcept
    {
        return node_count() * sizeof(Node);
    }

    /// Every node slot, the root at kRoot; the slots on the free list are
    /// in it too, unreachable from the root. Empty (null data()) exactly
    /// when the trie is; otherwise the array stays in place until the trie
    /// is emptied or destroyed.
    [[nodiscard]] std::span<const Node> nodes() const noexcept
    {
        if (!s_) return {};
        return {s_->nodes.data(), s_->nodes.size()};
    }

    /// Visits every route as (prefix, next_hop) in trie (DFS, shorter-first)
    /// order.
    template <class F>
    void for_each_route(F&& fn) const
    {
        if (s_) walk(s_->nodes.data(), kRoot, prefix_type{}, fn);
    }

    /// Collects all routes into a list (convenience for generators/tests).
    [[nodiscard]] RouteList<Addr> routes() const
    {
        RouteList<Addr> out;
        out.reserve(route_count());
        for_each_route([&](const prefix_type& p, NextHop nh) { out.push_back({p, nh}); });
        return out;
    }

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
    // One index per node of the fullest trie the index type can address.
    static constexpr std::size_t kMaxNodes = std::size_t{1} << 32;

    // Everything a non-empty trie owns, heap-held so that the node array's
    // Arena* stays valid when the trie moves.
    struct Storage {
        alloc::Arena arena;
        alloc::ArenaVector<Node> nodes{&arena, kMaxNodes};
        Index free = kRoot;     // free-list head, linked through child[0]
        std::size_t live = 0;   // nodes reachable from the root
        std::size_t routes = 0;
    };

    // Stable LSD radix sort of `list` into Prefix order (address, then
    // length), one byte per pass, skipping every pass whose byte is the same
    // in all routes.
    static void sort_routes(RouteList<Addr>& list);

    // Reserves the storage and commits the root of an empty trie.
    void make_root();

    // A zeroed node: the free list's head, or a new slot at the end.
    Index alloc_node();

    // The node for `prefix`, nullptr if the path is absent.
    [[nodiscard]] Node* walk_to(const prefix_type& prefix) const noexcept;

    template <class F>
    static void walk(const Node* nodes, Index i, prefix_type at, F& fn)
    {
        const Node& n = nodes[i];
        if (n.has_route()) fn(at, n.next_hop);
        for (unsigned b = 0; b < 2; ++b)
            if (n.child[b] != kRoot) walk(nodes, n.child[b], at.child(b), fn);
    }

    // Frees the route-less leaf nodes on the path to `prefix` after an
    // erase; drops the storage when the root goes too.
    void prune(const prefix_type& prefix);

    std::unique_ptr<Storage> s_;  // null while the trie is empty
};

// ---------------------------------------------------------------------------
// Implementation (template; declarations explicitly instantiated in the .cpp
// for the two address families to keep client compile times down).

template <class Addr>
void RadixTrie<Addr>::make_root()
{
    auto s = std::make_unique<Storage>();
    s->nodes.resize(1);
    s->live = 1;
    s_ = std::move(s);
}

template <class Addr>
typename RadixTrie<Addr>::Index RadixTrie<Addr>::alloc_node()
{
    Storage& s = *s_;
    Index i = s.free;
    if (i != kRoot) {
        s.free = s.nodes[i].child[0];
        s.nodes[i] = Node{};
    } else {
        i = static_cast<Index>(s.nodes.size());
        s.nodes.emplace_back();
    }
    ++s.live;
    return i;
}

template <class Addr>
void RadixTrie<Addr>::insert(const prefix_type& prefix, NextHop next_hop)
{
    assert(next_hop != kNoRoute);
    if (!s_) make_root();
    Node* const nodes = s_->nodes.data();
    Index i = kRoot;
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
        Index& child = nodes[i].child[netbase::bit_at(prefix.bits(), depth)];
        if (child == kRoot) child = alloc_node();
        i = child;
    }
    if (!nodes[i].has_route()) ++s_->routes;
    nodes[i].next_hop = next_hop;
}

template <class Addr>
template <class Displaced>
void RadixTrie<Addr>::insert_all(RouteList<Addr> list, Displaced&& displaced)
{
    if (list.empty()) return;
    sort_routes(list);
    if (!s_) make_root();
    Node* const nodes = s_->nodes.data();
    // path[d] is the node at depth d on the previous route's path, valid for
    // d <= prev_len; the root starts every path.
    Index path[kWidth + 1];
    path[0] = kRoot;
    value_type prev_bits = 0;
    unsigned prev_len = 0;
    for (const auto& r : list) {
        assert(r.next_hop != kNoRoute);
        const value_type bits = r.prefix.bits();
        const unsigned len = r.prefix.length();
        unsigned depth =
            netbase::common_prefix_length(prev_bits, bits, std::min(prev_len, len));
        Index i = path[depth];
        for (; depth < len; ++depth) {
            Index& child = nodes[i].child[netbase::bit_at(bits, depth)];
            if (child == kRoot) child = alloc_node();
            i = child;
            path[depth + 1] = i;
        }
        Node& n = nodes[i];
        if (n.has_route())
            displaced(n.next_hop);
        else
            ++s_->routes;
        n.next_hop = r.next_hop;
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
    if (n == nullptr || !n->has_route()) return false;
    n->next_hop = kNoRoute;
    --s_->routes;
    prune(prefix);
    return true;
}

template <class Addr>
typename RadixTrie<Addr>::Node* RadixTrie<Addr>::walk_to(const prefix_type& prefix) const noexcept
{
    if (!s_) return nullptr;
    Node* const nodes = s_->nodes.data();
    Index i = kRoot;
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
        i = nodes[i].child[netbase::bit_at(prefix.bits(), depth)];
        if (i == kRoot) return nullptr;
    }
    return &nodes[i];
}

template <class Addr>
void RadixTrie<Addr>::prune(const prefix_type& prefix)
{
    // Re-walk the path recording it, then free trailing route-less leaves.
    // Path length <= kWidth, so a fixed-size array suffices.
    Storage& s = *s_;
    Node* const nodes = s.nodes.data();
    Index path[kWidth + 1];
    path[0] = kRoot;
    unsigned len = prefix.length();
    for (unsigned depth = 0; depth < len; ++depth)
        path[depth + 1] = nodes[path[depth]].child[netbase::bit_at(prefix.bits(), depth)];
    for (; len > 0; --len) {
        const Index leaf = path[len];
        if (nodes[leaf].has_route() || nodes[leaf].has_children()) return;
        Index& link = nodes[path[len - 1]].child[netbase::bit_at(prefix.bits(), len - 1)];
        assert(link == leaf);
        link = kRoot;
        nodes[leaf].child[0] = s.free;
        s.free = leaf;
        --s.live;
    }
    if (!nodes[kRoot].has_route() && !nodes[kRoot].has_children()) s_.reset();
}

template <class Addr>
NextHop RadixTrie<Addr>::lookup(Addr addr) const noexcept
{
    if (!s_) return kNoRoute;
    const value_type key = addr.value();
    const Node* const nodes = s_->nodes.data();
    NextHop best = kNoRoute;
    Index i = kRoot;
    for (unsigned depth = 0;; ++depth) {
        const Node& n = nodes[i];
        if (n.has_route()) best = n.next_hop;
        if (depth == kWidth) break;
        i = n.child[netbase::bit_at(key, depth)];
        if (i == kRoot) break;
    }
    return best;
}

template <class Addr>
typename RadixTrie<Addr>::LookupDetail RadixTrie<Addr>::lookup_detail(Addr addr) const noexcept
{
    LookupDetail out;
    if (!s_) return out;
    const value_type key = addr.value();
    const Node* const nodes = s_->nodes.data();
    Index i = kRoot;
    for (unsigned depth = 0;; ++depth) {
        const Node& n = nodes[i];
        if (n.has_route()) {
            out.next_hop = n.next_hop;
            out.matched_length = depth;
            out.matched = true;
        }
        out.radix_depth = depth;
        if (depth == kWidth) break;
        i = n.child[netbase::bit_at(key, depth)];
        if (i == kRoot) break;
    }
    return out;
}

template <class Addr>
NextHop RadixTrie<Addr>::find(const prefix_type& prefix) const noexcept
{
    const Node* n = walk_to(prefix);
    return n != nullptr ? n->next_hop : kNoRoute;
}

using RadixTrie4 = RadixTrie<netbase::Ipv4Addr>;
using RadixTrie6 = RadixTrie<netbase::Ipv6Addr>;

extern template class RadixTrie<netbase::Ipv4Addr>;
extern template class RadixTrie<netbase::Ipv6Addr>;

}  // namespace rib
