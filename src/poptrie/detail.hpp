// poptrie/detail.hpp — radix-tree expansion helpers shared by the Poptrie
// builder (builder.ipp) and the incremental updater (updater.ipp).
//
// Both compile FIB nodes out of the binary radix RIB by expanding it 2^k ways
// per poptrie level (k = 6), and both emit a node's leaf runs by one rule
// (LeafRuns). A `SlotCtx` is a cursor into the radix tree for
// one slot of a poptrie node: the child indices of the radix node the slot's
// path ends at (none when the path ends at a childless node or leaves the
// tree), the next hop inherited from the deepest route on the path, and that
// route's depth (used by the updater's shadowing test: a route deeper than
// the updated prefix makes the slot's whole subtree unaffected). Cursors read
// the RIB's node array through a `RibView`.
//
// An aggregating view (one that carries rib::classify()'s labels) walks the
// RIB as its §3 route-aggregated equivalent without building it: a child
// whose subtree resolves to one hop (rib::resolves_uniformly) becomes a leaf
// cursor that carries that hop, exactly where the aggregated RIB has no node
// or a childless one. The builder compiles such a cursor into the FIB that
// rib::aggregate()'s trie would give, slot for slot.
#pragma once

#include <cstdint>

#include "rib/aggregate.hpp"
#include "rib/radix_trie.hpp"

namespace poptrie::detail {

/// What cursors read: the RIB's nodes and, for an aggregating view, their
/// labels.
template <class Addr>
struct RibView {
    /// rib::RadixTrie::nodes().data(): null exactly when the RIB is empty.
    const typename rib::RadixTrie<Addr>::Node* nodes = nullptr;
    /// rib::classify() of the same RIB, or null to walk the RIB as it is.
    const rib::Label* labels = nullptr;
};

struct SlotCtx {
    /// The radix node's children (rib::RadixTrie::kRoot: none).
    std::uint32_t child[2] = {0, 0};
    rib::NextHop inherited = rib::kNoRoute;
    /// Absolute bit-depth of the deepest route folded into `inherited`
    /// (0 when inherited == kNoRoute, or for a default route — either way a
    /// depth-0 route can never shadow an update).
    unsigned route_depth = 0;
};

/// A slot is compiled to an internal node iff its radix subtree branches
/// further down; a childless radix node's own route is already folded into
/// `inherited` and becomes a plain leaf.
[[nodiscard]] inline bool is_internal(const SlotCtx& s) noexcept
{
    return (s.child[0] | s.child[1]) != 0;
}

/// Moves `ctx` onto radix node `i` at absolute bit-depth `depth`, folding its
/// route into `inherited`. An aggregating view stops at a node whose subtree
/// resolves to one hop: the cursor keeps that hop and no children.
template <class Addr>
inline void enter(SlotCtx& ctx, const RibView<Addr>& rib, std::uint32_t i,
                  unsigned depth) noexcept
{
    if (rib.labels != nullptr &&
        rib::resolves_uniformly(rib.labels[i], ctx.inherited, ctx.inherited)) {
        ctx.child[0] = ctx.child[1] = 0;
        return;
    }
    const auto& n = rib.nodes[i];
    ctx.child[0] = n.child[0];
    ctx.child[1] = n.child[1];
    if (n.has_route()) {
        ctx.inherited = n.next_hop;
        ctx.route_depth = depth;
    }
}

/// Moves `ctx` one bit down, to its radix child `b` at absolute bit-depth
/// `depth`. A missing child leaves a cursor without children that keeps the
/// inherited next hop, which is how shorter prefixes span many slots.
template <class Addr>
inline void descend(SlotCtx& ctx, const RibView<Addr>& rib, unsigned b, unsigned depth) noexcept
{
    const std::uint32_t i = ctx.child[b];
    if (i != 0) {
        enter(ctx, rib, i, depth);
    } else {
        ctx.child[0] = ctx.child[1] = 0;
    }
}

/// Expands `parent` (a cursor at absolute bit-depth `depth`) by `levels`
/// bits, invoking `emit(SlotCtx)` for each of the 2^levels slots in address
/// order.
template <class Addr, class F>
void expand(const RibView<Addr>& rib, const SlotCtx& parent, unsigned depth, unsigned levels,
            F&& emit)
{
    if (levels == 0 || !is_internal(parent)) {
        // Every slot under a cursor without children is that cursor.
        // shift-ok: levels <= kMaxDirectBits (30) < 64.
        for (std::uint64_t n = std::uint64_t{1} << levels; n != 0; --n) emit(parent);
        return;
    }
    for (unsigned b = 0; b < 2; ++b) {
        SlotCtx next = parent;
        descend(next, rib, b, depth + 1);
        expand(rib, next, depth + 1, levels - 1, emit);
    }
}

/// Cursor for the RIB root: the root's children with its own route (a
/// default route) already folded in, matching the invariant that a SlotCtx's
/// `inherited` includes the route at the node itself.
template <class Addr>
[[nodiscard]] SlotCtx root_ctx(const RibView<Addr>& rib) noexcept
{
    SlotCtx ctx;
    if (rib.nodes != nullptr) enter(ctx, rib, rib::RadixTrie<Addr>::kRoot, 0);
    return ctx;
}

/// Walks `levels` bits down from the root following the low `levels` bits of
/// `path` (the direct-pointing slot index), maintaining the SlotCtx
/// invariants. Used by the updater to locate one direct slot's cursor.
template <class Addr>
[[nodiscard]] SlotCtx walk_to(const RibView<Addr>& rib, std::uint64_t path,
                              unsigned levels) noexcept
{
    SlotCtx ctx = root_ctx(rib);
    for (unsigned d = 0; d < levels && is_internal(ctx); ++d) {
        // shift-ok: d < levels (loop bound) and levels <= direct_bits < 64,
        // so the count stays in [0, levels - 1].
        const unsigned b = static_cast<unsigned>((path >> (levels - 1 - d)) & 1);
        descend(ctx, rib, b, d + 1);
    }
    return ctx;
}

/// The RIB as a slot source (builder.ipp), read through cursors: the
/// constructors compile it and the updater rebuilds touched slots from it.
/// A slot is internal iff its radix subtree branches further down;
/// otherwise it holds the hop it inherits, and every leaf slot may start a
/// run.
template <class Addr>
struct RibSource {
    using Cursor = SlotCtx;

    /// One poptrie node's 64 slots.
    struct Slots {
        SlotCtx slot[64];
        std::uint64_t internal_slots = 0;

        [[nodiscard]] std::uint64_t internal() const noexcept { return internal_slots; }
        [[nodiscard]] std::uint64_t run_starts() const noexcept { return ~internal_slots; }
        [[nodiscard]] rib::NextHop hop(unsigned u) const noexcept { return slot[u].inherited; }
        [[nodiscard]] const SlotCtx& child(unsigned u) const noexcept { return slot[u]; }
    };

    RibView<Addr> rib;

    /// The root node's cursor (direct pointing off).
    [[nodiscard]] SlotCtx root() const noexcept { return root_ctx(rib); }
    /// The 64 slots of the node at cursor `at`, bit-depth `level`.
    [[nodiscard]] Slots slots(const SlotCtx& at, unsigned level) const
    {
        Slots s;
        unsigned u = 0;
        expand(rib, at, level, 6, [&](const SlotCtx& c) {
            // shift-ok: expand() emits 2^6 slots, so u stays in [0, 63].
            if (is_internal(c)) s.internal_slots |= std::uint64_t{1} << u;
            s.slot[u++] = c;
        });
        return s;
    }
    /// Calls `f(root, hop)` for each of the 2^bits direct slots in address
    /// order: `root` points at the cursor of a slot that compiles to a node,
    /// and is null for one that holds `hop`.
    template <class F>
    void for_each_direct(unsigned bits, F&& f) const
    {
        expand(rib, root(), 0, bits,
               [&](const SlotCtx& s) { f(is_internal(s) ? &s : nullptr, s.inherited); });
    }
};

/// A node's leaf runs as §3.3's leafvec rule emits them, slot by slot in
/// address order: with leaf compression a leaf slot starts a run (a leafvec
/// bit and a value) only when its value differs from the previous run's,
/// and internal slots in between do not break a run (Fig. 3); without it
/// every leaf slot is a run of its own and leafvec stays 0.
struct LeafRuns {
    explicit LeafRuns(bool compress) noexcept : compress(compress) {}

    /// Emits leaf slot `u` (< 64) holding `v`.
    void push(rib::NextHop v, unsigned u) noexcept
    {
        if (compress) {
            if (count != 0 && v == values[count - 1]) return;
            // shift-ok: u is one of a 64-ary node's slots, in [0, 63].
            leafvec |= std::uint64_t{1} << u;
        }
        values[count++] = v;
    }

    bool compress;
    std::uint64_t leafvec = 0;
    rib::NextHop values[64];
    unsigned count = 0;
};

}  // namespace poptrie::detail
