// poptrie/detail.hpp — radix-tree expansion helpers shared by the Poptrie
// builder (builder.ipp) and the incremental updater (updater.ipp).
//
// Both compile FIB nodes out of the binary radix RIB by expanding it 2^k ways
// per poptrie level (k = 6). A `SlotCtx` is a cursor into the radix tree for
// one slot of a poptrie node: the radix node the slot's path ends at (if
// any), the next hop inherited from the deepest route on the path, and that
// route's depth (used by the updater's shadowing test: a route deeper than
// the updated prefix makes the slot's whole subtree unaffected).
//
// An aggregating cursor (aggregated_root_ctx) walks the RIB as its §3
// route-aggregated equivalent without building it: a child whose subtree
// resolves to one hop (rib::resolves_uniformly) becomes a leaf cursor that
// carries that hop, exactly where the aggregated RIB has no node or a
// childless one. The builder compiles such a cursor into the FIB that
// rib::aggregate()'s trie would give, slot for slot.
#pragma once

#include <cstdint>
#include <span>

#include "rib/aggregate.hpp"
#include "rib/radix_trie.hpp"

namespace poptrie::detail {

template <class Addr>
struct SlotCtx {
    const typename rib::RadixTrie<Addr>::Node* node = nullptr;
    rib::NextHop inherited = rib::kNoRoute;
    /// The cursor walks the aggregated view of a classified RIB (above).
    bool aggregated = false;
    /// Absolute bit-depth of the deepest route folded into `inherited`
    /// (0 when inherited == kNoRoute, or for a default route — either way a
    /// depth-0 route can never shadow an update).
    unsigned route_depth = 0;
};

/// A slot is compiled to an internal node iff its radix subtree branches
/// further down; a childless radix node's own route is already folded into
/// `inherited` and becomes a plain leaf.
template <class Addr>
[[nodiscard]] inline bool is_internal(const SlotCtx<Addr>& s) noexcept
{
    return s.node != nullptr && (s.node->child[0] != nullptr || s.node->child[1] != nullptr);
}

/// Moves `ctx` one bit down, to the radix child `child` at absolute bit-depth
/// `depth`. A missing child leaves a null cursor that keeps the inherited
/// next hop, which is how shorter prefixes span many slots; an aggregating
/// cursor also stops at a child whose subtree resolves to one hop.
template <class Addr>
inline void descend(SlotCtx<Addr>& ctx, const typename rib::RadixTrie<Addr>::Node* child,
                    unsigned depth) noexcept
{
    ctx.node = child;
    if (child == nullptr) return;
    if (ctx.aggregated && rib::resolves_uniformly(*child, ctx.inherited, ctx.inherited)) {
        ctx.node = nullptr;
    } else if (child->has_route) {
        ctx.inherited = child->next_hop;
        ctx.route_depth = depth;
    }
}

/// Expands `parent` (a cursor at absolute bit-depth `depth`) by `levels`
/// bits, invoking `emit(SlotCtx)` for each of the 2^levels slots in address
/// order.
template <class Addr, class F>
void expand(SlotCtx<Addr> parent, unsigned depth, unsigned levels, F&& emit)
{
    if (levels == 0) {
        emit(parent);
        return;
    }
    for (unsigned b = 0; b < 2; ++b) {
        SlotCtx<Addr> next = parent;
        if (parent.node != nullptr) descend(next, parent.node->child[b].get(), depth + 1);
        expand(next, depth + 1, levels - 1, emit);
    }
}

/// Convenience: fills a 64-entry array with one poptrie stride of slots.
template <class Addr>
void expand_stride(const SlotCtx<Addr>& parent, unsigned depth, std::span<SlotCtx<Addr>, 64> out)
{
    unsigned pos = 0;
    expand(parent, depth, 6, [&](const SlotCtx<Addr>& s) { out[pos++] = s; });
}

/// Cursor for the RIB root: the root node with its own route (a default
/// route) already folded in, matching the invariant that a SlotCtx's
/// `inherited` includes the route at `node` itself.
template <class Addr>
[[nodiscard]] SlotCtx<Addr> root_ctx(const rib::RadixTrie<Addr>& rib) noexcept
{
    SlotCtx<Addr> ctx;
    descend(ctx, rib.root(), 0);
    return ctx;
}

/// Aggregating cursor for the RIB root (see the file comment). Classifies
/// `rib` first, so it takes the single-threaded access rib::classify needs.
template <class Addr>
[[nodiscard]] SlotCtx<Addr> aggregated_root_ctx(const rib::RadixTrie<Addr>& rib)
{
    rib::classify(rib);
    SlotCtx<Addr> ctx{.aggregated = true};
    descend(ctx, rib.root(), 0);
    return ctx;
}

/// Walks `levels` bits down from the root following the low `levels` bits of
/// `path` (the direct-pointing slot index), maintaining the SlotCtx
/// invariants. Used by the updater to locate one direct slot's cursor.
template <class Addr>
[[nodiscard]] SlotCtx<Addr> walk_to(const rib::RadixTrie<Addr>& rib, std::uint64_t path,
                                    unsigned levels) noexcept
{
    SlotCtx<Addr> ctx = root_ctx(rib);
    for (unsigned d = 0; d < levels; ++d) {
        if (ctx.node == nullptr) break;
        // shift-ok: d < levels (loop bound) and levels <= direct_bits < 64,
        // so the count stays in [0, levels - 1].
        const unsigned b = static_cast<unsigned>((path >> (levels - 1 - d)) & 1);
        descend(ctx, ctx.node->child[b].get(), d + 1);
    }
    return ctx;
}

}  // namespace poptrie::detail
