// analysis/lookup_cost.cpp — the counting view behind analysis::lookup_cost.
#include "analysis/lookup_cost.hpp"

#include <algorithm>

#include "analysis/audit.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/ipv6.hpp"

namespace analysis {

double LookupCost::mean_depth() const noexcept
{
    std::uint64_t nodes = 0;
    for (std::size_t d = 0; d < depth.size(); ++d) nodes += d * depth[d];
    return per_lookup(nodes);
}

namespace {

/// What one lookup has read so far.
struct Tally {
    /// What a load reads: one step of the chain is one kind at one index.
    enum class Step : std::uint8_t { kNone, kDirect, kNode, kLeaf, kFoldedLeafvec, kFoldedCode };

    void begin() noexcept
    {
        nlines = 0;
        step = Step::kNone;
        loads = nodes = 0;
        folded = false;
    }

    /// Records a load of `bytes` at `p` as part of step (`kind`, `index`).
    void read(Step kind, std::uint64_t index, const void* p, std::size_t bytes) noexcept
    {
        if (kind != step || index != step_index) {
            step = kind;
            step_index = index;
            step_counted = false;
            nodes += kind == Step::kNode;
        }
        const auto addr = reinterpret_cast<std::uintptr_t>(p);
        for (std::uintptr_t line = addr / 64; line <= (addr + bytes - 1) / 64; ++line) {
            if (std::find(lines.begin(), lines.begin() + nlines, line) != lines.begin() + nlines)
                continue;
            if (nlines < lines.size()) lines[nlines++] = line;
            loads += !step_counted;
            step_counted = true;
        }
    }

    std::array<std::uintptr_t, 64> lines{};  // distinct lines read, in order
    std::size_t nlines = 0;
    Step step = Step::kNone;
    std::uint64_t step_index = 0;
    bool step_counted = false;
    unsigned loads = 0;
    unsigned nodes = 0;
    bool folded = false;
};

/// A PlainView whose every load also lands in a Tally. Reads the same
/// fields in the same order as the view it wraps, so lookup_one walks it
/// unchanged.
template <class ValueType, class NodeT>
class CountingView {
public:
    using value_type = ValueType;
    using Node = NodeT;
    using Plain = poptrie::batch::PlainView<ValueType, NodeT>;
    using Step = Tally::Step;

    CountingView(const Plain& view, Tally& tally) : v_(view), t_(&tally) {}

    [[nodiscard]] std::uint32_t direct_slot(std::size_t slot) const noexcept
    {
        t_->read(Step::kDirect, slot, &v_.direct[slot], sizeof(std::uint32_t));
        return v_.direct_slot(slot);
    }
    /// Held in the view, like PlainView's: no load.
    [[nodiscard]] std::uint32_t root_index() const noexcept { return v_.root_index(); }
    [[nodiscard]] std::uint64_t node_vector(std::uint32_t i) const noexcept
    {
        t_->read(Step::kNode, i, &v_.nodes[i].vector, sizeof(std::uint64_t));
        return v_.node_vector(i);
    }
    [[nodiscard]] std::uint64_t node_leafvec(std::uint32_t i) const noexcept
    {
        t_->read(Step::kNode, i, &v_.nodes[i].leafvec, sizeof(std::uint64_t));
        return v_.node_leafvec(i);
    }
    [[nodiscard]] std::uint32_t node_base0(std::uint32_t i) const noexcept
    {
        t_->read(Step::kNode, i, &v_.nodes[i].base0, sizeof(std::uint32_t));
        return v_.node_base0(i);
    }
    [[nodiscard]] std::uint32_t node_base1(std::uint32_t i) const noexcept
    {
        t_->read(Step::kNode, i, &v_.nodes[i].base1, sizeof(std::uint32_t));
        return v_.node_base1(i);
    }
    [[nodiscard]] rib::NextHop leaf(std::uint32_t i) const noexcept
    {
        const bool coded = (i & poptrie::kLeaf8Bit) != 0;
        t_->read(Step::kLeaf, i, v_.leaf_line(i), coded ? 1 : sizeof(rib::NextHop));
        return v_.leaf(i);
    }
    [[nodiscard]] rib::NextHop folded(std::uint32_t at, std::uint64_t v) const noexcept
    {
        const std::uint64_t leafvec = poptrie::batch::folded_leafvec(v_.leaves8, at);
        t_->read(Step::kFoldedLeafvec, at, v_.leaves8 + at, sizeof leafvec);
        const auto bc = static_cast<std::uint32_t>(netbase::popcount64(
            leafvec & netbase::low_mask_inclusive(static_cast<unsigned>(v))));
        t_->read(Step::kFoldedCode, at, v_.leaves8 + at + sizeof leafvec + bc - 1, 1);
        t_->folded = true;
        return v_.folded(at, v);
    }

private:
    Plain v_;
    Tally* t_;
};

}  // namespace

template <class Addr>
LookupCost lookup_cost(const typename poptrie::Poptrie<Addr>::View& view,
                       const typename Addr::value_type* keys, std::size_t n)
{
    using View = typename poptrie::Poptrie<Addr>::View;
    Tally tally;
    const CountingView<typename View::value_type, typename View::Node> counting(view, tally);
    LookupCost cost;
    for (std::size_t i = 0; i < n; ++i) {
        tally.begin();
        if (view.leaf_compression)
            static_cast<void>(poptrie::batch::lookup_one<true>(counting, keys[i], view.direct_bits));
        else
            static_cast<void>(poptrie::batch::lookup_one<false>(counting, keys[i], view.direct_bits));
        ++cost.lookups;
        cost.lines += tally.nlines;
        cost.dependent_loads += tally.loads;
        cost.folded += tally.folded;
        cost.direct_hits += view.direct_bits != 0 && tally.nodes == 0 && !tally.folded;
        ++cost.depth[std::min<std::size_t>(tally.nodes, LookupCost::kMaxDepth)];
    }
    return cost;
}

template <class Addr>
LookupCost lookup_cost(const poptrie::Poptrie<Addr>& pt, const typename Addr::value_type* keys,
                       std::size_t n)
{
    return lookup_cost<Addr>(AuditAccess::pools(pt).view(pt.config()), keys, n);
}

template LookupCost lookup_cost<netbase::Ipv4Addr>(const poptrie::Poptrie<netbase::Ipv4Addr>::View&,
                                                   const std::uint32_t*, std::size_t);
template LookupCost lookup_cost<netbase::Ipv6Addr>(const poptrie::Poptrie<netbase::Ipv6Addr>::View&,
                                                   const netbase::Ipv6Addr::value_type*,
                                                   std::size_t);
template LookupCost lookup_cost<netbase::Ipv4Addr>(const poptrie::Poptrie<netbase::Ipv4Addr>&,
                                                   const std::uint32_t*, std::size_t);
template LookupCost lookup_cost<netbase::Ipv6Addr>(const poptrie::Poptrie<netbase::Ipv6Addr>&,
                                                   const netbase::Ipv6Addr::value_type*,
                                                   std::size_t);

}  // namespace analysis
