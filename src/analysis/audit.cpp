// analysis/audit.cpp — implementation of the structural invariant auditor.
#include "analysis/audit.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "netbase/ipv4.hpp"
#include "netbase/ipv6.hpp"
#include "workload/xorshift.hpp"

namespace analysis {

void AuditReport::add(const std::string& check, const std::string& detail)
{
    ++total_violations_;
    if (violations_.size() < kMaxRecorded) violations_.push_back({check, detail});
}

void AuditReport::merge(const AuditReport& other, const std::string& prefix)
{
    for (const auto& v : other.violations_)
        if (violations_.size() < kMaxRecorded) violations_.push_back({prefix + v.check, v.detail});
    total_violations_ += other.total_violations_;
    nodes_checked += other.nodes_checked;
    leaves_checked += other.leaves_checked;
    direct_slots_checked += other.direct_slots_checked;
    free_blocks_checked += other.free_blocks_checked;
    probes_checked += other.probes_checked;
}

std::string AuditReport::summary() const
{
    std::string out = "audit: " + std::to_string(nodes_checked) + " nodes, " +
                      std::to_string(leaves_checked) + " leaves, " +
                      std::to_string(direct_slots_checked) + " direct slots, " +
                      std::to_string(free_blocks_checked) + " free blocks, " +
                      std::to_string(probes_checked) + " probes; " +
                      std::to_string(total_violations_) + " violation(s)\n";
    for (const auto& v : violations_) out += "  [" + v.check + "] " + v.detail + "\n";
    if (total_violations_ > violations_.size())
        out += "  ... " + std::to_string(total_violations_ - violations_.size()) +
               " further violation(s) not recorded\n";
    return out;
}

// ---------------------------------------------------------------------------
// BuddyAllocator

AuditReport audit_allocator(const alloc::BuddyAllocator& alloc)
{
    AuditReport r;
    auto blocks = alloc.free_blocks();
    r.free_blocks_checked = blocks.size();

    std::uint64_t free_total = 0;
    for (const auto& b : blocks) {
        free_total += b.size;
        if (!std::has_single_bit(b.size))
            r.add("free-block-not-pow2",
                  "block at " + std::to_string(b.offset) + " has size " +
                      std::to_string(b.size));
        if (b.size != 0 && b.offset % b.size != 0)
            r.add("free-block-misaligned", "block at " + std::to_string(b.offset) +
                                               " size " + std::to_string(b.size));
        if (std::uint64_t{b.offset} + b.size > alloc.capacity())
            r.add("free-block-out-of-range",
                  "block at " + std::to_string(b.offset) + " size " +
                      std::to_string(b.size) + " exceeds capacity " +
                      std::to_string(alloc.capacity()));
    }

    std::sort(blocks.begin(), blocks.end(),
              [](const auto& a, const auto& b) { return a.offset < b.offset; });
    for (std::size_t i = 1; i < blocks.size(); ++i) {
        const auto& prev = blocks[i - 1];
        const auto& cur = blocks[i];
        if (std::uint64_t{prev.offset} + prev.size > cur.offset)
            r.add("free-block-overlap", "blocks at " + std::to_string(prev.offset) +
                                            "(+" + std::to_string(prev.size) + ") and " +
                                            std::to_string(cur.offset) + " overlap");
        // Equal-sized adjacent buddies must have been coalesced eagerly.
        if (prev.size == cur.size && (prev.offset ^ cur.offset) == prev.size &&
            prev.offset % (prev.size * 2) == 0)
            r.add("free-buddies-uncoalesced",
                  "buddy pair at " + std::to_string(prev.offset) + " and " +
                      std::to_string(cur.offset) + " size " + std::to_string(prev.size));
    }

    if (free_total + alloc.used() != alloc.capacity())
        r.add("free-used-capacity-mismatch",
              "free " + std::to_string(free_total) + " + used " +
                  std::to_string(alloc.used()) + " != capacity " +
                  std::to_string(alloc.capacity()));
    return r;
}

// ---------------------------------------------------------------------------
// EbrDomain

AuditReport audit_ebr(const psync::EbrDomain& domain)
{
    AuditReport r;
    const auto d = domain.diag();
    if (!d.limbo_sorted) r.add("ebr-limbo-unsorted", "retire epochs are not monotone");
    if (d.newest_retired_epoch && *d.newest_retired_epoch > d.current_epoch)
        r.add("ebr-retired-epoch-ahead",
              "retired at epoch " + std::to_string(*d.newest_retired_epoch) +
                  " > current " + std::to_string(d.current_epoch));
    if (d.oldest_retired_epoch && d.newest_retired_epoch &&
        *d.oldest_retired_epoch > *d.newest_retired_epoch)
        r.add("ebr-limbo-unsorted", "oldest retired epoch above newest");
    if (d.min_active_epoch && *d.min_active_epoch > d.current_epoch)
        r.add("ebr-reader-epoch-ahead",
              "reader active at epoch " + std::to_string(*d.min_active_epoch) +
                  " > current " + std::to_string(d.current_epoch));
    return r;
}

// ---------------------------------------------------------------------------
// Poptrie structural walk

namespace {

std::string format_addr(netbase::Ipv4Addr a) { return netbase::to_string(a); }
std::string format_addr(netbase::Ipv6Addr a) { return netbase::to_string(a); }

/// One live allocation extent reconstructed from the trie walk: `count`
/// requested slots occupying the rounded `size` block at `offset`.
struct LiveRun {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;   // power-of-two block extent
    std::uint32_t count = 0;  // slots actually in use
};

/// The live runs of one FIB in DFS order (roots, child arrays, leaf runs).
/// Dict-coded runs live in the dense 8-bit code array: size == count.
struct LiveRuns {
    std::vector<LiveRun> nodes;
    std::vector<LiveRun> leaves;
    std::vector<LiveRun> leaves8;
};

/// Walks the reachable structure of one FIB's arrays, recording violations
/// and live runs. Template over Addr only for the node type and width.
template <class Addr>
class StructureWalker {
public:
    using PT = poptrie::Poptrie<Addr>;
    using Node = typename PT::Node;

    StructureWalker(const typename PT::View& view, AuditReport& r, LiveRuns& runs)
        : view_(view), report_(r), runs_(runs), visited_(view.node_count, false)
    {
    }

    /// Audits every entry point: the root, or each direct slot (a leaf
    /// payload, or a root node index).
    void walk()
    {
        if (view_.direct_bits == 0) {
            walk_root(view_.root, 0, "root");
            return;
        }
        const std::uint64_t want = std::uint64_t{1} << view_.direct_bits;
        if (view_.direct_count != want) {
            report_.add("direct-size-mismatch", std::to_string(view_.direct_count) +
                                                    " slots, expected " +
                                                    std::to_string(want));
            return;
        }
        for (std::uint64_t d = 0; d < view_.direct_count; ++d) {
            ++report_.direct_slots_checked;
            const std::uint32_t v = view_.direct[d];
            if (v & PT::kDirectLeafBit) {
                // Payload must be a representable next hop (16 bits).
                if ((v & ~PT::kDirectLeafBit) > 0xFFFFu)
                    report_.add("direct-leaf-overflow",
                                "slot " + std::to_string(d) + " payload " +
                                    std::to_string(v & ~PT::kDirectLeafBit));
            } else {
                walk_root(v, view_.direct_bits, "direct[" + std::to_string(d) + "]");
            }
        }
    }

private:
    /// Audits the single-node block at `index` (a root published in a
    /// direct slot or as the root index) and the subtree below it.
    void walk_root(std::uint32_t index, unsigned level, const std::string& where)
    {
        if (index >= view_.node_count) {
            report_.add("root-index-out-of-range",
                        where + ": node index " + std::to_string(index) + " >= pool size " +
                            std::to_string(view_.node_count));
            return;
        }
        runs_.nodes.push_back({index, 1, 1});
        walk_node(index, level, where);
    }

    void walk_node(std::uint32_t index, unsigned level, const std::string& where)
    {
        if (visited_[index]) {
            report_.add("node-aliased", where + ": node " + std::to_string(index) +
                                            " reachable twice");
            return;
        }
        visited_[index] = true;
        ++report_.nodes_checked;
        if (level >= PT::kWidth) {
            // Internal nodes below the address width cannot exist: every
            // radix path has ended, so the builder always emits leaves here.
            report_.add("depth-exceeded", where + ": internal node at bit level " +
                                              std::to_string(level));
            return;
        }

        const Node& n = view_.nodes[index];
        const auto nkids = static_cast<std::uint32_t>(netbase::popcount64(n.vector));
        std::uint32_t nleaves = 0;
        if (view_.leaf_compression) {
            nleaves = static_cast<std::uint32_t>(netbase::popcount64(n.leafvec));
            if ((n.leafvec & n.vector) != 0)
                report_.add("leafvec-overlaps-vector",
                            where + ": node " + std::to_string(index) +
                                " has leafvec bits on internal slots");
            if (n.vector != ~std::uint64_t{0}) {
                const auto first_leaf_slot =
                    static_cast<unsigned>(std::countr_one(n.vector));
                if (((n.leafvec >> first_leaf_slot) & 1) == 0)
                    report_.add("leafvec-first-run-missing",
                                where + ": node " + std::to_string(index) +
                                    " first leaf slot " + std::to_string(first_leaf_slot) +
                                    " does not start a run");
            }
        } else {
            nleaves = 64 - nkids;
            if (n.leafvec != 0)
                report_.add("leafvec-set-in-basic-mode",
                            where + ": node " + std::to_string(index));
        }

        // Leaf run: bounds, alignment (16-bit pool only — dict-coded runs
        // are dense, unaligned bump placements), minimality over the
        // *decoded* values either way.
        if (nleaves != 0 && (n.base0 & poptrie::kLeaf8Bit)) {
            const std::uint32_t off = n.base0 & ~poptrie::kLeaf8Bit;
            if (std::uint64_t{off} + nleaves > view_.leaf8_count) {
                report_.add("leaf8-run-out-of-range",
                            where + ": node " + std::to_string(index) + " code offset " +
                                std::to_string(off) + " +" + std::to_string(nleaves) +
                                " > code array size " + std::to_string(view_.leaf8_count));
            } else {
                runs_.leaves8.push_back({off, nleaves, nleaves});
                report_.leaves_checked += nleaves;
                bool codes_ok = true;
                for (std::uint32_t i = 0; i < nleaves; ++i) {
                    if (view_.leaves8[off + i] >= view_.leaf_dict_count) {
                        report_.add("leaf8-code-out-of-dict",
                                    where + ": node " + std::to_string(index) + " code " +
                                        std::to_string(view_.leaves8[off + i]) +
                                        " >= dictionary size " +
                                        std::to_string(view_.leaf_dict_count));
                        codes_ok = false;
                    }
                }
                if (codes_ok && view_.leaf_compression)
                    check_minimal(index, n.base0, nleaves, where, "dict-coded leaves ");
            }
        } else if (nleaves != 0) {
            const auto block = alloc::BuddyAllocator::block_size_for(nleaves);
            if (std::uint64_t{n.base0} + block > view_.leaf_count) {
                report_.add("leaf-run-out-of-range",
                            where + ": node " + std::to_string(index) + " base0 " +
                                std::to_string(n.base0) + " +" + std::to_string(block) +
                                " > pool size " + std::to_string(view_.leaf_count));
            } else {
                if (n.base0 % block != 0)
                    report_.add("leaf-run-misaligned",
                                where + ": node " + std::to_string(index) + " base0 " +
                                    std::to_string(n.base0) + " not aligned to " +
                                    std::to_string(block));
                runs_.leaves.push_back({n.base0, block, nleaves});
                report_.leaves_checked += nleaves;
                if (view_.leaf_compression)
                    check_minimal(index, n.base0, nleaves, where, "leaves ");
            }
        }

        // Child run: bounds, alignment, then recurse.
        if (nkids != 0) {
            const auto block = alloc::BuddyAllocator::block_size_for(nkids);
            if (std::uint64_t{n.base1} + block > view_.node_count) {
                report_.add("node-run-out-of-range",
                            where + ": node " + std::to_string(index) + " base1 " +
                                std::to_string(n.base1) + " +" + std::to_string(block) +
                                " > pool size " + std::to_string(view_.node_count));
                return;  // children unreadable
            }
            if (n.base1 % block != 0)
                report_.add("node-run-misaligned",
                            where + ": node " + std::to_string(index) + " base1 " +
                                std::to_string(n.base1) + " not aligned to " +
                                std::to_string(block));
            runs_.nodes.push_back({n.base1, block, nkids});
            for (std::uint32_t i = 0; i < nkids; ++i)
                walk_node(n.base1 + i, level + PT::kStride, where);
        }
    }

    /// Leafvec runs are minimal: two adjacent leaves never repeat a next hop.
    void check_minimal(std::uint32_t index, std::uint32_t base0, std::uint32_t nleaves,
                       const std::string& where, const char* what)
    {
        for (std::uint32_t i = 1; i < nleaves; ++i) {
            const rib::NextHop hop = view_.leaf(base0 + i);
            if (hop == view_.leaf(base0 + i - 1))
                report_.add("leaf-run-not-minimal",
                            where + ": node " + std::to_string(index) + " " + what +
                                std::to_string(i - 1) + "," + std::to_string(i) +
                                " repeat next hop " + std::to_string(hop));
        }
    }

    const typename PT::View& view_;
    AuditReport& report_;
    LiveRuns& runs_;
    std::vector<bool> visited_;
};

/// Cross-checks the live runs collected by the walk against one buddy
/// allocator: runs must not overlap each other or any free block, and once
/// nothing is waiting in limbo the allocator's used() must equal the sum of
/// live blocks exactly (anything else is a leak or a premature free).
void check_runs_against_allocator(AuditReport& r, std::vector<LiveRun> runs,
                                  const alloc::BuddyAllocator& alloc, std::size_t ebr_pending,
                                  std::uint64_t expected_count, const std::string& what)
{
    std::sort(runs.begin(), runs.end(),
              [](const LiveRun& a, const LiveRun& b) { return a.offset < b.offset; });
    std::uint64_t live_total = 0;
    std::uint64_t count_total = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        live_total += runs[i].size;
        count_total += runs[i].count;
        if (i != 0 && std::uint64_t{runs[i - 1].offset} + runs[i - 1].size > runs[i].offset)
            r.add(what + "-runs-overlap",
                  "blocks at " + std::to_string(runs[i - 1].offset) + "(+" +
                      std::to_string(runs[i - 1].size) + ") and " +
                      std::to_string(runs[i].offset) + " overlap");
    }

    auto free_blocks = alloc.free_blocks();
    std::sort(free_blocks.begin(), free_blocks.end(),
              [](const auto& a, const auto& b) { return a.offset < b.offset; });
    // Two-pointer sweep: every live run must sit strictly outside free space.
    std::size_t f = 0;
    for (const auto& run : runs) {
        while (f < free_blocks.size() &&
               std::uint64_t{free_blocks[f].offset} + free_blocks[f].size <= run.offset)
            ++f;
        if (f < free_blocks.size() &&
            free_blocks[f].offset < std::uint64_t{run.offset} + run.size)
            r.add(what + "-run-overlaps-free",
                  "live block at " + std::to_string(run.offset) + "(+" +
                      std::to_string(run.size) + ") intersects free block at " +
                      std::to_string(free_blocks[f].offset) + "(+" +
                      std::to_string(free_blocks[f].size) + ")");
    }

    if (count_total != expected_count)
        r.add(what + "-count-mismatch", "reachable " + std::to_string(count_total) +
                                            " slots, accounting says " +
                                            std::to_string(expected_count));
    if (live_total > alloc.used())
        r.add(what + "-used-underflow",
              "live blocks cover " + std::to_string(live_total) + " slots but used() is " +
                  std::to_string(alloc.used()));
    else if (ebr_pending == 0 && live_total != alloc.used())
        r.add(what + "-leak", "used() " + std::to_string(alloc.used()) + " != live " +
                                  std::to_string(live_total) + " with empty limbo");
}

/// Post-compaction layout check: compact() places runs at exactly the DFS
/// aligned-bump offsets, and the walker records runs in exactly compact()'s
/// traversal order, so the canonical layout can be replayed and compared
/// run by run. The bump rule (Poptrie::bump_offset) is a static shared with
/// the compactor and independent of the address family.
void check_compacted_layout(AuditReport& r, const std::vector<LiveRun>& runs,
                            const alloc::BuddyAllocator& alloc, const std::string& what)
{
    std::uint64_t cursor = 0;
    for (const auto& run : runs) {
        const std::uint32_t expect =
            poptrie::Poptrie<netbase::Ipv4Addr>::bump_offset(cursor, run.count);
        if (run.offset != expect) {
            r.add(what + "-not-compacted",
                  "run of " + std::to_string(run.count) + " at " +
                      std::to_string(run.offset) + ", canonical DFS layout says " +
                      std::to_string(expect));
            return;  // every later offset shifts too; one violation suffices
        }
        cursor = std::uint64_t{expect} + run.size;
    }
    if (alloc.high_water() != cursor)
        r.add(what + "-not-dense", "allocator high water " +
                                       std::to_string(alloc.high_water()) +
                                       " != compacted layout extent " +
                                       std::to_string(cursor));
}

/// Dict-coded run checks: no two tagged runs may share code slots, the live
/// count must match the trie's leaf8 accounting, and the dictionary must be
/// sorted strictly ascending (compact() emits it that way — a violation
/// means someone scribbled on it). Under expect_compacted the runs must
/// additionally replay compact()'s dense bump exactly: run i starts where
/// run i-1 ended and the array holds not one code more.
void check_leaf8_runs(AuditReport& r, std::vector<LiveRun> runs, std::size_t code_array_size,
                      const std::vector<rib::NextHop>& dict_values,
                      std::uint64_t expected_count, bool expect_compacted)
{
    for (std::size_t i = 1; i < dict_values.size(); ++i)
        if (dict_values[i] <= dict_values[i - 1])
            r.add("leaf8-dict-unsorted",
                  "dictionary entries " + std::to_string(i - 1) + "," + std::to_string(i) +
                      " not strictly ascending (" + std::to_string(dict_values[i - 1]) +
                      ", " + std::to_string(dict_values[i]) + ")");

    if (expect_compacted) {
        // DFS order, pre-sort: the walker records runs in compact()'s
        // traversal order, so the dense replay compares run by run.
        std::uint64_t cursor = 0;
        bool dense_ok = true;
        for (const auto& run : runs) {
            if (run.offset != cursor) {
                r.add("leaf8-not-compacted",
                      "dict-coded run of " + std::to_string(run.count) + " at " +
                          std::to_string(run.offset) + ", dense DFS layout says " +
                          std::to_string(cursor));
                dense_ok = false;
                break;  // every later offset shifts too
            }
            cursor += run.count;
        }
        if (dense_ok && cursor != code_array_size)
            r.add("leaf8-not-dense", "code array size " + std::to_string(code_array_size) +
                                         " != dense layout extent " + std::to_string(cursor));
    }

    std::sort(runs.begin(), runs.end(),
              [](const LiveRun& a, const LiveRun& b) { return a.offset < b.offset; });
    std::uint64_t count_total = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        count_total += runs[i].count;
        if (i != 0 && std::uint64_t{runs[i - 1].offset} + runs[i - 1].count > runs[i].offset)
            r.add("leaf8-runs-overlap",
                  "code runs at " + std::to_string(runs[i - 1].offset) + "(+" +
                      std::to_string(runs[i - 1].count) + ") and " +
                      std::to_string(runs[i].offset) + " overlap");
    }
    if (count_total != expected_count)
        r.add("leaf8-count-mismatch", "reachable " + std::to_string(count_total) +
                                          " dict-coded slots, accounting says " +
                                          std::to_string(expected_count));
}

template <class Addr>
typename Addr::value_type random_key(workload::Xorshift128& rng)
{
    if constexpr (Addr::kWidth == 32) {
        return rng.next();
    } else {
        using V = typename Addr::value_type;
        return (static_cast<V>(rng.next64()) << 64) | rng.next64();
    }
}

}  // namespace

template <class Addr>
AuditReport audit_structure(const typename poptrie::Poptrie<Addr>::View& view)
{
    AuditReport r;
    LiveRuns runs;
    StructureWalker<Addr>(view, r, runs).walk();
    return r;
}

template <class Addr>
AuditReport audit(const poptrie::Poptrie<Addr>& pt, const rib::RadixTrie<Addr>& rib,
                  const AuditOptions& opt)
{
    using value_type = typename Addr::value_type;
    const auto& pools = AuditAccess::pools(pt);

    // 1. Structural walk from every root.
    AuditReport r;
    LiveRuns runs;
    const auto view = pools.view(pt.config());
    StructureWalker<Addr>(view, r, runs).walk();

    // 2. Live runs vs the buddy allocators, and slot accounting.
    const std::size_t pending = AuditAccess::ebr(pt).pending();
    check_runs_against_allocator(r, runs.nodes, pools.node_alloc, pending,
                                 AuditAccess::inode_count(pt), "node");
    // The buddy allocator only tracks the 16-bit pool; dict-coded slots are
    // bump-placed in the code array and accounted separately below.
    check_runs_against_allocator(r, runs.leaves, pools.leaf_alloc, pending,
                                 AuditAccess::leaf_count(pt) - AuditAccess::leaf8_live(pt),
                                 "leaf");
    const std::vector<rib::NextHop> dict_values(pools.leaf_dict.begin(), pools.leaf_dict.end());
    check_leaf8_runs(r, runs.leaves8, pools.leaves8.size(), dict_values,
                     AuditAccess::leaf8_live(pt), opt.expect_compacted);
    // Every slot the allocators ever handed out must sit in committed
    // storage: the pools commit up to the high-water mark as they grow.
    if (pools.nodes.size() < pools.node_alloc.high_water())
        r.add("node-pool-uncommitted",
              "pool " + std::to_string(pools.nodes.size()) + " < allocator high water " +
                  std::to_string(pools.node_alloc.high_water()));
    if (pools.leaves.size() < pools.leaf_alloc.high_water())
        r.add("leaf-pool-uncommitted",
              "pool " + std::to_string(pools.leaves.size()) + " < allocator high water " +
                  std::to_string(pools.leaf_alloc.high_water()));

    // 2b. Canonical compacted layout, when the caller vouches the table was
    // just compacted (poptrie_fsck --compact, the compaction tests).
    if (opt.expect_compacted) {
        check_compacted_layout(r, runs.nodes, pools.node_alloc, "node");
        check_compacted_layout(r, runs.leaves, pools.leaf_alloc, "leaf");
    }

    // 3. Allocator free lists and EBR epochs.
    r.merge(audit_allocator(pools.node_alloc), "node-alloc/");
    r.merge(audit_allocator(pools.leaf_alloc), "leaf-alloc/");
    r.merge(audit_ebr(AuditAccess::ebr(pt)), "ebr/");

    // 4. Differential checks against the RIB oracle: route boundaries first
    // (where off-by-ones live), then random probes. Only run on a
    // structurally sound table: lookup() trusts vector/base0/base1/direct
    // unconditionally, so probing a table whose structural audit already
    // failed may dereference the very out-of-range index just reported.
    if (!r.ok()) return r;
    const auto probe = [&](value_type key) {
        const Addr a{key};
        const auto got = pt.lookup(a);
        const auto want = rib.lookup(a);
        ++r.probes_checked;
        if (got != want)
            r.add("lookup-mismatch", format_addr(a) + ": poptrie " + std::to_string(got) +
                                         ", rib " + std::to_string(want));
    };
    if (rib.route_count() <= opt.max_boundary_routes) {
        rib.for_each_route([&](const netbase::Prefix<Addr>& p, rib::NextHop) {
            const value_type lo = p.first_address().value();
            const value_type hi = p.last_address().value();
            probe(lo);
            probe(hi);
            probe(static_cast<value_type>(lo - 1));  // wraps at 0: still valid probes
            probe(static_cast<value_type>(hi + 1));
        });
    }
    workload::Xorshift128 rng(opt.seed);
    for (std::size_t i = 0; i < opt.random_probes; ++i) probe(random_key<Addr>(rng));

    return r;
}

template <class Addr>
void audit_or_abort(const poptrie::Poptrie<Addr>& pt, const rib::RadixTrie<Addr>& rib,
                    const AuditOptions& opt)
{
    const auto report = audit(pt, rib, opt);
    if (!report.ok()) {
        std::fputs(report.summary().c_str(), stderr);
        std::abort();
    }
}

template AuditReport audit_structure<netbase::Ipv4Addr>(
    const poptrie::Poptrie<netbase::Ipv4Addr>::View&);
template AuditReport audit_structure<netbase::Ipv6Addr>(
    const poptrie::Poptrie<netbase::Ipv6Addr>::View&);
template AuditReport audit(const poptrie::Poptrie<netbase::Ipv4Addr>&,
                           const rib::RadixTrie<netbase::Ipv4Addr>&, const AuditOptions&);
template AuditReport audit(const poptrie::Poptrie<netbase::Ipv6Addr>&,
                           const rib::RadixTrie<netbase::Ipv6Addr>&, const AuditOptions&);
template void audit_or_abort(const poptrie::Poptrie<netbase::Ipv4Addr>&,
                             const rib::RadixTrie<netbase::Ipv4Addr>&, const AuditOptions&);
template void audit_or_abort(const poptrie::Poptrie<netbase::Ipv6Addr>&,
                             const rib::RadixTrie<netbase::Ipv6Addr>&, const AuditOptions&);

}  // namespace analysis
