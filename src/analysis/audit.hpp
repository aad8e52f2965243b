// analysis/audit.hpp — structural invariant auditor ("poptrie-fsck").
//
// A compressed FIB fails silently: a leafvec bit off by one, a base pointer
// into a freed buddy block, or a non-minimal leaf run all still *look* like a
// working table until one address resolves wrong or one update scribbles over
// live memory. This module machine-checks a built Poptrie<Addr> against its
// own allocators, its EBR domain, and the source RIB:
//
//   * vector/leafvec bit consistency and leaf-run minimality (§3.3);
//   * every base0/base1 run inside the live extent of its buddy allocator,
//     power-of-two aligned, with no overlap between live runs or between a
//     live run and a free block;
//   * node/leaf accounting (inode and leaf counts vs reachable structure,
//     allocator `used()` vs the sum of live blocks once limbo is empty);
//   * direct-pointing array consistency with kDirectLeafBit (§3.4), and
//     each folded run (kFoldedBit) inside the code array, its leafvec's
//     first slot starting a run, its codes inside the dictionary, and no
//     folded run sharing a byte with another run;
//   * BuddyAllocator free-list consistency (alignment, bounds, no double
//     membership, eager coalescing, free + used == capacity);
//   * EbrDomain invariants (retired epochs ≤ current, limbo ordered,
//     active readers not ahead of the writer's epoch);
//   * differential lookup checks against the RIB oracle at every route
//     boundary and at random probe addresses.
//
// The structural walk needs only the arrays, read as a PlainView, so it is
// the one walker for live tries and loaded images alike: audit() runs it
// over the live pools' buddy layout, and audit_structure() (behind
// snapshot::verify_image()) over a snapshot image's dense layout.
//
// All of it is control-path-only: the auditor never runs during lookups, and
// audits must be called from the writer thread (they read writer-private
// state). `tools/poptrie_fsck` wraps this as a CLI; tests run it after every
// build and update batch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/buddy_allocator.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "sync/ebr.hpp"

namespace analysis {

/// One failed invariant: the check's stable name and a human-readable detail.
struct Violation {
    std::string check;   ///< e.g. "leafvec-subset", "live-run-overlaps-free"
    std::string detail;  ///< where and what, for the human chasing it
};

/// The outcome of an audit: violations plus coverage counters so "no
/// violations" is distinguishable from "checked nothing".
class AuditReport {
public:
    /// Records a violation. Details are capped (the count keeps climbing) so
    /// a systematically corrupt table cannot OOM the auditor.
    void add(const std::string& check, const std::string& detail);

    /// Appends another report's violations and counters, prefixing its check
    /// names with `prefix` (e.g. "node-alloc/").
    void merge(const AuditReport& other, const std::string& prefix = {});

    [[nodiscard]] bool ok() const noexcept { return total_violations_ == 0; }
    [[nodiscard]] std::size_t violation_count() const noexcept { return total_violations_; }
    [[nodiscard]] const std::vector<Violation>& violations() const noexcept
    {
        return violations_;
    }

    /// Multi-line human-readable summary (coverage + every recorded
    /// violation); single trailing newline.
    [[nodiscard]] std::string summary() const;

    // Coverage counters (what the audit actually looked at).
    std::size_t nodes_checked = 0;
    std::size_t leaves_checked = 0;
    std::size_t direct_slots_checked = 0;
    std::size_t free_blocks_checked = 0;
    std::size_t probes_checked = 0;

private:
    static constexpr std::size_t kMaxRecorded = 64;

    std::vector<Violation> violations_;
    std::size_t total_violations_ = 0;
};

/// Knobs for the full audit.
struct AuditOptions {
    /// Random differential probes against the RIB oracle (0 disables).
    std::size_t random_probes = 4096;
    /// Probe every route's boundary addresses (first/last ± 1) up to this
    /// many routes; larger tables fall back to random probing only.
    std::size_t max_boundary_routes = 100'000;
    std::uint64_t seed = 0x9E3779B9u;
};

/// Checks a buddy allocator's free lists: block alignment and bounds, no
/// overlap/double membership, buddies eagerly coalesced, and
/// free + used == capacity.
[[nodiscard]] AuditReport audit_allocator(const alloc::BuddyAllocator& alloc);

/// Checks an EBR domain's epoch bookkeeping. Writer-thread only.
[[nodiscard]] AuditReport audit_ebr(const psync::EbrDomain& domain);

/// The structural walk over a snapshot image's arrays (a PlainView), whose
/// sections hold the reachable runs packed back to back: direct-slot
/// payloads and root bounds, vector/leafvec consistency, leaf-run minimality
/// (§3.3), each run inside its section by its exact length, dictionary
/// codes, aliasing, depth, and the runs tiling every section exactly once
/// ("section-not-tiled": no slot that no run holds, none that two share).
/// audit() runs the same walk over the live pools, where each run instead
/// fills an aligned power-of-two buddy block, so snapshot::verify_image()
/// and audit() fire the same named check for the same fault.
template <class Addr>
[[nodiscard]] AuditReport audit_structure(const typename poptrie::Poptrie<Addr>::View& view);

/// Full structural + differential audit of `pt` against its source RIB.
/// Writer-thread only; must not run concurrently with apply().
template <class Addr>
[[nodiscard]] AuditReport audit(const poptrie::Poptrie<Addr>& pt,
                                const rib::RadixTrie<Addr>& rib,
                                const AuditOptions& opt = {});

/// Debug-assertion form: runs audit() and aborts with the report on stderr if
/// anything is violated. Tests and tools call this after builds and update
/// batches; it is the moral equivalent of assert(fsck(pt)).
template <class Addr>
void audit_or_abort(const poptrie::Poptrie<Addr>& pt, const rib::RadixTrie<Addr>& rib,
                    const AuditOptions& opt = {});

/// Debug-build structural assertion: audits `pt` against `rib` and aborts on
/// any violation, compiled out under NDEBUG like assert(). Sprinkle after
/// builds and update batches in tests and examples; a release binary pays
/// nothing.
#ifdef NDEBUG
#define POPTRIE_AUDIT_ASSERT(pt, rib) ((void)0)
#else
#define POPTRIE_AUDIT_ASSERT(pt, rib) ::analysis::audit_or_abort((pt), (rib))
#endif

extern template AuditReport audit_structure<netbase::Ipv4Addr>(
    const poptrie::Poptrie<netbase::Ipv4Addr>::View&);
extern template AuditReport audit_structure<netbase::Ipv6Addr>(
    const poptrie::Poptrie<netbase::Ipv6Addr>::View&);
extern template AuditReport audit(const poptrie::Poptrie<netbase::Ipv4Addr>&,
                                  const rib::RadixTrie<netbase::Ipv4Addr>&,
                                  const AuditOptions&);
extern template AuditReport audit(const poptrie::Poptrie<netbase::Ipv6Addr>&,
                                  const rib::RadixTrie<netbase::Ipv6Addr>&,
                                  const AuditOptions&);
extern template void audit_or_abort(const poptrie::Poptrie<netbase::Ipv4Addr>&,
                                    const rib::RadixTrie<netbase::Ipv4Addr>&,
                                    const AuditOptions&);
extern template void audit_or_abort(const poptrie::Poptrie<netbase::Ipv6Addr>&,
                                    const rib::RadixTrie<netbase::Ipv6Addr>&,
                                    const AuditOptions&);

/// The single point of access to Poptrie internals (declared a friend there).
/// The const accessors feed the auditor; the mutable pool-set accessor exists
/// so tests can inject faults and prove the auditor catches them. Nothing
/// here is for production code paths.
///
/// The pool-set accessors are POPTRIE_NO_TSA: they reach the EBR-guarded
/// set by design. This is the sanctioned audit backdoor — by contract
/// (DESIGN.md §9) the auditor runs on the writer thread, a discipline the
/// surrounding tests and tools uphold rather than the type system.
struct AuditAccess {
    template <class Addr>
    using PT = poptrie::Poptrie<Addr>;

    /// The current pool set: arrays, root index, buddy allocators.
    template <class Addr>
    [[nodiscard]] static const typename PT<Addr>::PoolSet& pools(const PT<Addr>& p) noexcept
        POPTRIE_NO_TSA
    {
        return p.set_.get();
    }
    template <class Addr>
    [[nodiscard]] static typename PT<Addr>::PoolSet& pools(PT<Addr>& p) noexcept POPTRIE_NO_TSA
    {
        return p.set_.get();
    }
    template <class Addr>
    [[nodiscard]] static const psync::EbrDomain& ebr(const PT<Addr>& p) noexcept
    {
        return *p.ebr_;
    }
};

/// A FIB's layout copied out of its pool set: every array over its extent,
/// the root, and Stats (both buddy allocators' high water, used slots and
/// free blocks among them). What compact()'s byte-identity oracles compare:
/// compacting a fresh compile, or compacting twice, changes none of it, and
/// with route aggregation off a compacted FIB's layout is the compile of
/// its RIB's. Writer-thread only, like audit().
template <class Addr>
struct Layout {
    explicit Layout(const poptrie::Poptrie<Addr>& pt) : stats(pt.stats())
    {
        const auto& p = AuditAccess::pools(pt);
        nodes.assign(p.nodes.begin(), p.nodes.end());
        leaves.assign(p.leaves.begin(), p.leaves.end());
        codes.assign(p.leaves8.begin(), p.leaves8.end());
        dictionary.assign(p.leaf_dict.begin(), p.leaf_dict.end());
        direct.assign(p.direct.begin(), p.direct.end());
        root = p.root;
    }

    std::vector<typename poptrie::Poptrie<Addr>::Node> nodes;
    std::vector<rib::NextHop> leaves;
    std::vector<std::uint8_t> codes;
    std::vector<rib::NextHop> dictionary;
    std::vector<std::uint32_t> direct;
    std::uint32_t root = 0;
    poptrie::Stats stats;
};

/// The first part in which two layouts differ, or "" when they are
/// byte-identical.
template <class Addr>
[[nodiscard]] std::string layout_difference(const Layout<Addr>& a, const Layout<Addr>& b)
{
    if (a.nodes != b.nodes) return "nodes";
    if (a.leaves != b.leaves) return "leaves";
    if (a.codes != b.codes) return "codes";
    if (a.dictionary != b.dictionary) return "dictionary";
    if (a.direct != b.direct) return "direct slots";
    if (a.root != b.root) return "root";
    if (!(a.stats == b.stats)) return "stats";
    return {};
}

}  // namespace analysis
