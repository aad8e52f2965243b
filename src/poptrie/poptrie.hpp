// poptrie/poptrie.hpp — the paper's data structure: a 64-ary multiway trie
// whose descendant arrays are compressed with population-counted bit vectors.
//
// One class template covers IPv4 (Addr = netbase::Ipv4Addr) and IPv6
// (netbase::Ipv6Addr); the paper's §4.10 IPv6 variant is the same algorithm
// over a 128-bit key. All of the paper's design options are runtime
// configuration (see poptrie::Config):
//
//   * "basic"        — Config{.leaf_compression = false, .route_aggregation = false}
//   * "leafvec"      — Config{.leaf_compression = true,  .route_aggregation = false}
//   * "Poptrie"      — defaults (leafvec + aggregation)
//   * "PoptrieS"     — Config{.direct_bits = S} (§3.4 direct pointing)
//
// each with the paper's 16-bit leaves when .leaf_dict = false; by default
// the leaves are 8-bit codes into a small dictionary (Config::leaf_dict).
//
// Concurrency contract (§3.5): any number of reader threads may call
// lookup() concurrently with a single writer thread calling apply() or
// compact(). Everything a lookup reads — the five arrays and the root index
// — lives in one heap pool set (PoolSet) published through one pointer
// (psync::Published). apply() patches the current set and publishes each
// replacement array with a release store; compact() compiles a whole fresh
// set from the current one and publishes it with one. Replaced arrays and
// sets are reclaimed through the EbrDomain; readers that run concurrently
// with the writer must hold an EbrDomain::Guard around batches of lookups.
// No array ever moves: each one reserves its maximum extent when its set is
// created and commits pages in place as the writer grows it
// (alloc/arena.hpp), so growth needs nothing from the readers either.
//
// The contract is enforced statically (clang -Wthread-safety, DESIGN.md §9):
// the pool set is GUARDED_BY the EBR capability (psync::cap::ebr), the
// serving path lookup_batch REQUIRES it shared (hold a real EBR guard and
// claim an EbrReadSection), and the writer paths — apply(), compact() —
// REQUIRE it exclusive. Scalar lookup()/lookup_raw() and apply() claim
// their sections internally: they are the single-threaded convenience API,
// and the claim marks the caller's obligation rather than spreading
// annotations through every test.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "alloc/arena.hpp"
#include "alloc/buddy_allocator.hpp"
#include "netbase/bits.hpp"
#include "netbase/prefix.hpp"
#include "poptrie/config.hpp"
#include "poptrie/detail.hpp"
#include "poptrie/leaf_coder.hpp"
#include "poptrie/lookup_pipelined.ipp"
#include "rib/radix_trie.hpp"
#include "rib/route.hpp"
#include "sync/annotations.hpp"
#include "sync/atomic_utils.hpp"
#include "sync/ebr.hpp"

namespace analysis {
struct AuditAccess;  // analysis/audit.hpp: structural auditor hook
}

namespace poptrie {

/// Longest-prefix-match FIB compiled from a rib::RadixTrie.
template <class Addr>
class Poptrie {
public:
    using addr_type = Addr;
    using value_type = typename Addr::value_type;
    using prefix_type = netbase::Prefix<Addr>;
    using NextHop = rib::NextHop;

    /// Bits consumed per trie level (k in the paper; 6 → 64-ary).
    static constexpr unsigned kStride = 6;
    static_assert(kStride == kStrideBits,
                  "config.hpp states the layout invariants in terms of kStrideBits");
    /// Address width in bits.
    static constexpr unsigned kWidth = Addr::kWidth;
    /// Direct-pointing slot flag: MSB set means the slot holds a FIB index
    /// directly (§3.4), clear means it holds an internal-node index.
    static constexpr std::uint32_t kDirectLeafBit = 0x8000'0000u;
    static_assert(kDirectLeafBit == batch::kDirectLeafBitValue,
                  "lookup_pipelined.ipp restates the flag to stay template-free");
    /// Dictionary-coded leaf-run flag (Config::leaf_dict): a base0 with this
    /// MSB set addresses an 8-bit code run, not a 16-bit leaf run (config.hpp).
    static constexpr std::uint32_t kLeaf8Bit = poptrie::kLeaf8Bit;
    /// Folded-root flag: a direct slot with kDirectLeafBit and this bit set
    /// addresses a folded run in the code array (config.hpp).
    static constexpr std::uint32_t kFoldedBit = poptrie::kFoldedBit;

    /// Internal node, exactly the paper's layout: 24 bytes with leafvec,
    /// 16 effective bytes in "basic" mode (leafvec unused).
    struct Node {
        std::uint64_t vector = 0;   ///< bit n = 1: child n is an internal node
        std::uint64_t leafvec = 0;  ///< bit n = 1: slot n starts a new leaf run (§3.3)
        std::uint32_t base0 = 0;    ///< first index of this node's leaves in L
        std::uint32_t base1 = 0;    ///< first index of this node's children in N

        friend bool operator==(const Node&, const Node&) = default;
    };

    /// Cumulative incremental-update accounting (§4.9's "number of
    /// replacements ... per update").
    struct UpdateCounters {
        std::uint64_t updates = 0;
        std::uint64_t direct_stores = 0;     ///< top-level array slots replaced
        std::uint64_t nodes_allocated = 0;   ///< internal nodes written
        std::uint64_t leaves_allocated = 0;  ///< leaf slots written
        std::uint64_t nodes_retired = 0;
        std::uint64_t leaves_retired = 0;
        /// Always 0: the pools commit pages in place and never move, so no
        /// growth is reader-unsafe. Kept for the perfbench harness, which
        /// still reads it.
        std::uint64_t pool_growths = 0;
    };

    /// The flat pools live in arena-backed storage (alloc/arena.hpp), so
    /// the node, leaf, and direct arrays sit on huge pages when available.
    /// Each reserves its maximum extent up front and never moves.
    using NodePool = alloc::ArenaVector<Node>;
    using LeafPool = alloc::ArenaVector<NextHop>;
    using DirectPool = alloc::ArenaVector<std::uint32_t>;
    /// Dense 8-bit code array for dict-coded leaf runs (Config::leaf_dict).
    using Leaf8Pool = alloc::ArenaVector<std::uint8_t>;

    /// A pool set's arrays as plain loads see them (lookup_pipelined.ipp).
    using View = batch::PlainView<value_type, Node>;

    /// Everything a lookup reads, in one heap object that one pointer
    /// publishes: the five arrays, the root index, and the two buddy
    /// allocators that place runs in the node and leaf pools, with the
    /// live counts Stats reports. apply() patches the current set;
    /// compact() compiles a fresh one, publishes it, and retires the old
    /// set whole through EBR. A set never moves, so deleters may hold
    /// pointers to its allocators.
    ///
    /// Each array reserves the largest extent its indices can address — the
    /// node and leaf pools and the code array 2^31 slots (the allocators'
    /// kMaxCapacity), the dictionary 256 entries, the direct array
    /// 2^direct_bits — about 54 GiB of address space per set, and commits
    /// only what the allocators' high-water marks reach. The allocators
    /// start at full capacity too, so nothing ever grows. Throws
    /// std::bad_alloc when a reservation is refused.
    struct PoolSet {
        PoolSet(alloc::Arena* arena, const Config& cfg)
            : nodes(arena, alloc::BuddyAllocator::kMaxCapacity),
              leaves(arena, alloc::BuddyAllocator::kMaxCapacity),
              leaves8(arena, alloc::BuddyAllocator::kMaxCapacity),
              leaf_dict(arena, 256),
              direct(arena, direct_slots(cfg))
        {
        }

        /// The arrays at their full extents.
        [[nodiscard]] View view(const Config& cfg) const noexcept
        {
            return {nodes.data(),    leaves.data(),        direct.data(),
                    root,            cfg.direct_bits,      cfg.leaf_compression,
                    leaves8.data(),  leaf_dict.data(),     nodes.size(),
                    leaves.size(),   direct.size(),        leaves8.size(),
                    leaf_dict.size()};
        }

        NodePool nodes;
        LeafPool leaves;
        // Dict-coded leaf storage (Config::leaf_dict): dense 8-bit codes and
        // folded runs plus the <= 256-entry dictionary. Written only while
        // the compile or compact() builds the set; the updater only *drops*
        // coded and folded runs, so readers reach them with plain loads
        // through the published base0 indices and direct slots.
        Leaf8Pool leaves8;
        LeafPool leaf_dict;
        DirectPool direct;       // 2^s entries when direct_bits > 0
        std::uint32_t root = 0;  // root node index when direct_bits == 0
        alloc::BuddyAllocator node_alloc{alloc::BuddyAllocator::kMaxCapacity};
        alloc::BuddyAllocator leaf_alloc{alloc::BuddyAllocator::kMaxCapacity};
        /// What the set holds, kept beside the arrays it counts, so a
        /// compile that is refused part way leaves the published set's
        /// counts as they were.
        struct Live {
            std::size_t nodes = 0;   ///< internal nodes
            std::size_t leaves = 0;  ///< leaf slots, 16-bit and coded
            /// Of `leaves`, the codes in leaves8 (folded runs' included);
            /// leaves - leaf8 is the 16-bit pool's live population.
            std::size_t leaf8 = 0;
            /// Direct slots holding a folded run; each adds 8 leafvec bytes
            /// to the code array's live extent.
            std::size_t folded = 0;
        } live;
    };

    /// Builds an empty FIB (every lookup returns rib::kNoRoute).
    explicit Poptrie(const Config& cfg = {});

    /// Compiles a FIB from `rib` (route aggregation applied per cfg).
    explicit Poptrie(const rib::RadixTrie<Addr>& rib, const Config& cfg = {});

    Poptrie(Poptrie&&) noexcept = default;

    /// Releases the old FIB in destruction order (EBR domain first, arena
    /// last), then takes over `other`'s. A member-wise move would free the
    /// old arena before the pools mapped from it.
    Poptrie& operator=(Poptrie&& other) noexcept
    {
        if (this != &other) {
            std::destroy_at(this);
            std::construct_at(this, std::move(other));
        }
        return *this;
    }

    /// Longest-prefix-match lookup; kNoRoute on miss. Dispatches once on the
    /// configuration; benches use lookup_raw<> to pin the specialization.
    POPTRIE_HOT [[nodiscard]] NextHop lookup(Addr addr) const noexcept
    {
        return cfg_.leaf_compression ? lookup_raw<true>(addr.value())
                                     : lookup_raw<false>(addr.value());
    }

    /// The hot path: the shared scalar walk (batch::lookup_one, Algorithms
    /// 1–3 fused) over the acquire/relaxed view. UseLeafvec selects Algorithm
    /// 2's leaf compression; SoftPopcount swaps the popcnt instruction for
    /// the portable fallback (§3.2), for the ablation bench.
    template <bool UseLeafvec, bool SoftPopcount = false>
    POPTRIE_HOT [[nodiscard]] NextHop lookup_raw(value_type key) const noexcept
    {
        // reader: scalar convenience path — the degenerate one-lookup read
        // section. Callers racing a concurrent apply() must still hold a
        // real EBR guard around their burst (the dataplane serving path goes
        // through lookup_batch, which REQUIRES the capability instead).
        const psync::EbrReadSection section;
        return batch::lookup_one<UseLeafvec, SoftPopcount>(atomic_view(), key,
                                                           cfg_.direct_bits);
    }

    /// Batched lookup: resolves `n` keys into `out`, keeping batch::kWindow
    /// lookups in flight with software prefetch one step ahead. A single
    /// lookup is a chain of dependent loads, so a forwarding loop that has a
    /// vector of destinations in hand (it always does — packets arrive in
    /// bursts) can overlap the memory latency of independent lookups. This
    /// is an extension beyond the paper; bench_batch_pipeline and perfbench
    /// quantify it. The walk itself lives in lookup_pipelined.ipp (shared
    /// with SnapshotFib); this wrapper binds it to the AtomicView the §3.5
    /// churn contract requires. This is the dataplane serving path, so
    /// unlike lookup() it does not claim its own read section: the caller
    /// must hold the shared EBR capability (a live guard + EbrReadSection)
    /// for the whole burst — which is also what makes the pool-pointer hoist
    /// into the view sound.
    template <bool UseLeafvec>
    POPTRIE_HOT void lookup_batch(const value_type* keys, NextHop* out, std::size_t n) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        // One config read per call: the direct/root dispatch is loop-
        // invariant, so hoist it instead of re-reading cfg_ per lane.
        batch::lookup_batch_pipelined<UseLeafvec>(atomic_view(), keys, out, n,
                                                  cfg_.direct_bits);
    }

    /// Applies one route change (§3.5 incremental update): updates `rib`
    /// (insert/replace when next_hop != kNoRoute, withdraw otherwise) and
    /// patches this FIB in place, publishing atomically and retiring replaced
    /// arrays through the EBR domain. `rib` must be the table this FIB
    /// currently reflects. When the FIB was built with route aggregation the
    /// touched subtrees are recompiled from the unaggregated RIB — the
    /// lookup results are identical, the touched region is merely compressed
    /// a little less tightly than a full rebuild would achieve. Growing a
    /// pool commits pages in place, readers running; if the kernel refuses
    /// a commit, std::bad_alloc escapes after `rib` was already updated
    /// (a rollback is not implemented).
    void apply(rib::RadixTrie<Addr>& rib, const prefix_type& prefix, NextHop next_hop);

    /// Registers the calling thread for safe lookups concurrent with apply().
    [[nodiscard]] psync::EbrDomain::Reader register_reader() { return ebr_->register_reader(); }

    /// Runs pending reclamation to completion. Writer-role only (exclusive
    /// EBR capability): claim an EbrWriterSection on the updater thread.
    void drain() POPTRIE_REQUIRES(psync::cap::ebr) { ebr_->drain(); }

    /// Runs the compile over the live FIB: the current set's nodes are the
    /// slot source, a fresh set the target, so the FIB gets the layout a
    /// compile gives its structure — leaf runs coded and childless
    /// direct-slot roots folded under Config::leaf_dict, the updater's
    /// nodes and 16-bit runs included. Publishes the set with one release
    /// store and retires the old one through the EBR domain. Restores
    /// fresh-build locality and density after a long churn feed (the buddy
    /// allocator alone preserves *compactness* but not *order*).
    ///
    /// A writer operation like apply(): readers keep forwarding through it,
    /// each burst on whichever set it loaded, and lookup results are
    /// identical before and after. Throws std::bad_alloc when the fresh set
    /// cannot be reserved or committed, and netbase::StructuralLimit when
    /// its layout would pass 2^31 slots; either way before publishing, so
    /// the old set keeps serving and Stats do not change.
    void compact() POPTRIE_REQUIRES(psync::cap::ebr);

    /// Page backing actually obtained for the pools (alloc/arena.hpp).
    [[nodiscard]] alloc::MemoryReport memory_report() const noexcept
    {
        return arena_->report();
    }

    /// The current pool set, for the writer-side tools that read the whole
    /// structure (snapshot::serialize). Writer role only: compact() replaces
    /// the set, so only the thread that would run it may hold one.
    [[nodiscard]] const PoolSet& pools() const noexcept POPTRIE_REQUIRES(psync::cap::ebr)
    {
        return set_.get();
    }

    /// Size/shape statistics (Table 2 columns).
    [[nodiscard]] Stats stats() const noexcept;

    /// Cumulative update accounting (§4.9).
    [[nodiscard]] const UpdateCounters& update_counters() const noexcept { return updates_; }

    /// The configuration this FIB was built with.
    [[nodiscard]] const Config& config() const noexcept { return cfg_; }

private:
    // --- the emitter (builder.ipp), shared by the constructors, compact()
    // --- and the updater. A slot source hands it one node's 64 slots at a
    // --- time: detail::RibSource reads the RIB, PoolSource (compactor.ipp)
    // --- the current set's nodes. A source's Slots give the internal slots
    // --- and the leaf slots where a run may start (two masks; any other
    // --- leaf slot holds the value of the start below it), a start's hop
    // --- and an internal slot's child cursor; its root() and
    // --- for_each_direct() give the entry points. The emitter places every
    // --- run in an explicit target set. Writing the published set needs the
    // --- exclusive EBR capability (apply()'s writer section, a ctor's
    // --- quiescent section, or compact()'s caller), so all of it REQUIREs
    // --- it.
    /// The constructors' compile of `rib`, aggregated per Config.
    std::unique_ptr<PoolSet> compile_rib(const rib::RadixTrie<Addr>& rib)
        POPTRIE_REQUIRES(psync::cap::ebr);
    /// Compiles `src` into a fresh set: under Config::leaf_dict with coded
    /// leaf runs and folded roots, unless the runs hold more than 256
    /// distinct values, in which case it starts again with 16-bit runs.
    template <class Source>
    std::unique_ptr<PoolSet> compile_set(const Source& src) POPTRIE_REQUIRES(psync::cap::ebr);
    /// Compiles `src` into the empty set `out`. With a coder, every leaf run
    /// goes to the code array, childless direct-slot roots fold, and a 257th
    /// distinct value throws the coder's Overflow out of the compile.
    template <class Source>
    void compile(PoolSet& out, const Source& src, detail::LeafCoder* coder)
        POPTRIE_REQUIRES(psync::cap::ebr);
    /// The node at cursor `at`, its subtree and runs placed in `out`. The
    /// updater passes no coder: its leaf runs are always 16-bit. With a
    /// coder and a non-null `folded`, a childless node becomes a folded run
    /// instead: *folded receives its direct slot and the Node is unused.
    template <class Source>
    Node make_node(PoolSet& out, const Source& src, const typename Source::Cursor& at,
                   unsigned level, detail::LeafCoder* coder = nullptr,
                   std::uint32_t* folded = nullptr) POPTRIE_REQUIRES(psync::cap::ebr);
    /// A root node's index, or under `may_fold` possibly a folded slot.
    template <class Source>
    std::uint32_t build_root(PoolSet& out, const Source& src, const typename Source::Cursor& at,
                             unsigned level, detail::LeafCoder* coder, bool may_fold)
        POPTRIE_REQUIRES(psync::cap::ebr);
    /// Places a run of `n` nodes (16-bit leaves) in `out`'s buddy pool,
    /// copies them there and returns its index.
    std::uint32_t place_nodes(PoolSet& out, const Node* nodes, std::uint32_t n)
        POPTRIE_REQUIRES(psync::cap::ebr);
    std::uint32_t place_leaves(PoolSet& out, const NextHop* values, std::uint32_t n)
        POPTRIE_REQUIRES(psync::cap::ebr);

    /// Slots in the direct array: 2^direct_bits, or 0 with direct pointing
    /// off. Asserts valid_config(), which bounds the shift.
    [[nodiscard]] static std::size_t direct_slots(const Config& cfg) noexcept
    {
        assert(valid_config(cfg, kWidth));
        // shift-ok: valid_config() (asserted above) bounds direct_bits
        // <= kMaxDirectBits (30) < 64.
        return cfg.direct_bits == 0 ? 0 : std::size_t{1} << cfg.direct_bits;
    }

    // --- updater internals ---
    struct Rebuilt {
        bool replaced = false;
        Node fresh{};
    };
    struct Affected {
        value_type lo{};
        value_type hi{};
        unsigned plen = 0;
    };
    Rebuilt update_node(const detail::RibView<Addr>& rib, std::uint32_t index,
                        const detail::SlotCtx& slot, unsigned level, value_type base,
                        const Affected& aff) POPTRIE_REQUIRES(psync::cap::ebr);
    void update_direct_slot(const detail::RibView<Addr>& rib, std::uint64_t d,
                            const Affected& aff) POPTRIE_REQUIRES(psync::cap::ebr);
    void retire_nodes(std::uint32_t offset, std::uint32_t count)
        POPTRIE_REQUIRES(psync::cap::ebr);
    void retire_leaves(std::uint32_t offset, std::uint32_t count)
        POPTRIE_REQUIRES(psync::cap::ebr);
    // Descendant arrays incl. n's own.
    void retire_contents(const Node& n) POPTRIE_REQUIRES(psync::cap::ebr);
    /// Drops the folded run a direct slot held. Like a dropped coded run,
    /// its bytes stay in the code array until the next compact().
    void retire_folded(std::uint32_t slot) POPTRIE_REQUIRES(psync::cap::ebr);

    /// compact()'s slot source: the current set's nodes (compactor.ipp).
    struct PoolSource;

    /// The acquire/relaxed view both lookup paths walk: the set pointer is
    /// acquired once per call, and the caller's EBR read section keeps that
    /// set alive and its storage in place for the whole walk.
    POPTRIE_HOT [[nodiscard]] batch::AtomicView<value_type, Node> atomic_view() const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        const PoolSet& s = *set_.load();
        return {s.nodes.data(), s.leaves.data(),  s.direct.data(),
                &s.root,        s.leaves8.data(), s.leaf_dict.data()};
    }

    POPTRIE_HOT [[nodiscard]] std::uint32_t old_child_index(const Node& n, unsigned u) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        return n.base1 +
               static_cast<std::uint32_t>(netbase::popcount64(
                   n.vector & netbase::low_mask_inclusive(u))) -
               1;
    }

    /// Decodes one leaf slot by (possibly tagged) index: a kLeaf8Bit index
    /// reads the dense 8-bit code array through the dictionary, a plain index
    /// reads the 16-bit leaf pool. Control-path twin of the hot-path decode
    /// in the views' leaf() (lookup_pipelined.ipp); the updater and
    /// compactor funnel every leaf read here.
    [[nodiscard]] NextHop leaf_at(std::uint32_t i) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        const PoolSet& s = set_.get();
        if (i & kLeaf8Bit) return s.leaf_dict[s.leaves8[i & ~kLeaf8Bit]];
        return s.leaves[i];
    }

    /// The childless root a folded direct slot stands for: the run's
    /// leafvec, and its codes as a tagged leaf run.
    [[nodiscard]] Node folded_root(std::uint32_t slot) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        Node n;
        const std::uint32_t at = slot & kFoldedOffsetMask;
        n.leafvec = batch::folded_leafvec(set_.get().leaves8.data(), at);
        n.base0 = kLeaf8Bit | (at + static_cast<std::uint32_t>(sizeof n.leafvec));
        return n;
    }

    POPTRIE_HOT [[nodiscard]] NextHop old_leaf_value(const Node& n, unsigned u) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        const std::uint64_t lv = cfg_.leaf_compression ? n.leafvec : ~n.vector;
        return leaf_at(n.base0 +
                       static_cast<std::uint32_t>(
                           netbase::popcount64(lv & netbase::low_mask_inclusive(u))) -
                       1);
    }

    [[nodiscard]] std::uint32_t leaf_count_of(const Node& n) const noexcept
    {
        if (cfg_.leaf_compression)
            return static_cast<std::uint32_t>(netbase::popcount64(n.leafvec));
        return 64 - static_cast<std::uint32_t>(netbase::popcount64(n.vector));
    }

    Config cfg_{};
    // The arena backs every pool set and any storage retired through the
    // EBR domain; it is declared before them (so destroyed after ebr_ drops
    // pending deleters) and heap-allocated so the sets' raw Arena*
    // references survive moves of the Poptrie object itself.
    std::unique_ptr<alloc::Arena> arena_ = std::make_unique<alloc::Arena>();
    // The pool set is the EBR-protected state: readers may traverse it only
    // inside a read-side critical section, and only the single writer may
    // mutate or replace it. Empty until the constructor body publishes its
    // compile, when every member the compile reads is initialized. Every
    // burst reads cfg_, set_ and ebr_, so the three sit together up front.
    psync::Published<PoolSet> set_ POPTRIE_GUARDED_BY(psync::cap::ebr) =
        psync::Published<PoolSet>{nullptr};
    std::unique_ptr<psync::EbrDomain> ebr_ = std::make_unique<psync::EbrDomain>();
    UpdateCounters updates_{};
    bool in_update_ = false;

    // The structural auditor (analysis/audit.hpp) reads the pool set and
    // EBR domain to cross-check them against each other and against the
    // source RIB; tests also use it for fault injection.
    friend struct ::analysis::AuditAccess;
};

using Poptrie4 = Poptrie<netbase::Ipv4Addr>;
using Poptrie6 = Poptrie<netbase::Ipv6Addr>;

extern template class Poptrie<netbase::Ipv4Addr>;
extern template class Poptrie<netbase::Ipv6Addr>;

}  // namespace poptrie
