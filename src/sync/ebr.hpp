// sync/ebr.hpp — epoch-based memory reclamation.
//
// §3.5 of the paper requires that after an incremental FIB update "the unused
// memory space, i.e., the replaced part, is freed after ensuring no lookup
// procedure is referring to it". That is exactly a grace-period problem:
// lookups are short read-side critical sections, the (single) updater is the
// writer. This header implements classic epoch-based reclamation with
// monotonically increasing epochs:
//
//   * each reader thread registers a slot; around every lookup batch it
//     `enter()`s (publishing the epoch it is reading under) and `exit()`s;
//   * the updater `retire()`s replaced node/leaf runs with a deleter, then
//     periodically `try_reclaim()`s: anything retired at an epoch strictly
//     below every active reader's epoch is freed.
//
// The read side is two relaxed/acq-rel atomic stores — cheap enough to wrap
// around a batch of a few thousand lookups without measurable cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "sync/annotations.hpp"

namespace psync {

// ThreadSanitizer does not model std::atomic_thread_fence (GCC even rejects
// it under -fsanitize=thread via -Wtsan), so fence-based synchronization
// would produce false-positive race reports. Under TSan the seq_cst fences
// below are replaced by seq_cst RMWs on a per-domain dummy atomic: all RMWs
// on one variable are totally ordered and each reads the value written by
// its predecessor, so any two of them are linked by happens-before — the
// same "either the scan sees my slot, or I see the writer's publication"
// disjunction the fence version provides, and one TSan can see.
#if defined(__SANITIZE_THREAD__)
#define POPTRIE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POPTRIE_TSAN 1
#endif
#endif

/// A reclamation domain: one per concurrently-updated structure (or shared).
/// Reader registration is thread-safe; retire/try_reclaim must be called from
/// a single writer thread (the paper assumes "single-threaded update
/// operation").
class EbrDomain {
public:
    /// A reader thread's registration. Obtain via register_reader(). The
    /// registration is move-only and unregisters itself on destruction, so a
    /// worker thread that exits returns its slot to the domain instead of
    /// stalling reclamation forever (a destroyed-but-registered slot that
    /// happened to die active would otherwise pin the minimum epoch). Freed
    /// slots are recycled by later register_reader() calls, so worker pools
    /// that start and stop repeatedly do not grow the slot table without
    /// bound. A Reader must not outlive its domain, and enter()/exit() must
    /// not be called on a default-constructed or moved-from Reader.
    class Reader {
    public:
        Reader() noexcept = default;
        Reader(Reader&& other) noexcept : domain_(other.domain_), slot_(other.slot_)
        {
            other.domain_ = nullptr;
            other.slot_ = nullptr;
        }
        Reader& operator=(Reader&& other) noexcept
        {
            if (this != &other) {
                release();
                domain_ = other.domain_;
                slot_ = other.slot_;
                other.domain_ = nullptr;
                other.slot_ = nullptr;
            }
            return *this;
        }
        Reader(const Reader&) = delete;
        Reader& operator=(const Reader&) = delete;
        ~Reader() { release(); }

        /// Marks the start of a read-side critical section.
        ///
        /// Memory orders (paired with min_active_epoch(), Dekker-style):
        ///  * the epoch load is relaxed — reading a *stale* (smaller) epoch
        ///    only makes the writer more conservative, never unsafe, because
        ///    reclamation requires every active slot to be strictly above the
        ///    retire epoch;
        ///  * the slot store is relaxed but must become visible before any
        ///    read of the protected structure, which the seq_cst fence
        ///    enforces: it pairs with the seq_cst fence in
        ///    min_active_epoch(). In the total order of seq_cst fences either
        ///    our fence comes first — then the writer's scan sees our slot and
        ///    keeps the retired block — or the writer's fence comes first —
        ///    then our subsequent structure reads see the writer's
        ///    replacement pointers, not the retired block.
        POPTRIE_HOT void enter() noexcept POPTRIE_ACQUIRE_SHARED(cap::ebr)
        {
            // order: relaxed [cap:ebr] — a stale (smaller) epoch only makes
            // the writer more conservative (see the contract above).
            const auto e = domain_->epoch_.load(std::memory_order_relaxed);
            // order: relaxed [cap:ebr] — visibility before structure reads is
            // provided by the seq_cst fence on the next line, not this store.
            slot_->store(e, std::memory_order_relaxed);
            domain_->fence_seq_cst();
        }

        /// Marks the end of a read-side critical section. The release store
        /// orders every read of the protected structure before the slot
        /// becoming quiescent: when the writer's acquire scan in
        /// min_active_epoch() observes kQuiescent, all of this section's
        /// reads happened-before the writer's subsequent free.
        POPTRIE_HOT void exit() noexcept POPTRIE_RELEASE_SHARED(cap::ebr)
        {
            // order: release [cap:ebr] — sequences every structure read before
            // the slot turns quiescent; pairs with min_active_epoch()'s scan.
            slot_->store(kQuiescent, std::memory_order_release);
        }

    private:
        friend class EbrDomain;
        Reader(EbrDomain* d, std::atomic<std::uint64_t>* s) noexcept : domain_(d), slot_(s) {}

        /// Returns the slot to the domain (it is forced quiescent first, so
        /// even a Reader destroyed mid-critical-section cannot stall
        /// reclamation). Safe on empty Readers.
        void release() noexcept
        {
            if (domain_ != nullptr) domain_->unregister_reader(slot_);
            domain_ = nullptr;
            slot_ = nullptr;
        }

        EbrDomain* domain_ = nullptr;
        std::atomic<std::uint64_t>* slot_ = nullptr;
    };

    /// RAII wrapper around Reader::enter/exit. Holding one IS the shared EBR
    /// capability (cap::ebr): the analysis lets the enclosed code reach
    /// EBR-guarded state for exactly the guard's lifetime.
    class POPTRIE_SCOPED_CAPABILITY Guard {
    public:
        POPTRIE_HOT explicit Guard(Reader& r) noexcept POPTRIE_ACQUIRE_SHARED(cap::ebr) : reader_(r)
        {
            reader_.enter();
        }
        POPTRIE_HOT ~Guard() POPTRIE_RELEASE_GENERIC(cap::ebr) { reader_.exit(); }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;

    private:
        Reader& reader_;
    };

    EbrDomain() = default;
    EbrDomain(const EbrDomain&) = delete;
    EbrDomain& operator=(const EbrDomain&) = delete;

    /// Registers the calling thread as a reader. Thread-safe. Recycles slots
    /// returned by destroyed Readers before growing the slot table.
    [[nodiscard]] Reader register_reader();

    /// Queues `deleter` to run once no reader can still observe the retired
    /// object. Writer-thread only (REQUIRES the exclusive EBR capability:
    /// only the single writer may touch the limbo list). The object must
    /// already be unreachable from the live structure.
    void retire(std::function<void()> deleter) POPTRIE_REQUIRES(cap::ebr);

    /// Advances the epoch and frees every retired object whose grace period
    /// has elapsed. Returns the number of deleters run. Writer-thread only.
    std::size_t try_reclaim() POPTRIE_REQUIRES(cap::ebr);

    /// Blocks (spinning) until everything retired so far is freed. Writer-
    /// thread only; used on shutdown and in tests.
    void drain() POPTRIE_REQUIRES(cap::ebr);

    /// Objects currently awaiting reclamation (diagnostics).
    [[nodiscard]] std::size_t pending() const noexcept { return limbo_.size(); }

    /// Invariant snapshot for the structural auditor (writer-thread only: it
    /// reads the writer-private limbo list). See analysis::audit_ebr for the
    /// checks built on top of it.
    struct Diag {
        std::uint64_t current_epoch = 0;
        /// Smallest epoch any registered reader is currently active under;
        /// nullopt when every reader is quiescent.
        std::optional<std::uint64_t> min_active_epoch;
        /// Live registrations (slots handed out minus slots returned).
        std::size_t registered_readers = 0;
        /// Slots ever allocated, including ones awaiting reuse on the free
        /// list; bounded by the peak concurrent reader count.
        std::size_t slot_capacity = 0;
        std::size_t pending = 0;
        /// Epochs of the oldest/newest retired-but-unreclaimed objects
        /// (nullopt when limbo is empty).
        std::optional<std::uint64_t> oldest_retired_epoch;
        std::optional<std::uint64_t> newest_retired_epoch;
        /// Limbo must stay ordered by retire epoch (retire() appends and the
        /// epoch is monotone), or try_reclaim()'s front-only scan would free
        /// out of order.
        bool limbo_sorted = true;
    };
    [[nodiscard]] Diag diag() const;

private:
    static constexpr std::uint64_t kQuiescent = 0;

    /// The seq_cst fence pairing enter() with min_active_epoch(). Under TSan
    /// it becomes a seq_cst RMW on fence_sync_ (see the note at the top of
    /// this header); elsewhere it compiles to a plain fence.
    void fence_seq_cst() const noexcept
    {
#ifdef POPTRIE_TSAN
        // order: seq_cst [cap:ebr] — RMWs on one variable are totally
        // ordered, giving the same either/or disjunction as the fence.
        fence_sync_.fetch_add(0, std::memory_order_seq_cst);
#else
        // order: seq_cst [cap:ebr] — Dekker pairing between the reader's slot
        // publication and the writer's slot scan; nothing weaker suffices.
        std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
    }

    [[nodiscard]] std::uint64_t min_active_epoch() const noexcept;

    /// Returns `slot` to the free list after forcing it quiescent. Called
    /// from Reader's destructor; thread-safe.
    void unregister_reader(std::atomic<std::uint64_t>* slot) noexcept;

    struct Retired {
        std::uint64_t epoch;
        std::function<void()> deleter;
    };

    std::atomic<std::uint64_t> epoch_{1};  // 0 is reserved for "quiescent"
#ifdef POPTRIE_TSAN
    mutable std::atomic<std::uint64_t> fence_sync_{0};  // RMW target, value unused
#endif
    mutable Mutex reader_mutex_;
    // One reader's epoch slot, alone on its cache line: every enter() and
    // exit() stores to it, so two readers sharing a line would pull it
    // back and forth between their cores on each burst.
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> epoch{kQuiescent};
    };
    // Deque of stable-address slots; readers keep pointers into it. Slots are
    // never destroyed (addresses must stay valid for the domain's lifetime);
    // unregistered ones park on free_slots_ for reuse. Container shape is
    // GUARDED_BY the registration mutex; the atomic *contents* of a slot are
    // accessed lock-free through Reader's stable pointer by design.
    std::deque<Slot> slots_ POPTRIE_GUARDED_BY(reader_mutex_);
    std::vector<std::atomic<std::uint64_t>*> free_slots_ POPTRIE_GUARDED_BY(reader_mutex_);
    // Writer-private, ordered by epoch. Not GUARDED_BY anything the analysis
    // can name: "the single writer thread" is the cap::ebr exclusive role,
    // enforced on retire()/try_reclaim()/drain() via REQUIRES above.
    std::deque<Retired> limbo_;
};

}  // namespace psync
