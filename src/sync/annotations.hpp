// sync/annotations.hpp — Clang Thread Safety Analysis vocabulary for the
// repo's concurrency contracts (DESIGN.md §9).
//
// The dataplane's serving claim — wait-free lookups concurrent with
// incremental updates — rests on protocol discipline that TSan can only
// check dynamically and only on the schedules a test happens to produce.
// This header turns the two load-bearing protocols into *capabilities* the
// compiler tracks statically (clang -Wthread-safety, gated behind the
// POPTRIE_TSA CMake option; every macro is a no-op elsewhere):
//
//   cap::ebr        the EBR protocol capability.
//                   - held SHARED: the calling thread is inside an epoch
//                     read-side critical section (EbrDomain::Reader between
//                     enter() and exit()); it may dereference the FIB's pool
//                     storage and trust that nothing it can reach is freed.
//                   - held EXCLUSIVE: the calling thread is THE single
//                     writer; it may mutate the live structure and retire
//                     replaced blocks into the domain's limbo list.
//   cap::quiescent  the quiescence capability: no reader is inside a
//                   critical section anywhere (workers joined, local
//                   Readers destroyed/exited). Only then may a Router load
//                   a whole table, or the workers' private latency
//                   reservoirs be merged. (Pool storage never moves, so
//                   growing it needs only the writer role.)
//
// These are phantom (token) capabilities: no runtime object enforces them;
// acquiring one is a *claim* whose truth is established by the surrounding
// protocol (an EBR guard, a PauseGate handshake, a join). Each claim site
// must say why the claim holds — tools/check_concurrency.py rule R5 rejects
// a section construction outside src/sync without an adjacent
// `// reader:` / `// writer:` / `// quiescent:` justification comment.
//
// Capability rules of thumb (the full table is in DESIGN.md §9):
//   * the FIB's published pool set is GUARDED_BY(cap::ebr)
//   * lookup paths REQUIRES_SHARED(cap::ebr); writer paths — apply(),
//     compact(), snapshot save — REQUIRES(cap::ebr)
//   * Router::load/merged_latency REQUIRES(cap::quiescent)
//   * quiescence implies writer exclusivity: QuiescentSection acquires BOTH
//     capabilities, so a quiescent caller can reach writer paths directly.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define POPTRIE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define POPTRIE_THREAD_ANNOTATION(x)  // no-op: GCC/MSVC do not implement TSA
#endif

#define POPTRIE_CAPABILITY(x) POPTRIE_THREAD_ANNOTATION(capability(x))
#define POPTRIE_SCOPED_CAPABILITY POPTRIE_THREAD_ANNOTATION(scoped_lockable)
#define POPTRIE_GUARDED_BY(x) POPTRIE_THREAD_ANNOTATION(guarded_by(x))
#define POPTRIE_PT_GUARDED_BY(x) POPTRIE_THREAD_ANNOTATION(pt_guarded_by(x))
#define POPTRIE_REQUIRES(...) POPTRIE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define POPTRIE_REQUIRES_SHARED(...) \
    POPTRIE_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define POPTRIE_ACQUIRE(...) POPTRIE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define POPTRIE_ACQUIRE_SHARED(...) \
    POPTRIE_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define POPTRIE_RELEASE(...) POPTRIE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define POPTRIE_RELEASE_SHARED(...) \
    POPTRIE_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define POPTRIE_RELEASE_GENERIC(...) \
    POPTRIE_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define POPTRIE_ASSERT_CAPABILITY(x) POPTRIE_THREAD_ANNOTATION(assert_capability(x))
#define POPTRIE_RETURN_CAPABILITY(x) POPTRIE_THREAD_ANNOTATION(lock_returned(x))
#define POPTRIE_EXCLUDES(...) POPTRIE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Escape hatch: disables the analysis for one function. Every use must carry
// a comment explaining which out-of-band argument makes the function safe
// (single-threaded test harness, sanctioned audit backdoor, ...).
#define POPTRIE_NO_TSA POPTRIE_THREAD_ANNOTATION(no_thread_safety_analysis)

// --- hot-path purity vocabulary (tools/astcheck, DESIGN.md §10) -----------
//
// POPTRIE_HOT marks a function as data-plane hot: tools/astcheck rule HP1
// proves it (transitively) free of heap allocation, locks, throwing
// constructs, syscalls, and iostream; HP2/HP3 hold its bit arithmetic and
// pool indexing to provenance rules. The attribute spelling is
// [[clang::annotate("poptrie::hot")]] so the clang frontend sees it in the
// AST; GCC would warn on the unknown scoped attribute under -Werror, so the
// macro collapses to nothing there (astcheck's builtin frontend recognizes
// the macro token lexically either way).
//
// POPTRIE_HOT_EXEMPT marks a function reachable from hot code that is
// deliberately outside the purity contract (slow-path branch, cold error
// handler). Every use must carry an adjacent `// hot-exempt: <why>` comment
// (head or the two lines above) — astcheck flags an unjustified exemption,
// mirroring the R5/order-comment convention above.
#if defined(__clang__) && (!defined(SWIG))
#define POPTRIE_HOT [[clang::annotate("poptrie::hot")]]
#define POPTRIE_HOT_EXEMPT [[clang::annotate("poptrie::hot_exempt")]]
#else
#define POPTRIE_HOT            // no-op: attribute is clang-only
#define POPTRIE_HOT_EXEMPT     // no-op: attribute is clang-only
#endif

namespace psync {
namespace cap {

/// Tag type for a phantom capability (no runtime state; see header comment).
struct POPTRIE_CAPABILITY("ebr") EbrCapability {};
struct POPTRIE_CAPABILITY("quiescent") QuiescentCapability {};

/// The EBR protocol capability (shared = inside a read-side critical
/// section; exclusive = the single writer role).
inline EbrCapability ebr;
/// The quiescence capability: no read-side critical section exists anywhere.
inline QuiescentCapability quiescent;

}  // namespace cap

/// Scoped claim: "this thread is inside an EBR read-side critical section."
/// Construct one right after (or as part of) taking a real EBR guard —
/// EbrDomain::Guard, dataplane::EbrReader::Guard — and keep them coterminous.
/// R5 of tools/check_concurrency.py demands a `// reader:` comment at the
/// construction site naming the real guard that backs the claim.
class POPTRIE_SCOPED_CAPABILITY EbrReadSection {
public:
    EbrReadSection() POPTRIE_ACQUIRE_SHARED(cap::ebr) {}
    ~EbrReadSection() POPTRIE_RELEASE_GENERIC(cap::ebr) {}
    EbrReadSection(const EbrReadSection&) = delete;
    EbrReadSection& operator=(const EbrReadSection&) = delete;
};

/// Scoped claim: "this thread is THE single EBR writer." Construct one at
/// the top of an update/maintenance burst on the thread that owns the
/// updater role (the paper assumes single-threaded update operation). R5
/// demands an adjacent `// writer:` comment stating why this thread holds
/// the writer role.
class POPTRIE_SCOPED_CAPABILITY EbrWriterSection {
public:
    EbrWriterSection() POPTRIE_ACQUIRE(cap::ebr) {}
    ~EbrWriterSection() POPTRIE_RELEASE(cap::ebr) {}
    EbrWriterSection(const EbrWriterSection&) = delete;
    EbrWriterSection& operator=(const EbrWriterSection&) = delete;
};

/// Scoped claim: "no reader exists anywhere" (workers joined, local Readers
/// destroyed). Acquires BOTH capabilities — quiescence subsumes writer
/// exclusivity — so paths that REQUIRE(cap::quiescent, cap::ebr), such as
/// Router::load, need exactly one section. R5 demands an adjacent
/// `// quiescent:` comment naming the join or construction point that
/// emptied the read side.
class POPTRIE_SCOPED_CAPABILITY QuiescentSection {
public:
    QuiescentSection() POPTRIE_ACQUIRE(cap::quiescent, cap::ebr) {}
    ~QuiescentSection() POPTRIE_RELEASE(cap::quiescent, cap::ebr) {}
    QuiescentSection(const QuiescentSection&) = delete;
    QuiescentSection& operator=(const QuiescentSection&) = delete;
};

}  // namespace psync

#include <mutex>

namespace psync {

/// std::mutex with the capability attribute, so members can be GUARDED_BY it
/// and the analysis tracks lock()/unlock() pairing. Drop-in for std::mutex
/// wherever guarded members exist (src/sync/ebr.hpp's reader_mutex_).
class POPTRIE_CAPABILITY("mutex") Mutex {
public:
    void lock() POPTRIE_ACQUIRE() { m_.lock(); }
    void unlock() POPTRIE_RELEASE() { m_.unlock(); }
    [[nodiscard]] bool try_lock() POPTRIE_THREAD_ANNOTATION(try_acquire_capability(true))
    {
        return m_.try_lock();
    }

private:
    std::mutex m_;
};

/// Scoped lock for psync::Mutex (std::lock_guard is not annotated, so the
/// analysis cannot see through it).
class POPTRIE_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& m) POPTRIE_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~MutexLock() POPTRIE_RELEASE() { m_.unlock(); }
    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    Mutex& m_;
};

}  // namespace psync
