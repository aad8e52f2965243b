// dataplane/engines.hpp — the LpmEngine concept and the adapters that plug
// every lookup structure in the repo into the same forwarding pipeline.
//
// CRAM-style evaluation (PAPERS.md: Chang et al.) needs the pipeline held
// fixed while the structure varies; this file is where that uniformity is
// enforced. An engine exposes exactly what a ForwardingWorker consumes:
//
//   * key_type / addr_type   — the address family it resolves;
//   * name()                 — the row label benches print;
//   * lookup_batch(keys, out, n) — resolve a burst (noexcept, const);
//   * make_reader()          — per-worker read-side state; a Reader::Guard
//                              (a scoped EBR capability claim) is held
//                              around each burst.
//
// Poptrie goes through router::Router (RIB + adjacency table + EBR), so it
// supports live churn; the baselines are compiled read-only structures and
// use a no-op reader. Their scalar lookups are wrapped in a software-
// pipelined loop with prefetch staging of the key-derived top-level access
// where the structure exposes one; for opaque baselines a plain loop is the
// honest representation of what that structure offers a forwarding plane.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

#include "baselines/dir24.hpp"
#include "snapshot/snapshot.hpp"
#include "baselines/dxr.hpp"
#include "baselines/sail.hpp"
#include "baselines/treebitmap.hpp"
#include "rib/route.hpp"
#include "router/router.hpp"
#include "sync/annotations.hpp"
#include "sync/ebr.hpp"

namespace dataplane {

/// Read-side state for engines with no concurrent-update machinery. Its
/// Guard still claims the shared EBR capability so the worker loop is
/// uniform across engines; the claim is vacuously sound — a read-only
/// structure has no updater and retires nothing.
struct NullReader {
    class POPTRIE_SCOPED_CAPABILITY Guard {
    public:
        POPTRIE_HOT explicit Guard(NullReader&) noexcept POPTRIE_ACQUIRE_SHARED(psync::cap::ebr) {}
        POPTRIE_HOT ~Guard() POPTRIE_RELEASE_GENERIC(psync::cap::ebr) {}
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;
    };
};

/// Read-side state wrapping an EBR registration (Poptrie's §3.5 contract).
/// Guard is the real read-side critical section: enter() on construction,
/// exit() on destruction, carrying the shared EBR capability in between.
class EbrReader {
public:
    explicit EbrReader(psync::EbrDomain::Reader reader) noexcept
        : reader_(std::move(reader))
    {
    }

    class POPTRIE_SCOPED_CAPABILITY Guard {
    public:
        POPTRIE_HOT explicit Guard(EbrReader& r) noexcept POPTRIE_ACQUIRE_SHARED(psync::cap::ebr)
            : reader_(r.reader_)
        {
            reader_.enter();
        }
        POPTRIE_HOT ~Guard() POPTRIE_RELEASE_GENERIC(psync::cap::ebr) { reader_.exit(); }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;

    private:
        psync::EbrDomain::Reader& reader_;
    };

private:
    psync::EbrDomain::Reader reader_;
};

/// What the forwarding pipeline requires of a lookup structure.
template <class E>
concept LpmEngine = requires(const E& ce, E& e, const typename E::key_type* keys,
                             rib::NextHop* out, std::size_t n) {
    typename E::addr_type;
    typename E::key_type;
    { ce.name() } -> std::convertible_to<std::string_view>;
    // check-concurrency: allow -- requires-expression, spelled but never run.
    { ce.lookup_batch(keys, out, n) } noexcept;
    { e.make_reader() };
};

/// Poptrie behind the Router integration layer. The only engine that
/// supports concurrent route churn: a control thread may call
/// Router::add_route / remove_route while workers forward.
class PoptrieEngine {
public:
    using addr_type = netbase::Ipv4Addr;
    using key_type = addr_type::value_type;
    static constexpr bool kSupportsChurn = true;

    explicit PoptrieEngine(router::Router4& router) noexcept : router_(&router) {}

    [[nodiscard]] std::string_view name() const noexcept { return "poptrie"; }

    // REQUIRES_SHARED: this is the serving path that races a live updater;
    // the worker must hold a Guard (from make_reader()) for the whole burst.
    // Deleting the guard in the worker loop fails the POPTRIE_TSA build.
    POPTRIE_HOT void lookup_batch(const key_type* keys, rib::NextHop* out,
                      std::size_t n) const noexcept POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        // One configuration branch per burst, then the refill batch walk
        // (lookup_pipelined.ipp) for the whole batch.
        if (router_->fib().config().leaf_compression)
            router_->fib().lookup_batch<true>(keys, out, n);
        else
            router_->fib().lookup_batch<false>(keys, out, n);
    }

    [[nodiscard]] EbrReader make_reader() const
    {
        return EbrReader{router_->register_reader()};
    }

    [[nodiscard]] router::Router4& router() const noexcept { return *router_; }

private:
    router::Router4* router_;
};

/// A restored snapshot image served read-only. No writer side exists at all
/// — no EBR domain, no pool growth, no Router — so the NullReader's vacuous
/// capability claim is exact, not an approximation: there is nothing an
/// updater could ever retire. The batch path is SnapshotFib::lookup_batch
/// over the mapped (or copied-in) image: the same batch walk as the live
/// trie.
class SnapshotEngine {
public:
    using addr_type = netbase::Ipv4Addr;
    using key_type = addr_type::value_type;
    static constexpr bool kSupportsChurn = false;

    explicit SnapshotEngine(const snapshot::SnapshotFib4& fib) noexcept : fib_(&fib) {}

    [[nodiscard]] std::string_view name() const noexcept { return "snapshot"; }

    // REQUIRES_SHARED keeps the worker-loop contract uniform: the burst is
    // bracketed by a NullReader::Guard whose claim is vacuously satisfied.
    POPTRIE_HOT void lookup_batch(const key_type* keys, rib::NextHop* out,
                      std::size_t n) const noexcept POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        fib_->lookup_batch(keys, out, n);
    }

    [[nodiscard]] NullReader make_reader() const noexcept { return {}; }

    [[nodiscard]] const snapshot::SnapshotFib4& fib() const noexcept { return *fib_; }

private:
    const snapshot::SnapshotFib4* fib_;
};

/// Adapter for the read-only baselines: any structure with a scalar
/// `lookup(Ipv4Addr) -> NextHop`. No churn support (the paper's baselines
/// have no concurrent-update story; the bench holds their tables fixed).
template <class Impl>
class ScalarEngine {
public:
    using addr_type = netbase::Ipv4Addr;
    using key_type = addr_type::value_type;
    static constexpr bool kSupportsChurn = false;

    ScalarEngine(const Impl& impl, std::string name) noexcept
        : impl_(&impl), name_(std::move(name))
    {
    }

    [[nodiscard]] std::string_view name() const noexcept { return name_; }

    POPTRIE_HOT void lookup_batch(const key_type* keys, rib::NextHop* out,
                      std::size_t n) const noexcept
    {
        for (std::size_t i = 0; i < n; ++i) out[i] = impl_->lookup(addr_type{keys[i]});
    }

    [[nodiscard]] NullReader make_reader() const noexcept { return {}; }

private:
    const Impl* impl_;
    std::string name_;
};

using SailEngine = ScalarEngine<baselines::Sail>;
using Dir24Engine = ScalarEngine<baselines::Dir24>;
using DxrEngine = ScalarEngine<baselines::Dxr>;
using TreeBitmapEngine = ScalarEngine<baselines::TreeBitmap16>;

static_assert(LpmEngine<PoptrieEngine>);
static_assert(LpmEngine<SnapshotEngine>);
static_assert(LpmEngine<SailEngine>);
static_assert(LpmEngine<Dir24Engine>);
static_assert(LpmEngine<DxrEngine>);
static_assert(LpmEngine<TreeBitmapEngine>);

}  // namespace dataplane
