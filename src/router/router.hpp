// router/router.hpp — the integration layer a software router actually uses.
//
// The paper is explicit that Poptrie resolves a *FIB index*, "the routes are
// preserved in a separate routing table (RIB)", and the index identifies the
// adjacency used to forward (§3). This class wires the pieces together the
// way a control plane would:
//
//   * an adjacency table mapping FIB indices to (gateway, interface) pairs,
//     deduplicated and reference-counted so the 16-bit index space (§5's
//     structural limit) is recycled;
//   * the RIB (binary radix trie) holding the authoritative route set;
//   * the Poptrie FIB. A whole table loads with one compile, aggregated
//     per the Config (§3); route churn then patches it with §3.5's
//     lock-free incremental updates, so forwarding threads are never
//     blocked.
//
// Forwarding threads call resolve()/lookup_index(); a single control thread
// calls load() once, then add_route()/remove_route(). For concurrent
// operation, forwarding threads register once via register_reader() and
// hold an EbrDomain::Guard around lookup batches.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "rib/route.hpp"
#include "snapshot/snapshot.hpp"
#include "sync/annotations.hpp"

namespace router {

/// Forwarding target: next-hop gateway address and outgoing interface.
template <class Addr>
struct Adjacency {
    Addr gateway{};
    std::string interface;

    friend bool operator==(const Adjacency&, const Adjacency&) = default;
};

/// Thrown when the 16-bit adjacency space is exhausted (§5: "the number of
/// FIB entries is limited to 2^16").
class AdjacencyTableFull : public std::runtime_error {
public:
    AdjacencyTableFull() : std::runtime_error("adjacency table full (2^16 - 1 entries)") {}
};

/// RIB + FIB + adjacency table, for one address family.
template <class Addr>
class Router {
public:
    using prefix_type = netbase::Prefix<Addr>;
    using adjacency_type = Adjacency<Addr>;

    explicit Router(const poptrie::Config& cfg = {}) : fib_(cfg)
    {
        // Full 16-bit index space reserved up front so adjacency element
        // addresses stay stable for concurrent resolve() readers even as
        // new adjacencies are interned.
        adjacencies_.reserve(0x10000);
        refcounts_.reserve(0x10000);
        adjacencies_.resize(1);  // index 0 = kNoRoute, never a real adjacency
        refcounts_.resize(1);
    }

    /// Loads a whole table into this empty Router with one FIB compile
    /// (§3), aggregated per the Config, instead of one §3.5 update per
    /// route. `adjacency_of(hop)` names the adjacency of each route's
    /// next-hop id; it runs once per distinct id, and each distinct
    /// adjacency is interned once. Of duplicate prefixes the last wins, as
    /// with a run of add_route() calls.
    ///
    /// All-or-nothing: the table is built into locals and committed by move,
    /// so AdjacencyTableFull, a netbase::StructuralLimit or std::bad_alloc
    /// leaves the Router empty. Quiescent-point only, before any reader
    /// registers: the FIB and its EBR domain are replaced. Throws
    /// std::logic_error if the Router holds routes.
    template <class AdjacencyOf>
    void load(const rib::RouteList<Addr>& routes, AdjacencyOf&& adjacency_of)
        POPTRIE_REQUIRES(psync::cap::quiescent, psync::cap::ebr)
    {
        if (route_count() != 0)
            throw std::logic_error("Router::load: the router already holds routes");
        Router fresh{fib_.config()};
        std::vector<rib::NextHop> index_of_hop(0x10000, rib::kNoRoute);
        rib::RouteList<Addr> table;
        table.reserve(routes.size());
        for (const auto& r : routes) {
            rib::NextHop& index = index_of_hop[r.next_hop];
            if (index == rib::kNoRoute) index = fresh.intern(adjacency_of(r.next_hop));
            table.push_back({r.prefix, index});
        }
        fresh.rib_.insert_all(std::move(table));
        // One reference per installed route. An adjacency named only by
        // duplicates that a later route replaced is released, as the
        // replacing add_route() would have done.
        std::fill(fresh.refcounts_.begin(), fresh.refcounts_.end(), 0);
        fresh.rib_.for_each_route(
            [&](const prefix_type&, rib::NextHop index) { ++fresh.refcounts_[index]; });
        for (std::size_t index = 1; index < fresh.refcounts_.size(); ++index)
            if (fresh.refcounts_[index] == 0) fresh.free_index(static_cast<rib::NextHop>(index));
        fresh.fib_ = poptrie::Poptrie<Addr>{fresh.rib_, fib_.config()};
        *this = std::move(fresh);
    }

    /// Installs or replaces the route for `prefix`. Allocates (or reuses) a
    /// FIB index for the adjacency and patches the FIB incrementally.
    void add_route(const prefix_type& prefix, const adjacency_type& adjacency)
    {
        const rib::NextHop index = intern(adjacency);
        const rib::NextHop previous = rib_.find(prefix);
        fib_.apply(rib_, prefix, index);
        if (previous != rib::kNoRoute) release(previous);
    }

    /// Withdraws the route at `prefix`. Returns false if absent.
    bool remove_route(const prefix_type& prefix)
    {
        const rib::NextHop previous = rib_.find(prefix);
        if (previous == rib::kNoRoute) return false;
        fib_.apply(rib_, prefix, rib::kNoRoute);
        release(previous);
        return true;
    }

    /// Data-plane resolution: the adjacency to forward to, or nullptr.
    [[nodiscard]] const adjacency_type* resolve(Addr addr) const noexcept
    {
        const rib::NextHop index = fib_.lookup(addr);
        return index == rib::kNoRoute ? nullptr : &adjacencies_[index];
    }

    /// Raw FIB-index lookup (what the paper's benches measure).
    [[nodiscard]] rib::NextHop lookup_index(Addr addr) const noexcept
    {
        return fib_.lookup(addr);
    }

    /// Registers a forwarding thread for lookups concurrent with updates.
    [[nodiscard]] psync::EbrDomain::Reader register_reader() { return fib_.register_reader(); }

    [[nodiscard]] std::size_t route_count() const noexcept { return rib_.route_count(); }
    [[nodiscard]] std::size_t adjacency_count() const noexcept { return live_adjacencies_; }
    [[nodiscard]] const poptrie::Poptrie<Addr>& fib() const noexcept { return fib_; }
    [[nodiscard]] const rib::RadixTrie<Addr>& rib() const noexcept { return rib_; }

    /// Runs deferred FIB-memory reclamation to completion. Writer-role only
    /// (exclusive EBR capability — claim an EbrWriterSection on the updater
    /// thread).
    void drain() POPTRIE_REQUIRES(psync::cap::ebr) { fib_.drain(); }

    /// Does nothing. The FIB's pools reserve their whole index space when
    /// they are created and commit pages in place as they grow, so there is
    /// no headroom to size before forwarding starts. Kept for the perfbench
    /// harness, which still calls it.
    void reserve_fib_headroom() noexcept {}

    /// Rewrites the FIB into a fresh DFS-ordered pool set, restoring
    /// fresh-build cache locality after a long update churn (see
    /// Poptrie::compact). Writer-role only, like add_route(); forwarding
    /// threads keep running.
    void compact_fib() POPTRIE_REQUIRES(psync::cap::ebr) { fib_.compact(); }

    /// Persists the FIB as a versioned snapshot image (DESIGN.md §11) for a
    /// later warm start. Note the image captures the FIB's adjacency
    /// *indices* only: the restarting process must rebuild the adjacency
    /// table from its own control-plane state (or serve raw indices, as
    /// lpmd's snapshot engine does). Same contract as compact_fib():
    /// writer-role only, since the writer walks the current pool set.
    void save_fib_snapshot(const std::string& path) const POPTRIE_REQUIRES(psync::cap::ebr)
    {
        snapshot::save(fib_, path);
    }

private:
    using Key = std::pair<typename Addr::value_type, std::string>;

    rib::NextHop intern(const adjacency_type& adjacency)
    {
        const Key key{adjacency.gateway.value(), adjacency.interface};
        if (const auto it = index_of_.find(key); it != index_of_.end()) {
            ++refcounts_[it->second];
            return it->second;
        }
        rib::NextHop index;
        if (!free_indices_.empty()) {
            index = free_indices_.back();
            free_indices_.pop_back();
        } else {
            if (adjacencies_.size() > 0xFFFF) throw AdjacencyTableFull{};
            index = static_cast<rib::NextHop>(adjacencies_.size());
            adjacencies_.emplace_back();
            refcounts_.push_back(0);
        }
        adjacencies_[index] = adjacency;
        refcounts_[index] = 1;
        index_of_.emplace(key, index);
        ++live_adjacencies_;
        return index;
    }

    void release(rib::NextHop index)
    {
        if (--refcounts_[index] == 0) free_index(index);
    }

    void free_index(rib::NextHop index)
    {
        index_of_.erase(Key{adjacencies_[index].gateway.value(),
                            adjacencies_[index].interface});
        adjacencies_[index] = adjacency_type{};
        free_indices_.push_back(index);
        --live_adjacencies_;
    }

    rib::RadixTrie<Addr> rib_;
    poptrie::Poptrie<Addr> fib_;
    // Adjacency storage is append-only in capacity (indices stay stable for
    // concurrent readers); freed slots are recycled through free_indices_.
    std::vector<adjacency_type> adjacencies_;
    std::vector<std::uint32_t> refcounts_;
    std::vector<rib::NextHop> free_indices_;
    std::map<Key, rib::NextHop> index_of_;
    std::size_t live_adjacencies_ = 0;
};

using Router4 = Router<netbase::Ipv4Addr>;
using Router6 = Router<netbase::Ipv6Addr>;

}  // namespace router
