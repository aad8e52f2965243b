// dataplane/churn.hpp — the control-plane side of the dataplane: a thread
// that replays a workload::updatefeed through Router::add_route/remove_route
// while forwarding workers keep running.
//
// This is §3.5 end-to-end: the paper's lock-free update machinery exists so
// route churn never blocks lookups, and this runner is how the repo proves
// it on a live pipeline rather than in a unit test. Update pacing is
// deadline-based (event i is applied no earlier than start + i/rate), so a
// configured rate survives scheduling hiccups without bunching.
#pragma once

#include <cstdint>
#include <thread>

#include "rib/route.hpp"
#include "router/router.hpp"
#include "sync/annotations.hpp"
#include "sync/counters.hpp"
#include "workload/updatefeed.hpp"

namespace dataplane {

/// Loads a route list into an empty Router with one FIB compile
/// (Router::load), interning adjacencies with the same hop mapping
/// ChurnRunner uses — so a feed announcement that re-announces an existing
/// hop reuses the existing adjacency index. Churn may start right after:
/// the pools grow in place under live readers. Call before any forwarding
/// or churn thread exists.
void load_routes(router::Router4& router,
                 const rib::RouteList<netbase::Ipv4Addr>& routes);

struct ChurnConfig {
    /// Total updates to apply (the feed is generated to this length).
    std::size_t updates = 10'000;
    /// Updates per second; 0 applies the feed as fast as possible.
    double rate_per_sec = 0;
    /// Feed shape (announce/withdraw mix, seeds); `updates` overrides the
    /// feed config's own count.
    workload::UpdateFeedConfig feed{};
};

/// Applies a synthetic BGP feed to a Router on a dedicated thread. The
/// Router's single-writer contract is preserved: this thread is the only
/// one calling add_route/remove_route while it runs. Forwarding may run
/// concurrently: the FIB's pools commit pages in place and never move, so
/// a feed that outgrows them disturbs no reader.
class ChurnRunner {
public:
    /// Builds the feed against `routes` (the table the router currently
    /// holds, so withdrawals hit existing prefixes) and starts the thread.
    ChurnRunner(router::Router4& router,
                const rib::RouteList<netbase::Ipv4Addr>& routes, ChurnConfig cfg);

    /// Requests early stop and joins. Also called by the destructor.
    void stop_and_join();
    ~ChurnRunner();

    /// Writer handover: blocks until the churn thread is parked between
    /// updates (or the feed finished, in which case the thread is joined).
    /// While paused, the caller is the Router's writer — lpmd runs
    /// Router::compact_fib() and the snapshot save here while its workers
    /// keep forwarding. Balance every pause() with resume().
    ///
    /// Capability-wise, pause() hands the caller the exclusive EBR writer
    /// role, which the parked churn thread otherwise holds.
    void pause() POPTRIE_ACQUIRE(psync::cap::ebr);
    void resume() noexcept POPTRIE_RELEASE(psync::cap::ebr);

    ChurnRunner(const ChurnRunner&) = delete;
    ChurnRunner& operator=(const ChurnRunner&) = delete;

    /// True once the whole feed has been applied.
    [[nodiscard]] bool finished() const noexcept { return finished_.read() != 0; }

    [[nodiscard]] std::uint64_t applied() const noexcept { return applied_.read(); }
    [[nodiscard]] std::uint64_t announcements() const noexcept
    {
        return announcements_.read();
    }
    [[nodiscard]] std::uint64_t withdrawals() const noexcept
    {
        return withdrawals_.read();
    }

    /// The adjacency a feed next-hop id maps to (shared with table setup so
    /// initial routes and churned routes intern consistently).
    [[nodiscard]] static router::Adjacency<netbase::Ipv4Addr> adjacency_for(
        rib::NextHop hop);

private:
    void run(std::vector<workload::UpdateEvent> events, ChurnConfig cfg);

    router::Router4& router_;
    psync::StopFlag stop_;
    psync::PauseGate gate_;
    psync::EventCounter applied_;
    psync::EventCounter announcements_;
    psync::EventCounter withdrawals_;
    psync::EventCounter finished_;  // 0/1 flag with counter plumbing
    std::thread thread_;
};

}  // namespace dataplane
