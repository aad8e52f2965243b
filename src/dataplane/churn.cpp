#include "dataplane/churn.hpp"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace dataplane {

router::Adjacency<netbase::Ipv4Addr> ChurnRunner::adjacency_for(rib::NextHop hop)
{
    // Deterministic hop -> (gateway, interface) mapping: the gateway encodes
    // the hop id, interfaces spread over a small set like a real box's ports.
    return {netbase::Ipv4Addr{0x0A000000u + hop}, "sim" + std::to_string(hop % 8)};
}

void load_routes(router::Router4& router,
                 const rib::RouteList<netbase::Ipv4Addr>& routes)
{
    // quiescent: callers load before any forwarding or churn thread exists
    // (header contract), so no reader is registered yet.
    const psync::QuiescentSection quiescent;
    router.load(routes, ChurnRunner::adjacency_for);
}

ChurnRunner::ChurnRunner(router::Router4& router,
                         const rib::RouteList<netbase::Ipv4Addr>& routes,
                         ChurnConfig cfg)
    : router_(router)
{
    cfg.feed.updates = cfg.updates;
    auto events = workload::make_update_feed(routes, cfg.feed);
    thread_ = std::thread([this, events = std::move(events), cfg]() mutable {
        run(std::move(events), cfg);
    });
}

void ChurnRunner::run(std::vector<workload::UpdateEvent> events, ChurnConfig cfg)
{
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (stop_.requested()) return;
        if (gate_.pause_requested()) {
            // Park between updates — the FIB is structurally consistent
            // here, so the pausing thread may act as its writer. Deadline
            // pacing below absorbs the parked time by bursting briefly
            // afterwards.
            gate_.enter_park();
            while (gate_.pause_requested() && !stop_.requested())
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            if (stop_.requested()) return;
        }
        if (cfg.rate_per_sec > 0) {
            const auto deadline =
                start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(static_cast<double>(i) /
                                                          cfg.rate_per_sec));
            std::this_thread::sleep_until(deadline);
        }
        const auto& ev = events[i];
        if (ev.next_hop == rib::kNoRoute) {
            (void)router_.remove_route(ev.prefix);
            withdrawals_.add(1);
        } else {
            router_.add_route(ev.prefix, adjacency_for(ev.next_hop));
            announcements_.add(1);
        }
        applied_.add(1);
    }
    finished_.add(1);
}

void ChurnRunner::stop_and_join()
{
    stop_.request();
    if (thread_.joinable()) thread_.join();
}

void ChurnRunner::pause()
{
    const auto token = gate_.request_pause();
    while (!gate_.parked_since(token)) {
        if (finished()) {
            // The feed ran out instead of parking; join for the full
            // happens-before edge the park would have given us.
            if (thread_.joinable()) thread_.join();
            return;
        }
        std::this_thread::yield();
    }
}

void ChurnRunner::resume() noexcept { gate_.resume(); }

ChurnRunner::~ChurnRunner() { stop_and_join(); }

}  // namespace dataplane
