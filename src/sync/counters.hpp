// sync/counters.hpp — shared-state scalars for the dataplane, kept here so
// the placement rule (tools/check_atomics.py: raw atomics live in src/sync)
// holds for the worker pipeline too.
//
//   * EventCounter — a cache-line-padded monotonically increasing counter a
//     single worker bumps and any observer thread may snapshot. Relaxed on
//     both sides: the values are statistics, never used to order accesses to
//     other data.
//   * StopFlag — a one-way shutdown signal set by the orchestrator and
//     polled by workers.
//   * PauseGate — a park handshake: the orchestrator asks a worker to park,
//     waits for the acknowledgement, takes over the role the worker
//     normally holds (e.g. the FIB's writer role, to compact it), then
//     resumes it.
#pragma once

#include <atomic>
#include <cstdint>

namespace psync {

/// Monotonic event counter on its own cache line. One writer, any readers.
struct alignas(64) EventCounter {
    EventCounter() = default;
    EventCounter(const EventCounter&) = delete;
    EventCounter& operator=(const EventCounter&) = delete;

    void add(std::uint64_t n) noexcept
    {
        // order: relaxed (load and store) [cap:stats] — a statistic with a
        // single incrementing thread; observers tolerate staleness.
        const auto v = value_.load(std::memory_order_relaxed);
        value_.store(v + n, std::memory_order_relaxed);  // order: see above [cap:stats]
    }

    [[nodiscard]] std::uint64_t read() const noexcept
    {
        // order: relaxed [cap:stats] — snapshot for reporting only; never
        // used to justify access to other shared data.
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// One-way shutdown signal: the orchestrator request()s, workers poll.
class StopFlag {
public:
    void request() noexcept
    {
        // order: release [cap:stop-flag] — anything the requester wrote
        // before stopping is visible to a worker that acquires the flag.
        stop_.store(true, std::memory_order_release);
    }

    [[nodiscard]] bool requested() const noexcept
    {
        // order: acquire [cap:stop-flag] — pairs with request()'s release.
        return stop_.load(std::memory_order_acquire);
    }

private:
    std::atomic<bool> stop_{false};
};

/// Park handshake between an orchestrator thread and ONE worker thread.
/// Protocol:
///
///   orchestrator                         worker (at a consistent point)
///   token = request_pause()              if (pause_requested()) {
///   while (!parked_since(token)) ...         enter_park();
///   ... mutate shared state ...              while (pause_requested()) ...
///   resume()                             }
///
/// enter_park() is a release store the orchestrator acquires through
/// parked_since(), so everything the worker wrote before parking is visible
/// while it is parked; resume() is a release store the worker acquires
/// through pause_requested(), so the orchestrator's mutations are visible
/// when the worker continues. The park generation (not a boolean) is what
/// parked_since() compares, so a stale acknowledgement from an earlier
/// pause can never satisfy a new request. The orchestrator's wait loop is
/// its own: a worker may exit instead of parking (feed finished), which the
/// caller detects and handles (typically by joining the thread).
class PauseGate {
public:
    /// Orchestrator: requests a pause; pass the token to parked_since().
    [[nodiscard]] std::uint64_t request_pause() noexcept
    {
        // order: acquire [cap:pause-gate] — the token must be read before the
        // request publishes, or a park racing the request is miscounted.
        const auto token = parks_.load(std::memory_order_acquire);
        // order: release [cap:pause-gate] — see the class protocol doc.
        pause_.store(true, std::memory_order_release);
        return token;
    }

    /// Orchestrator: true once the worker parked after request_pause().
    [[nodiscard]] bool parked_since(std::uint64_t token) const noexcept
    {
        // order: acquire [cap:pause-gate] — pairs with enter_park()'s
        // release increment.
        return parks_.load(std::memory_order_acquire) != token;
    }

    /// Orchestrator: lifts the pause; the parked worker resumes.
    void resume() noexcept
    {
        // order: release [cap:pause-gate] — pairs with pause_requested()'s
        // acquire load.
        pause_.store(false, std::memory_order_release);
    }

    /// Worker: polls for a pause request (also the in-park wait condition).
    [[nodiscard]] bool pause_requested() const noexcept
    {
        // order: acquire [cap:pause-gate] — pairs with request_pause() and
        // resume()'s release stores.
        return pause_.load(std::memory_order_acquire);
    }

    /// Worker: acknowledges the pause. Call once, then spin/sleep on
    /// pause_requested() before touching shared state again.
    void enter_park() noexcept
    {
        // order: release [cap:pause-gate] — publishes everything written
        // before the park.
        parks_.fetch_add(1, std::memory_order_release);
    }

private:
    // Handshake fields. Nothing outside this class may name them: rule R4 of
    // tools/check_concurrency.py flags any `.pause_`/`.parks_` member access
    // outside this header, so the generation-counter protocol above is the
    // only way in.
    std::atomic<bool> pause_{false};
    std::atomic<std::uint64_t> parks_{0};
};

}  // namespace psync
