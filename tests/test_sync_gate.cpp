// test_sync_gate.cpp — edge cases of the PauseGate park handshake
// (sync/counters.hpp).
//
// The gate's correctness hinges on the park *generation counter*: a boolean
// acknowledgement would let an ack from a previous pause satisfy a new
// request, and the orchestrator would mutate state the worker still owns.
// These tests pin that property, the pause→resume→pause reentry shape lpmd
// --compact-every relies on, and the destruction window.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "sync/counters.hpp"

namespace {

TEST(PauseGate, StaleAckDoesNotSatisfyNewRequest)
{
    // Single-threaded protocol walk: this thread plays both roles in
    // sequence, which is exactly what makes the stale-ack hazard visible.
    psync::PauseGate gate;

    const auto t1 = gate.request_pause();
    EXPECT_FALSE(gate.parked_since(t1));  // no ack yet
    gate.enter_park();                    // worker acks request #1
    EXPECT_TRUE(gate.parked_since(t1));
    gate.resume();

    // Request #2. The park from request #1 is already in the counter, so a
    // boolean flag would report "parked" here — the generation token must
    // not.
    const auto t2 = gate.request_pause();
    EXPECT_FALSE(gate.parked_since(t2))
        << "a stale ack from the previous pause satisfied a new request";
    gate.enter_park();
    EXPECT_TRUE(gate.parked_since(t2));
    gate.resume();
}

TEST(PauseGate, PauseResumePauseReentryWithWorkerThread)
{
    psync::PauseGate gate;
    psync::StopFlag stop;
    psync::EventCounter bursts;  // worker progress, visible to the test

    std::jthread worker([&] {
        while (!stop.requested()) {
            if (gate.pause_requested()) {
                gate.enter_park();
                while (gate.pause_requested() && !stop.requested())
                    std::this_thread::yield();
            }
            bursts.add(1);
            std::this_thread::yield();
        }
    });

    auto wait_parked = [&](std::uint64_t token) {
        while (!gate.parked_since(token)) std::this_thread::yield();
    };

    // Pause #1: worker parks, orchestrator owns the shared state.
    const auto t1 = gate.request_pause();
    wait_parked(t1);
    const auto parked_at = bursts.read();
    gate.resume();

    // The orchestrator must observe forward progress before re-pausing: a
    // worker still spinning in its park loop would see resume()'s false and
    // the new request's true as one unbroken "paused" and never re-ack.
    // (lpmd gets this spacing for free — compaction points are thousands of
    // updates apart.)
    while (bursts.read() == parked_at) std::this_thread::yield();

    // Pause #2 must get its own, fresh acknowledgement.
    const auto t2 = gate.request_pause();
    wait_parked(t2);
    EXPECT_NE(t1, t2) << "second pause reused the first pause's generation";
    gate.resume();

    stop.request();
}

TEST(PauseGate, DestructionAfterParkedWorkerReleased)
{
    // Shutdown while the worker sits parked: the orchestrator must release
    // the park (resume) alongside the stop request, and the gate must be
    // destroyed only after the join. Declaration order encodes the contract:
    // the jthread is declared after the gate, so it joins before the gate
    // dies; a parked-at-stop-time worker exits cleanly through the release.
    psync::PauseGate gate;
    psync::StopFlag stop;
    psync::EventCounter parks;
    std::jthread worker([&] {
        while (!stop.requested()) {
            if (gate.pause_requested()) {
                gate.enter_park();
                parks.add(1);
                while (gate.pause_requested() && !stop.requested())
                    std::this_thread::yield();
            }
            std::this_thread::yield();
        }
    });

    const auto t = gate.request_pause();
    while (!gate.parked_since(t)) std::this_thread::yield();

    // Worker is parked right now. Stop and release, then join (jthread).
    stop.request();
    gate.resume();
    worker.join();
    EXPECT_EQ(parks.read(), 1u);
    // gate and stop are destroyed after the join — the worker can no longer
    // touch them. Reaching the end of scope without a hang is the assertion.
}

}  // namespace
