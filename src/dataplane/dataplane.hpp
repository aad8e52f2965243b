// dataplane/dataplane.hpp — the forwarding pipeline orchestrator.
//
// Topology (one Dataplane instance):
//
//   producer thread ──offer()──► ring[0] ──► worker 0 ─┐
//                      (shard)   ring[1] ──► worker 1  ├─► per-worker
//                        ...     ring[N-1]─► worker N-1┘   counters+latency
//
// Each worker owns one SPSC ring (no MPMC contention), drains it in bursts
// of at most cfg.burst addresses, and resolves the burst with the engine's
// batched lookup inside a single read-side guard — for Poptrie that is one
// EbrDomain::Guard per burst, exactly the §3.5 granularity the paper's
// update machinery assumes (readers quiesce between batches, so retired FIB
// arrays reclaim promptly without per-lookup fence cost). Per-burst latency
// is sampled into a bounded reservoir (benchkit::Reservoir), so tail
// percentiles come out of a multi-minute soak with fixed memory.
//
// Thread contract: offer() from one producer thread; start()/stop() from
// the owning thread, once each — a stopped pipeline is finished; stats()
// from anywhere. A control-plane thread may
// mutate the engine's table concurrently only if the engine supports it
// (PoptrieEngine; see churn.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "benchkit/stats.hpp"
#include "dataplane/engines.hpp"
#include "dataplane/stats.hpp"
#include "dataplane/worker_pool.hpp"
#include "rib/route.hpp"
#include "sync/annotations.hpp"
#include "sync/counters.hpp"
#include "sync/spsc_ring.hpp"

namespace dataplane {

struct DataplaneConfig {
    unsigned workers = 4;
    /// Per-worker ring capacity in addresses (rounded up to a power of two).
    std::size_t ring_capacity = std::size_t{1} << 14;
    /// Max addresses drained per burst — the EBR guard scope and the latency
    /// sampling unit. 256 amortizes the guard's fences to ~noise while
    /// keeping per-burst latency meaningful for pacing.
    std::size_t burst = 256;
    bool pin_cpus = false;
    unsigned cpu_offset = 0;
    /// Per-worker latency reservoir capacity (samples kept).
    std::size_t latency_reservoir = 4096;
};

template <LpmEngine Engine>
class Dataplane {
public:
    using key_type = typename Engine::key_type;

    Dataplane(Engine engine, const DataplaneConfig& cfg)
        : engine_(std::move(engine)), cfg_(cfg)
    {
        if (cfg_.workers == 0) cfg_.workers = 1;
        if (cfg_.burst == 0) cfg_.burst = 1;
        workers_.reserve(cfg_.workers);
        for (unsigned w = 0; w < cfg_.workers; ++w)
            workers_.push_back(std::make_unique<WorkerState>(
                cfg_.ring_capacity, cfg_.latency_reservoir, 0xDA7A + w));
    }

    ~Dataplane() { stop(); }
    Dataplane(const Dataplane&) = delete;
    Dataplane& operator=(const Dataplane&) = delete;

    /// Spawns the forwarding workers. Must be called before offer(). A
    /// second call while running does nothing; a call after stop() throws
    /// std::logic_error, since those workers would see the stop request and
    /// exit at once.
    void start()
    {
        if (pool_) return;
        if (stop_.requested())
            throw std::logic_error("Dataplane::start: the pipeline was stopped");
        pool_ = std::make_unique<WorkerPool>(
            WorkerPoolConfig{.threads = cfg_.workers,
                             .pin_cpus = cfg_.pin_cpus,
                             .cpu_offset = cfg_.cpu_offset},
            [this](unsigned w) { worker_main(w); });
    }

    /// Producer: shards `n` addresses across the worker rings. Returns how
    /// many were accepted; the rest were dropped because every ring was full
    /// (accounted in stats().ring_drops). Round-robin over rings, spilling a
    /// partially refused batch to the next ring before giving up.
    std::size_t offer(const key_type* keys, std::size_t n)
    {
        producer_.offered.add(n);
        std::size_t done = 0;
        for (unsigned attempt = 0; attempt < cfg_.workers && done < n; ++attempt) {
            auto& ring = workers_[shard_cursor_]->ring;
            // producer: offer() runs on the single producer thread (class
            // doc), which is every ring's one feeding end.
            const psync::SpscProducerToken token{ring};
            shard_cursor_ = (shard_cursor_ + 1) % cfg_.workers;
            done += ring.push(keys + done, n - done);
        }
        if (done < n) producer_.ring_drops.add(n - done);
        return done;
    }

    /// Requests shutdown: workers drain their rings, then exit; blocks until
    /// all have joined. Idempotent and final. The producer must have stopped
    /// offering.
    void stop()
    {
        stop_.request();
        if (!pool_) return;
        pool_->join();
        pool_.reset();
    }

    /// Live aggregate (exact after stop()).
    [[nodiscard]] StatsSnapshot stats() const
    {
        StatsSnapshot s;
        for (const auto& w : workers_) {
            s.forwarded += w->counters.forwarded.read();
            s.no_route += w->counters.no_route.read();
            s.batches += w->counters.batches.read();
        }
        s.offered = producer_.offered.read();
        s.ring_drops = producer_.ring_drops.read();
        return s;
    }

    /// Merged per-burst latency reservoir (ns samples). Only meaningful
    /// after stop() — workers own their reservoirs while running — which is
    /// what the quiescence requirement enforces statically.
    [[nodiscard]] benchkit::Reservoir merged_latency() const
        POPTRIE_REQUIRES(psync::cap::quiescent)
    {
        benchkit::Reservoir merged(cfg_.latency_reservoir);
        for (const auto& w : workers_) merged.merge(w->latency);
        return merged;
    }

    [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
    [[nodiscard]] const DataplaneConfig& config() const noexcept { return cfg_; }

private:
    struct WorkerState {
        WorkerState(std::size_t ring_capacity, std::size_t reservoir, std::uint64_t seed)
            : ring(ring_capacity), latency(reservoir, seed)
        {
        }
        psync::SpscRing<key_type> ring;
        WorkerCounters counters;
        benchkit::Reservoir latency;  // worker-private until join
    };

    void worker_main(unsigned w)
    {
        WorkerState& st = *workers_[w];
        std::vector<key_type> keys(cfg_.burst);
        std::vector<rib::NextHop> hops(cfg_.burst);
        auto reader = engine_.make_reader();
        // consumer: worker w is ring w's one draining end for its lifetime.
        const psync::SpscConsumerToken consumer{st.ring};
        for (;;) {
            const std::size_t n = st.ring.pop(keys.data(), cfg_.burst);
            if (n == 0) {
                // Ring drained: exit if shutdown was requested (the producer
                // has stopped, so empty is final), otherwise yield and poll.
                if (stop_.requested()) break;
                std::this_thread::yield();
                continue;
            }
            const auto t0 = std::chrono::steady_clock::now();
            {
                // reader: the per-burst read-side critical section — one EBR
                // guard per burst, the §3.5 granularity the update machinery
                // assumes.
                const typename decltype(reader)::Guard guard{reader};
                engine_.lookup_batch(keys.data(), hops.data(), n);
            }
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
            std::uint64_t hit = 0;
            for (std::size_t i = 0; i < n; ++i) hit += (hops[i] != rib::kNoRoute) ? 1 : 0;
            st.counters.forwarded.add(hit);
            st.counters.no_route.add(n - hit);
            st.counters.batches.add(1);
            st.latency.add(static_cast<std::uint64_t>(ns));
        }
    }

    Engine engine_;
    DataplaneConfig cfg_;
    std::vector<std::unique_ptr<WorkerState>> workers_;
    ProducerCounters producer_;
    psync::StopFlag stop_;
    unsigned shard_cursor_ = 0;  // producer-private
    std::unique_ptr<WorkerPool> pool_;
};

}  // namespace dataplane
