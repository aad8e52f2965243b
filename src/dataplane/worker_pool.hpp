// dataplane/worker_pool.hpp — thread spawning and CPU-affinity boilerplate,
// shared by the Dataplane orchestrator and the multicore benches.
//
// Before this existed, every multicore measurement (bench_figure8, the old
// benchkit::measure_random_multithread) spawned and joined its own jthreads;
// the dataplane needs the identical scaffolding plus optional pinning, so
// the boilerplate lives here once. Figure 8's near-linear scaling claim is
// sensitive to the scheduler migrating workers across cores mid-trial;
// pin_cpus makes the paper's fixed-core setup reproducible.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "benchkit/runner.hpp"
#include "workload/xorshift.hpp"

namespace dataplane {

struct WorkerPoolConfig {
    unsigned threads = 1;
    /// Pin worker i to CPU (cpu_offset + i) % hardware_concurrency. Only
    /// effective on Linux; silently a no-op elsewhere.
    bool pin_cpus = false;
    unsigned cpu_offset = 0;
};

/// Pins the calling thread to `cpu`. Returns false when unsupported or the
/// kernel refused (e.g. the CPU is outside the allowed mask in a container).
bool pin_current_thread(unsigned cpu) noexcept;

/// Spawns cfg.threads threads running body(worker_index) and joins them in
/// join() (or the destructor). Affinity is applied inside each worker before
/// body runs.
class WorkerPool {
public:
    WorkerPool(const WorkerPoolConfig& cfg, std::function<void(unsigned)> body);
    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Blocks until every worker returned. Idempotent. join() is the
    /// dataplane's quiescence edge: once it returns, no worker thread exists,
    /// so no EBR read-side critical section survives — callers may then
    /// claim a psync::QuiescentSection (lpmd reads the merged latency under
    /// one).
    void join();

    [[nodiscard]] unsigned size() const noexcept { return threads_count_; }

private:
    unsigned threads_count_;
    std::vector<std::thread> threads_;
};

/// Fig. 8's measurement loop on the shared pool scaffolding: aggregated
/// random-pattern rate over `threads` concurrent lookup threads sharing one
/// read-only structure. Replaces benchkit::measure_random_multithread; the
/// per-thread seeds (0x9000 + worker) and trial handling are unchanged, so
/// checksums remain comparable across the refactor.
template <class Lookup>
benchkit::RateResult measure_random_multithread(Lookup&& lookup,
                                                std::size_t lookups_per_thread,
                                                unsigned threads, unsigned trials,
                                                bool pin_cpus = false)
{
    benchkit::RateResult r;
    std::vector<double> rates;
    for (unsigned t = 0; t < trials; ++t) {
        std::vector<std::uint64_t> sums(threads, 0);
        const auto t0 = std::chrono::steady_clock::now();
        {
            WorkerPool pool({.threads = threads, .pin_cpus = pin_cpus},
                            [&](unsigned w) {
                                workload::Xorshift128 rng(0x9000 + w);
                                std::uint64_t sum = 0;
                                for (std::size_t i = 0; i < lookups_per_thread; ++i)
                                    sum += static_cast<std::uint64_t>(lookup(rng.next()));
                                sums[w] = sum;
                            });
            pool.join();
        }
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        rates.push_back(static_cast<double>(lookups_per_thread) *
                        static_cast<double>(threads) / secs / 1e6);
        for (const auto s : sums) r.checksum += s;
    }
    const auto ms = benchkit::mean_std(rates);
    r.mlps_mean = ms.mean;
    r.mlps_std = ms.std;
    return r;
}

}  // namespace dataplane
