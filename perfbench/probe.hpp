// perfbench/probe.hpp — measures the forwarding pipeline from outside.
//
// Dataplane<Engine> is driven unmodified. TimedEngine<Inner> wraps the engine
// it serves (PoptrieEngine or SnapshotEngine): the worker loop calls the
// wrapper's make_reader(), holds the wrapper's Guard around each burst and
// calls the wrapper's lookup_batch(), and the wrapper forwards each call to
// the real engine with a timestamp on either side. Nothing inside src/
// knows it is being measured.
//
// Burst matching. In the open-loop and verify phases the producer offers
// whole bursts of exactly `burst` keys, one per offer() call, to a fresh
// Dataplane whose shard cursor starts at ring 0. offer() places a burst that
// fits into ring (b mod workers), and a worker pops at most `burst` keys, so
// worker w's k-th lookup_batch is global burst k*workers + w. Each worker
// knows w from its CPU pin (cpu_offset + w). The wrapper checks the burst
// length and three of its keys against the stream; a burst that was split,
// refused or spilled to another ring breaks the sequence and is counted as a
// mismatch, which fails the run. The producer never lets that happen on a
// stall: it holds a burst back until its ring has room (PhaseContext::done),
// so a stalled worker shows up as latency and generator lateness instead.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "rib/route.hpp"
#include "sync/annotations.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Pipeline shape shared with the harness: two forwarding workers pinned to
/// CPUs 1 and 2, and bursts of 256 keys (the Dataplane default).
inline constexpr unsigned kWorkers = 2;
inline constexpr unsigned kWorkerCpu0 = 1;
inline constexpr std::size_t kBurst = 256;

enum class Mode { kClosed, kOpen, kVerify };

/// One traced burst, worker side (open loop). Times are steady_clock ns.
struct BurstSpan {
    std::uint64_t burst = 0;
    std::int64_t guard_begin = 0;   ///< wrapper Guard entered (before EBR enter)
    std::int64_t lookup_begin = 0;  ///< lookup_batch entry (EBR enter done)
    std::int64_t lookup_end = 0;    ///< lookup_batch return: the completion stamp
    std::int64_t guard_end = 0;     ///< EBR exit done
    std::uint32_t keys = 0;
};

/// Per-worker accounting. Written only by its worker; the counters the
/// producer samples mid-phase are relaxed atomics.
struct WorkerProbe {
    const std::atomic<bool>* traced = nullptr;  ///< PhaseContext::traced
    unsigned worker = 0;
    int cpu = -1;
    std::uint64_t next_k = 0;
    std::uint64_t mismatches = 0;
    std::atomic<std::uint64_t> keys{0};
    std::atomic<std::uint64_t> bursts{0};
    std::atomic<std::int64_t> busy_ns{0};
    std::int64_t guard_begin = 0;
    std::vector<std::int64_t> latency_ns;  ///< open loop: completion - due
    std::vector<BurstSpan> spans;          ///< open loop, traced only

    [[nodiscard]] bool tracing() const noexcept
    {
        // order: relaxed — a mode flag; which window a straddling burst
        // lands in does not matter.
        return traced->load(std::memory_order_relaxed);
    }
};

/// Everything a phase's workers need. Set up before the phase's Dataplane
/// starts and read-only while it runs, except `traced`, which the producer
/// toggles between closed-loop windows.
struct PhaseContext {
    Mode mode = Mode::kClosed;
    std::atomic<bool> traced{false};
    const std::uint32_t* stream = nullptr;
    std::size_t stream_bursts = 0;  ///< bursts in the stream; burst b reuses b mod this
    std::uint64_t max_bursts = 0;
    std::int64_t t0_ns = 0;          ///< due(b) = t0_ns + b * interval_ns
    double interval_ns = 0;
    rib::NextHop* verify_out = nullptr;  ///< verify: served hop of stream key i
    /// Bursts each ring's worker has popped and finished (open loop and
    /// verify), so offered - done bounds what the ring still holds.
    std::array<std::atomic<std::uint64_t>, kWorkers> done{};

    std::mutex mu;
    std::vector<std::unique_ptr<WorkerProbe>> probes POPTRIE_GUARDED_BY(mu);

    [[nodiscard]] std::int64_t due(std::uint64_t b) const noexcept
    {
        return t0_ns + static_cast<std::int64_t>(static_cast<double>(b) * interval_ns);
    }

    /// Registers the calling worker thread. Its ring index comes from its
    /// CPU pin; a worker that is not pinned to exactly one CPU gets an
    /// out-of-range index, so every burst it sees counts as a mismatch.
    WorkerProbe* attach()
    {
        auto probe = std::make_unique<WorkerProbe>();
        probe->traced = &traced;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0 &&
            CPU_COUNT(&set) == 1) {
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set)) probe->cpu = c;
        }
        probe->worker = probe->cpu >= static_cast<int>(kWorkerCpu0)
                            ? static_cast<unsigned>(probe->cpu) - kWorkerCpu0
                            : kWorkers;
        if (mode == Mode::kOpen) {
            const std::size_t per_worker = max_bursts / kWorkers + 1;
            probe->latency_ns.reserve(per_worker);
            if (probe->tracing()) probe->spans.reserve(per_worker);
        }
        WorkerProbe* raw = probe.get();
        const std::lock_guard lock(mu);
        probes.push_back(std::move(probe));
        return raw;
    }
};

inline thread_local WorkerProbe* tls_probe = nullptr;

/// The served engine with a timestamp on each side of every call the worker
/// loop makes into it.
template <class Inner>
class TimedEngine {
    using InnerReader = decltype(std::declval<Inner&>().make_reader());

public:
    using addr_type = typename Inner::addr_type;
    using key_type = typename Inner::key_type;

    TimedEngine(Inner inner, PhaseContext& ctx) noexcept
        : inner_(std::move(inner)), ctx_(&ctx)
    {
    }

    [[nodiscard]] std::string_view name() const noexcept { return inner_.name(); }

    class Reader {
    public:
        Reader(InnerReader inner, WorkerProbe* probe)
            : inner_(std::move(inner)), probe_(probe)
        {
        }

        class POPTRIE_SCOPED_CAPABILITY Guard {
        public:
            explicit Guard(Reader& r) noexcept POPTRIE_ACQUIRE_SHARED(psync::cap::ebr)
                : probe_(r.probe_)
            {
                if (probe_->tracing()) probe_->guard_begin = now_ns();
                inner_.emplace(r.inner_);
            }
            ~Guard() POPTRIE_RELEASE_GENERIC(psync::cap::ebr)
            {
                inner_.reset();
                if (!probe_->spans.empty() && probe_->spans.back().guard_end == 0)
                    probe_->spans.back().guard_end = now_ns();
            }
            Guard(const Guard&) = delete;
            Guard& operator=(const Guard&) = delete;

        private:
            WorkerProbe* probe_;
            std::optional<typename InnerReader::Guard> inner_;
        };

    private:
        InnerReader inner_;
        WorkerProbe* probe_;
    };

    /// Runs on the worker thread, once, before its first burst.
    [[nodiscard]] Reader make_reader()
    {
        WorkerProbe* probe = ctx_->attach();
        tls_probe = probe;
        return Reader{inner_.make_reader(), probe};
    }

    /// Untraced, the only clock read is the open loop's completion stamp.
    void lookup_batch(const key_type* keys, rib::NextHop* out, std::size_t n) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        WorkerProbe& p = *tls_probe;
        const bool traced = p.tracing();
        const std::int64_t begin = traced ? now_ns() : 0;
        inner_.lookup_batch(keys, out, n);
        switch (ctx_->mode) {
        case Mode::kClosed:
            if (traced) on_closed(p, n, now_ns());
            return;
        case Mode::kOpen:
            on_matched(p, keys, out, n, begin, now_ns(), traced);
            return;
        case Mode::kVerify:
            on_matched(p, keys, out, n, 0, 0, false);
            return;
        }
    }

private:
    static void on_closed(WorkerProbe& p, std::size_t n, std::int64_t end) noexcept
    {
        // order: relaxed — single writer; the producer reads window deltas.
        p.keys.store(p.keys.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
        p.bursts.store(p.bursts.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
        p.busy_ns.store(p.busy_ns.load(std::memory_order_relaxed) + (end - p.guard_begin),
                        std::memory_order_relaxed);
    }

    void on_matched(WorkerProbe& p, const key_type* keys, const rib::NextHop* out,
                    std::size_t n, std::int64_t begin, std::int64_t end,
                    bool traced) const noexcept
    {
        const PhaseContext& c = *ctx_;
        const std::uint64_t b = p.next_k++ * kWorkers + p.worker;
        // order: relaxed — only bounds ring occupancy; a stale value makes
        // the producer wait a little longer, never overfill the ring.
        if (p.worker < kWorkers)
            ctx_->done[p.worker].store(p.next_k, std::memory_order_relaxed);
        const std::size_t pos = static_cast<std::size_t>(b % c.stream_bursts) * kBurst;
        const bool ok = p.worker < kWorkers && b < c.max_bursts && n == kBurst &&
                        keys[0] == c.stream[pos] && keys[n / 2] == c.stream[pos + n / 2] &&
                        keys[n - 1] == c.stream[pos + n - 1];
        if (!ok) {
            ++p.mismatches;
            return;
        }
        if (c.mode == Mode::kVerify) {
            for (std::size_t i = 0; i < n; ++i) c.verify_out[pos + i] = out[i];
            return;
        }
        p.latency_ns.push_back(end - c.due(b));
        if (traced)
            p.spans.push_back({b, p.guard_begin, begin, end, 0, static_cast<std::uint32_t>(n)});
    }

    Inner inner_;
    PhaseContext* ctx_;
};

}  // namespace perfbench
