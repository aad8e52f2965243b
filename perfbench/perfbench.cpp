// perfbench/perfbench.cpp — the end-to-end forwarding benchmark.
//
// One process serves one workload the way lpmd does: a Router4 loaded with
// dataplane::load_routes (or a SnapshotFib4 restored from an image) behind a
// Dataplane with 2 pinned forwarding workers, fed by a pinned producer, with
// a pinned churn writer on trace-churn. Four threads at most.
//
//   setup    load the route list (or the image) several times; keep the last
//   closed   producer retries on backpressure: saturation throughput
//   open     producer sends whole bursts at a fixed rate: latency from due time
//   verify   served next hops of a stream sample vs rib::RadixTrie::lookup
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans (offer,
// ring wait, guard, lookup, each update), writes them to --spans, and prints
// the per-layer metrics computed from them. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md has the
// workload rationale and the metric definitions.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dataplane/churn.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/engines.hpp"
#include "dataplane/worker_pool.hpp"
#include "poptrie/poptrie.hpp"
#include "probe.hpp"
#include "rib/radix_trie.hpp"
#include "router/router.hpp"
#include "snapshot/snapshot.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/trafficgen.hpp"
#include "workload/updatefeed.hpp"
#include "workload/xorshift.hpp"

namespace {

using perfbench::kBurst;
using perfbench::kWorkerCpu0;
using perfbench::kWorkers;
using perfbench::now_ns;
using Addr = netbase::Ipv4Addr;
using Routes = rib::RouteList<Addr>;
using Oracle = rib::RadixTrie<Addr>;

constexpr unsigned kProducerCpu = 0;
constexpr unsigned kChurnCpu = 3;
// Closed loop and verify: 256 bursts per ring. Open loop: 4096 bursts per
// ring (105 ms at the open-loop rate), so a short worker stall is absorbed
// as queueing, as a NIC ring would absorb it.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;
constexpr std::size_t kOpenRingCapacity = std::size_t{1} << 20;
constexpr double kChurnPerSec = 5000;
// Open-loop offered rate: 15-25% of saturation on every workload, so the
// latencies measure the pipeline rather than a queue.
constexpr double kOpenMlps = 20.0;
constexpr int64_t kWindowNs = 250'000'000;
constexpr std::uint32_t kGatewayBase = 0x0A000000u;  // ChurnRunner::adjacency_for

struct WorkloadSpec {
    const char* name;
    std::size_t routes;
    bool churn;
    bool snapshot;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"paper-random", 500'000, false, false},
    {"trace-churn", 500'000, true, false},
    {"snapshot-2m", 2'000'000, false, true},
};

struct Options {
    const WorkloadSpec* spec = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;  ///< self-test scale: small tables and streams
    std::string workdir = ".";
    std::string spans;
};

[[noreturn]] void usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload paper-random|trace-churn|snapshot-2m\n"
                 "                 --seed N --seconds S --trace 0|1\n"
                 "                 [--workdir DIR] [--spans FILE] [--tiny]\n",
                 why.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv)
{
    Options o;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (key == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") workload = val;
        else if (key == "--seed") o.seed = std::stoull(val);
        else if (key == "--seconds") o.seconds = std::stod(val);
        else if (key == "--trace") o.trace = val == "1";
        else if (key == "--workdir") o.workdir = val;
        else if (key == "--spans") o.spans = val;
        else usage("unknown option " + key);
    }
    for (const auto& w : kWorkloads)
        if (workload == w.name) o.spec = &w;
    if (o.spec == nullptr) usage("unknown workload '" + workload + "'");
    if (!(o.seconds > 0)) usage("--seconds must be positive");
    return o;
}

// --- small statistics helpers ----------------------------------------------

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double seconds_since(std::int64_t t) { return static_cast<double>(now_ns() - t) * 1e-9; }

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Printed with --trace 0, from untraced runs (BENCHMARK.json end_to_end).
constexpr MetricDef kEndToEnd[] = {
    {"fwd_mlps", "Mlps"}, {"fwd_lat_p50_us", "us"}, {"fwd_lat_p90_us", "us"},
    {"setup_s", "s"},     {"fib_mib", "MiB"},
};

/// Printed with --trace 1 (BENCHMARK.json per_layer). A layer the workload
/// does not exercise reads 0: no updates on paper-random and snapshot-2m,
/// no Router or pools on snapshot-2m, no image on the Router workloads.
constexpr MetricDef kPerLayer[] = {
    {"dataplane.offer_ns", "ns"},
    {"dataplane.offer_accept_ratio", "ratio"},
    {"dataplane.ring_wait_us_p50", "us"},
    {"dataplane.ring_wait_us_p90", "us"},
    {"dataplane.ring_sojourn_us_p50", "us"},
    {"dataplane.worker_busy_share", "ratio"},
    {"dataplane.keys_per_burst", "keys"},
    {"sync.ebr_guard_ns", "ns"},
    {"sync.ebr_drain_ms", "ms"},
    {"poptrie.lookup_ns_per_key", "ns"},
    {"poptrie.burst_service_us_p50", "us"},
    {"poptrie.burst_service_us_p90", "us"},
    {"update_us_p50", "us"},
    {"update_us_p99", "us"},
    {"router.add_route_us_p50", "us"},
    {"router.add_route_us_p99", "us"},
    {"router.remove_route_us_p50", "us"},
    {"router.remove_route_us_p99", "us"},
    {"router.load_s", "s"},
    {"poptrie.nodes_allocated_per_update", "count"},
    {"poptrie.leaves_allocated_per_update", "count"},
    {"poptrie.direct_stores_per_update", "count"},
    {"poptrie.pool_growths_live", "count"},
    {"alloc.node_pool_used", "count"},
    {"alloc.leaf_pool_used", "count"},
    {"alloc.node_free_blocks", "count"},
    {"alloc.leaf_free_blocks", "count"},
    {"alloc.headroom_reserve_ms", "ms"},
    {"alloc.reserved_mib", "MiB"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.first_pass_ms", "ms"},
    {"snapshot.image_mib", "MiB"},
    {"workload.repeat_share", "ratio"},
    {"workload.deep_share", "ratio"},
    {"workload.miss_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"bench.gen_late_us_p99", "us"},
    {"bench.gen_late_us_max", "us"},
    {"bench.lat_samples", "count"},
    {"bench.update_samples", "count"},
    {"bench.burst_mismatches", "count"},
    {"bench.cpu_producer", "cpu"},
    {"bench.cpu_worker0", "cpu"},
    {"bench.cpu_worker1", "cpu"},
    {"bench.cpu_churn", "cpu"},
};

class Report {
public:
    void set(const std::string& name, double value)
    {
        if (find(kEndToEnd, name) == nullptr && find(kPerLayer, name) == nullptr)
            throw std::logic_error("unregistered metric " + name);
        values_[name] = value;
    }

    /// Human-readable lines, then the one JSON result line (last on stdout).
    void print(bool trace, bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        const auto line = [this](const MetricDef& m) {
            std::printf("%-40s %16.6f %s\n", m.name, get(m), m.unit);
        };
        for (const auto& m : kEndToEnd) line(m);
        if (trace)
            for (const auto& m : kPerLayer) line(m);
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                    correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        const char* sep = "";
        for (const auto& m : trace ? std::span<const MetricDef>{kPerLayer}
                                   : std::span<const MetricDef>{kEndToEnd}) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name, get(m),
                        m.unit);
            sep = ", ";
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

private:
    template <std::size_t N>
    static const MetricDef* find(const MetricDef (&defs)[N], const std::string& name)
    {
        for (const auto& d : defs)
            if (name == d.name) return &d;
        return nullptr;
    }

    [[nodiscard]] double get(const MetricDef& m) const
    {
        const auto it = values_.find(m.name);
        return it == values_.end() ? 0.0 : it->second;
    }

    std::map<std::string, double> values_;
};

dataplane::DataplaneConfig dp_config(std::size_t ring_capacity = kRingCapacity)
{
    dataplane::DataplaneConfig c;
    c.workers = kWorkers;
    c.ring_capacity = ring_capacity;
    c.burst = kBurst;
    c.pin_cpus = true;
    c.cpu_offset = kWorkerCpu0;
    c.latency_reservoir = 16;  // the Dataplane's own reservoir is unused here
    return c;
}

void init_context(perfbench::PhaseContext& ctx, perfbench::Mode mode,
                  const std::vector<std::uint32_t>& stream)
{
    ctx.mode = mode;
    ctx.stream = stream.data();
    ctx.stream_bursts = stream.size() / kBurst;
}

/// Offers one whole burst, pausing on backpressure until every key is in a
/// ring. Returns the number of offer() calls it took.
template <class Dp>
std::uint64_t offer_all(Dp& dp, const std::uint32_t* keys)
{
    std::size_t done = 0;
    std::uint64_t calls = 0;
    for (;;) {
        done += dp.offer(keys + done, kBurst - done);
        ++calls;
        if (done == kBurst) return calls;
        // Pause instead of spinning on the ring head while the workers drain.
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
}

// --- closed loop -------------------------------------------------------------

struct ClosedResult {
    std::vector<double> mlps;         ///< untraced windows
    std::vector<double> traced_mlps;  ///< traced windows (--trace 1)
    std::uint64_t offer_calls = 0;
    std::uint64_t offer_bursts = 0;
    double busy_share = 0;
    double keys_per_burst = 0;
};

struct ProbeSums {
    std::uint64_t keys = 0;
    std::uint64_t bursts = 0;
    std::int64_t busy_ns = 0;
};

ProbeSums sum_probes(perfbench::PhaseContext& ctx)
{
    ProbeSums s;
    const std::lock_guard lock(ctx.mu);
    for (const auto& p : ctx.probes) {
        // order: relaxed — window totals; a burst straddling the boundary
        // lands in one window or the next.
        s.keys += p->keys.load(std::memory_order_relaxed);
        s.bursts += p->bursts.load(std::memory_order_relaxed);
        s.busy_ns += p->busy_ns.load(std::memory_order_relaxed);
    }
    return s;
}

/// Saturation throughput: 0.5 s warm-up, then 250 ms windows. With --trace 1
/// the windows alternate untraced/traced, which gives the tracing overhead.
template <class Engine>
ClosedResult run_closed(const Engine& engine, const std::vector<std::uint32_t>& stream,
                        double seconds, bool trace)
{
    perfbench::PhaseContext ctx;
    init_context(ctx, perfbench::Mode::kClosed, stream);
    dataplane::Dataplane<perfbench::TimedEngine<Engine>> dp{
        perfbench::TimedEngine<Engine>{engine, ctx}, dp_config()};
    dp.start();

    ClosedResult r;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t window_start = start + std::min<std::int64_t>(500'000'000, (end - start) / 4);
    std::int64_t next_boundary = window_start;
    std::uint64_t window_lookups = 0;
    bool window_traced = false;
    bool measuring = false;
    ProbeSums window_probes;
    ProbeSums traced_total;
    std::int64_t traced_ns = 0;
    std::size_t pos = 0;
    for (;;) {
        const std::int64_t t = now_ns();
        if (t >= next_boundary) {
            const std::uint64_t lookups = dp.stats().lookups();
            if (measuring) {
                const double mlps = static_cast<double>(lookups - window_lookups) /
                                    static_cast<double>(t - window_start) * 1e3;
                (window_traced ? r.traced_mlps : r.mlps).push_back(mlps);
                if (window_traced) {
                    const ProbeSums now = sum_probes(ctx);
                    traced_total.keys += now.keys - window_probes.keys;
                    traced_total.bursts += now.bursts - window_probes.bursts;
                    traced_total.busy_ns += now.busy_ns - window_probes.busy_ns;
                    traced_ns += t - window_start;
                }
            }
            if (t >= end) break;
            window_traced = trace && measuring && !window_traced;
            measuring = true;
            ctx.traced.store(window_traced, std::memory_order_relaxed);
            if (window_traced) window_probes = sum_probes(ctx);
            window_lookups = lookups;
            window_start = t;
            next_boundary = std::min(t + kWindowNs, end);
        }
        r.offer_calls += offer_all(dp, stream.data() + pos);
        ++r.offer_bursts;
        pos += kBurst;
        if (pos + kBurst > stream.size()) pos = 0;
    }
    ctx.traced.store(false, std::memory_order_relaxed);
    dp.stop();
    if (traced_ns > 0 && traced_total.bursts > 0) {
        r.busy_share = static_cast<double>(traced_total.busy_ns) /
                       (static_cast<double>(traced_ns) * kWorkers);
        r.keys_per_burst =
            static_cast<double>(traced_total.keys) / static_cast<double>(traced_total.bursts);
    }
    return r;
}

// --- open loop ---------------------------------------------------------------

struct OfferSpan {
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

struct OpenResult {
    /// due -> lookup_batch return, after warm-up: p50 and p90 of each 1 s
    /// window of due times, and the number of bursts they cover.
    std::vector<double> window_p50_us;
    std::vector<double> window_p90_us;
    std::uint64_t lat_samples = 0;
    std::vector<double> late_us;     ///< generator lateness: due -> offer()
    std::uint64_t bursts = 0;
    std::uint64_t unplaced_keys = 0;
    std::uint64_t matched = 0;
    std::uint64_t mismatches = 0;
    std::vector<int> worker_cpus;
    // Traced only: one entry per span set, after warm-up.
    std::vector<double> offer_ns;
    std::vector<double> ring_wait_us;
    std::vector<double> sojourn_us;
    std::vector<double> guard_ns;
    std::vector<double> service_us;
    std::vector<double> ns_per_key;
};

void write_spans(const std::string& path, const perfbench::PhaseContext& ctx,
                 const std::vector<OfferSpan>& offers,
                 const std::vector<perfbench::BurstSpan>& spans)
{
    std::ofstream f(path, std::ios::app);
    if (!f) throw std::runtime_error("cannot write " + path);
    f << "# burst\tid\tdue\toffer_begin\toffer_end\tguard_begin\tlookup_begin\tlookup_end\t"
         "guard_end\tkeys (steady clock ns)\n";
    for (const auto& s : spans) {
        const auto& o = offers[s.burst];
        f << "burst\t" << s.burst << '\t' << ctx.due(s.burst) << '\t' << o.begin << '\t'
          << o.end << '\t' << s.guard_begin << '\t' << s.lookup_begin << '\t' << s.lookup_end
          << '\t' << s.guard_end << '\t' << s.keys << '\n';
    }
}

/// Fixed-rate load: burst b is due at t0 + b * interval and is timed from
/// then, however late the producer got to it.
template <class Engine>
OpenResult run_open(const Engine& engine, const std::vector<std::uint32_t>& stream,
                    double seconds, double rate_mlps, bool trace, const std::string& spans_path)
{
    perfbench::PhaseContext ctx;
    init_context(ctx, perfbench::Mode::kOpen, stream);
    ctx.interval_ns = static_cast<double>(kBurst) * 1e3 / rate_mlps;
    ctx.max_bursts = static_cast<std::uint64_t>(seconds * 1e9 / ctx.interval_ns) + 1;
    ctx.traced.store(trace, std::memory_order_relaxed);
    std::vector<OfferSpan> offers(trace ? ctx.max_bursts : 0);
    OpenResult r;
    r.late_us.reserve(ctx.max_bursts);

    dataplane::Dataplane<perfbench::TimedEngine<Engine>> dp{
        perfbench::TimedEngine<Engine>{engine, ctx}, dp_config(kOpenRingCapacity)};
    dp.start();
    // The first due time is 20 ms out, so both workers are up and polling.
    ctx.t0_ns = now_ns() + 20'000'000;
    constexpr std::uint64_t kRingBursts = kOpenRingCapacity / kBurst;
    for (std::uint64_t b = 0; b < ctx.max_bursts; ++b) {
        const std::int64_t due = ctx.due(b);
        while (now_ns() < due) __builtin_ia32_pause();
        // A burst that does not fit its ring whole would be split across
        // rings; wait for room instead. The burst is still timed from due.
        // Bounded at 1 s: a worker that never reports progress (not pinned)
        // then gets a split burst, and the run fails on the mismatch.
        const std::uint64_t offered = b / kWorkers;  // earlier bursts in ring b % kWorkers
        const auto& done = ctx.done[b % kWorkers];
        while (offered - done.load(std::memory_order_relaxed) >= kRingBursts &&
               now_ns() < due + 1'000'000'000)
            __builtin_ia32_pause();
        const std::int64_t begin = now_ns();
        const std::size_t pos = (b % ctx.stream_bursts) * kBurst;
        const std::size_t got = dp.offer(stream.data() + pos, kBurst);
        if (trace) offers[b] = {begin, now_ns()};
        r.late_us.push_back(static_cast<double>(begin - due) * 1e-3);
        r.unplaced_keys += kBurst - got;
        ++r.bursts;
    }
    dp.stop();

    // The first 10% of bursts (at most 0.5 s) warm caches and are not timed.
    const std::uint64_t warm = std::min<std::uint64_t>(
        r.bursts / 10, static_cast<std::uint64_t>(5e8 / ctx.interval_ns));
    // Percentiles per 1 s window, then the median over windows: a vCPU
    // preempted for a second on this shared host ruins one or two windows
    // (and shows in bench.gen_late_us_max), not the run's figure.
    const auto window_bursts = static_cast<std::uint64_t>(1e9 / ctx.interval_ns);
    std::vector<std::vector<double>> windows(r.bursts / window_bursts + 1);
    std::vector<perfbench::BurstSpan> kept_spans;
    // dp.stop() joined every worker, so the probes are no longer written.
    const std::lock_guard lock(ctx.mu);
    for (const auto& p : ctx.probes) {
        r.worker_cpus.push_back(p->cpu);
        r.mismatches += p->mismatches;
        r.matched += p->latency_ns.size();
        for (std::size_t k = 0; k < p->latency_ns.size(); ++k) {
            const std::uint64_t b = k * kWorkers + p->worker;
            if (b >= warm)
                windows[(b - warm) / window_bursts].push_back(
                    static_cast<double>(p->latency_ns[k]) * 1e-3);
        }
        for (const auto& s : p->spans) {
            if (s.burst < warm) continue;
            const OfferSpan& o = offers[s.burst];
            const double due = static_cast<double>(ctx.due(s.burst));
            r.offer_ns.push_back(static_cast<double>(o.end - o.begin));
            r.ring_wait_us.push_back((static_cast<double>(s.lookup_begin) - due) * 1e-3);
            // From offer() entry: push publishes the burst before offer()
            // returns, so a fast worker can pick it up before offer end.
            r.sojourn_us.push_back(static_cast<double>(s.guard_begin - o.begin) * 1e-3);
            r.guard_ns.push_back(static_cast<double>((s.lookup_begin - s.guard_begin) +
                                                     (s.guard_end - s.lookup_end)));
            r.service_us.push_back(static_cast<double>(s.lookup_end - s.lookup_begin) * 1e-3);
            r.ns_per_key.push_back(static_cast<double>(s.lookup_end - s.lookup_begin) / s.keys);
            if (kept_spans.size() < 50'000) kept_spans.push_back(s);
        }
    }
    for (const auto& w : windows) {
        // Skip the short last window, unless the phase was too short for any.
        if (w.empty() || (w.size() < window_bursts / 2 && !r.window_p50_us.empty())) continue;
        r.window_p50_us.push_back(quantile(w, 0.5));
        r.window_p90_us.push_back(quantile(w, 0.9));
        r.lat_samples += w.size();
    }
    std::sort(r.worker_cpus.begin(), r.worker_cpus.end());
    if (trace && !spans_path.empty()) write_spans(spans_path, ctx, offers, kept_spans);
    return r;
}

// --- verify ------------------------------------------------------------------

struct VerifyResult {
    std::vector<std::uint32_t> sample;
    std::vector<rib::NextHop> served;  ///< served[i] is the hop for sample[i]
    std::uint64_t unplaced_keys = 0;
    std::uint64_t mismatched_bursts = 0;
};

/// Serves `sample` through a fresh pipeline and captures every next hop.
template <class Engine>
VerifyResult run_verify(const Engine& engine, std::vector<std::uint32_t> sample_keys)
{
    VerifyResult r;
    r.sample = std::move(sample_keys);
    const auto& sample = r.sample;
    perfbench::PhaseContext ctx;
    init_context(ctx, perfbench::Mode::kVerify, sample);
    ctx.max_bursts = ctx.stream_bursts;
    r.served.assign(sample.size(), rib::kNoRoute);
    ctx.verify_out = r.served.data();
    dataplane::Dataplane<perfbench::TimedEngine<Engine>> dp{
        perfbench::TimedEngine<Engine>{engine, ctx}, dp_config()};
    dp.start();
    // Every ring holds its whole share of the sample, so no offer is refused.
    for (std::uint64_t b = 0; b < ctx.max_bursts; ++b)
        r.unplaced_keys += kBurst - dp.offer(sample.data() + b * kBurst, kBurst);
    dp.stop();
    const std::lock_guard lock(ctx.mu);
    std::uint64_t matched = 0;
    for (const auto& p : ctx.probes) {
        r.mismatched_bursts += p->mismatches;
        matched += p->next_k - p->mismatches;
    }
    r.mismatched_bursts += ctx.max_bursts - std::min(matched, ctx.max_bursts);
    return r;
}

// --- churn writer --------------------------------------------------------------

struct ChurnResult {
    std::vector<double> add_us;
    std::vector<double> remove_us;
    std::uint64_t attempted = 0;
    std::uint64_t threw = 0;
    int cpu = -1;
    poptrie::Poptrie4::UpdateCounters before{};
    poptrie::Poptrie4::UpdateCounters after{};
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
};

/// Replays the feed on its own pinned thread at kChurnPerSec, deadline-paced
/// like dataplane::ChurnRunner, timing each add_route/remove_route call.
void churn_main(const std::stop_token& stop, router::Router4& router,
                const std::vector<workload::UpdateEvent>& feed, ChurnResult& r, bool trace)
{
    if (dataplane::pin_current_thread(kChurnCpu)) r.cpu = static_cast<int>(kChurnCpu);
    r.add_us.reserve(feed.size());
    r.remove_us.reserve(feed.size());
    if (trace) r.spans.reserve(feed.size());
    r.before = router.fib().update_counters();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < feed.size() && !stop.stop_requested(); ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        static_cast<double>(i) * 1e9 / kChurnPerSec)));
        const auto& ev = feed[i];
        const std::int64_t t0 = now_ns();
        try {
            if (ev.next_hop == rib::kNoRoute)
                (void)router.remove_route(ev.prefix);
            else
                router.add_route(ev.prefix, dataplane::ChurnRunner::adjacency_for(ev.next_hop));
        } catch (const std::exception&) {
            ++r.threw;
        }
        const std::int64_t t1 = now_ns();
        ++r.attempted;
        (ev.next_hop == rib::kNoRoute ? r.remove_us : r.add_us)
            .push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (trace) r.spans.emplace_back(t0, t1);
    }
    r.after = router.fib().update_counters();
}

// --- inputs ------------------------------------------------------------------

struct Inputs {
    Routes routes;
    Oracle rib;
    std::vector<std::uint32_t> stream;
    std::vector<workload::UpdateEvent> feed;
    std::string image;
};

Inputs make_inputs(const Options& o, double churn_seconds)
{
    Inputs in;
    const std::size_t routes = o.tiny ? o.spec->routes / 40 : o.spec->routes;
    const std::size_t stream_len = o.tiny ? std::size_t{1} << 18 : std::size_t{1} << 22;
    if (o.spec->snapshot) {
        in.routes = workload::generate_scaled_table(
            {.seed = o.seed, .target_routes = routes, .next_hops = 100});
    } else {
        workload::TableGenConfig tg;
        tg.seed = o.seed;
        tg.target_routes = routes;
        in.routes = workload::generate_table(tg);
    }
    in.rib.insert_all(in.routes);

    if (o.spec->snapshot) {
        in.stream = workload::make_scaled_trace(
            in.routes, {.seed = o.seed + 7, .packets = stream_len, .miss_permille = 20});
        poptrie::Poptrie4 fib{in.rib, poptrie::Config{}};
        in.image = o.workdir + "/snapshot-" + std::to_string(o.seed) + ".img";
        // quiescent: the FIB was built on this thread and has no reader.
        const psync::QuiescentSection quiescent;
        fib.compact();
        snapshot::save(fib, in.image);
    } else if (o.spec->churn) {
        workload::TraceConfig tc;
        tc.seed = o.seed + 7;
        tc.packets = stream_len;
        tc.distinct_destinations = o.tiny ? 20'000 : 200'000;
        in.stream = workload::make_real_trace_like(in.rib, tc);
        workload::UpdateFeedConfig fc;
        fc.seed = o.seed + 11;
        fc.updates = static_cast<std::size_t>(churn_seconds * kChurnPerSec);
        in.feed = workload::make_update_feed(in.routes, fc);
    } else {
        workload::Xorshift128 rng(o.seed ^ 0x5EEDF00Du);
        in.stream.resize(stream_len);
        for (auto& k : in.stream) k = rng.next();
    }
    return in;
}

/// 512 bursts spread evenly over the stream (all of it at self-test size).
std::vector<std::uint32_t> verify_sample(const std::vector<std::uint32_t>& stream)
{
    std::vector<std::uint32_t> s;
    const std::size_t bursts = stream.size() / kBurst;
    const std::size_t stride = std::max<std::size_t>(1, bursts / 512);
    for (std::size_t b = 0; b < bursts && s.size() < 512 * kBurst; b += stride)
        s.insert(s.end(), stream.begin() + static_cast<std::ptrdiff_t>(b * kBurst),
                 stream.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBurst));
    return s;
}

void workload_metrics(Report& rep, const Inputs& in)
{
    std::uint64_t repeats = 0;
    for (std::size_t i = 1; i < in.stream.size(); ++i)
        if (i % kBurst != 0 && in.stream[i] == in.stream[i - 1]) ++repeats;
    const auto n =
        static_cast<std::ptrdiff_t>(std::min<std::size_t>(in.stream.size(), 1 << 18));
    const std::vector<std::uint32_t> sample(in.stream.begin(), in.stream.begin() + n);
    std::uint64_t misses = 0;
    for (const auto a : sample)
        if (in.rib.lookup(Addr{a}) == rib::kNoRoute) ++misses;
    rep.set("workload.repeat_share",
            static_cast<double>(repeats) / static_cast<double>(in.stream.size()));
    rep.set("workload.deep_share", workload::deep_fraction(in.rib, sample, 18));
    rep.set("workload.miss_share",
            static_cast<double>(misses) / static_cast<double>(sample.size()));
}

struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    void fail(const char* what)
    {
        std::fprintf(stderr, "perfbench: FAILED: %s\n", what);
        correct = false;
    }
};

/// Shared between both engines: the closed, open and verify phases, and the
/// metrics they yield.
template <class Engine>
VerifyResult serve(const Options& o, const Engine& engine, const Inputs& in, Report& rep,
                   Outcome& out, const std::function<void()>& after_phases)
{
    const double closed_s = o.seconds * 0.5;
    const double open_s = o.seconds * 0.5;
    const ClosedResult closed = run_closed(engine, in.stream, closed_s, o.trace);
    const OpenResult open = run_open(engine, in.stream, open_s, kOpenMlps, o.trace, o.spans);
    after_phases();
    const VerifyResult verified = run_verify(engine, verify_sample(in.stream));

    rep.set("fwd_mlps", median(closed.mlps));
    rep.set("fwd_lat_p50_us", median(open.window_p50_us));
    rep.set("fwd_lat_p90_us", median(open.window_p90_us));

    rep.set("dataplane.offer_ns", median(open.offer_ns));
    rep.set("dataplane.offer_accept_ratio",
            closed.offer_calls ? static_cast<double>(closed.offer_bursts) /
                                     static_cast<double>(closed.offer_calls)
                               : 0);
    rep.set("dataplane.ring_wait_us_p50", quantile(open.ring_wait_us, 0.5));
    rep.set("dataplane.ring_wait_us_p90", quantile(open.ring_wait_us, 0.9));
    rep.set("dataplane.ring_sojourn_us_p50", quantile(open.sojourn_us, 0.5));
    rep.set("dataplane.worker_busy_share", closed.busy_share);
    rep.set("dataplane.keys_per_burst", closed.keys_per_burst);
    rep.set("sync.ebr_guard_ns", median(open.guard_ns));
    rep.set("poptrie.lookup_ns_per_key", median(open.ns_per_key));
    rep.set("poptrie.burst_service_us_p50", quantile(open.service_us, 0.5));
    rep.set("poptrie.burst_service_us_p90", quantile(open.service_us, 0.9));
    rep.set("trace.overhead_share",
            closed.traced_mlps.empty()
                ? 0
                : 1.0 - median(closed.traced_mlps) / median(closed.mlps));
    rep.set("bench.gen_late_us_p99", quantile(open.late_us, 0.99));
    rep.set("bench.gen_late_us_max", quantile(open.late_us, 1.0));
    rep.set("bench.lat_samples", static_cast<double>(open.lat_samples));
    rep.set("bench.burst_mismatches",
            static_cast<double>(open.mismatches + open.bursts -
                                std::min(open.bursts, open.matched)));
    rep.set("bench.cpu_producer", kProducerCpu);
    for (std::size_t w = 0; w < kWorkers; ++w)
        rep.set("bench.cpu_worker" + std::to_string(w),
                w < open.worker_cpus.size() ? open.worker_cpus[w] : -1);

    out.attempted += open.bursts * kBurst + verified.served.size();
    out.failed += open.unplaced_keys + verified.unplaced_keys;
    if (open.unplaced_keys != 0) out.fail("open-loop producer could not place every address");
    if (open.mismatches != 0 || open.matched != open.bursts) {
        std::fprintf(stderr, "perfbench: %llu bursts offered, %llu matched, %llu mismatched\n",
                     static_cast<unsigned long long>(open.bursts),
                     static_cast<unsigned long long>(open.matched),
                     static_cast<unsigned long long>(open.mismatches));
        out.fail("open-loop bursts did not match their due times one to one");
    }
    if (verified.mismatched_bursts != 0 || verified.unplaced_keys != 0)
        out.fail("verify bursts did not come back whole");
    return verified;
}

void check_hops(Outcome& out, const VerifyResult& v,
                const std::function<bool(std::uint32_t, rib::NextHop)>& ok)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < v.sample.size(); ++i)
        if (!ok(v.sample[i], v.served[i])) ++bad;
    out.failed += bad;
    if (bad != 0) {
        std::fprintf(stderr, "perfbench: %llu of %zu served next hops differ from the oracle\n",
                     static_cast<unsigned long long>(bad), v.sample.size());
        out.fail("oracle mismatch");
    }
}

// --- the two served configurations ------------------------------------------

void run_router(const Options& o, Inputs& in, Report& rep, Outcome& out)
{
    poptrie::Config pcfg;  // the paper's Poptrie18; default pool headroom

    // Setup: route list in hand -> ready to serve, three times; keep the last.
    std::vector<double> setup_s, load_s, reserve_ms;
    std::unique_ptr<router::Router4> router;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
        router.reset();
        const std::int64_t t0 = now_ns();
        router = std::make_unique<router::Router4>(pcfg);
        dataplane::load_routes(*router, in.routes);
        const std::int64_t t1 = now_ns();
        {
            // quiescent: no forwarding or churn thread exists yet.
            const psync::QuiescentSection quiescent;
            router->reserve_fib_headroom();
        }
        const std::int64_t t2 = now_ns();
        setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
        load_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        reserve_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    }
    rep.set("setup_s", median(setup_s));
    const std::uint64_t growths_before = router->fib().update_counters().pool_growths;

    ChurnResult churn;
    std::optional<std::jthread> writer;
    if (o.spec->churn)
        writer.emplace([&](const std::stop_token& st) {
            churn_main(st, *router, in.feed, churn, o.trace);
        });

    double drain_ms = 0;
    const dataplane::PoptrieEngine engine{*router};
    const VerifyResult verified = serve(o, engine, in, rep, out, [&] {
        if (writer) writer->join();  // the feed is paced to end with the phases
        const std::int64_t t0 = now_ns();
        {
            // writer: the churn thread has joined and the workers are stopped.
            const psync::EbrWriterSection writer_role;
            router->drain();
        }
        drain_ms = seconds_since(t0) * 1e3;
    });

    // Oracle: the route list with the whole feed applied, independent of the
    // Router's own RIB. Served hops are FIB indices; the adjacency's gateway
    // encodes the route's next hop (ChurnRunner::adjacency_for).
    for (const auto& ev : in.feed) {
        if (ev.next_hop == rib::kNoRoute)
            (void)in.rib.erase(ev.prefix);
        else
            in.rib.insert(ev.prefix, ev.next_hop);
    }
    check_hops(out, verified, [&](std::uint32_t a, rib::NextHop served) {
        const Addr addr{a};
        if (served != router->lookup_index(addr)) return false;
        const auto* adj = router->resolve(addr);
        const rib::NextHop hop =
            adj == nullptr ? rib::kNoRoute
                           : static_cast<rib::NextHop>(adj->gateway.value() - kGatewayBase);
        return hop == in.rib.lookup(addr);
    });

    const auto& fib = router->fib();
    // The FIB's structure bytes (Table 2's measure). The pools' reserved
    // bytes move in power-of-two steps, so they are a per-layer number.
    const poptrie::Stats st = fib.stats();
    rep.set("fib_mib", static_cast<double>(st.memory_bytes) / (1 << 20));
    rep.set("alloc.reserved_mib",
            static_cast<double>(fib.memory_report().bytes_reserved) / (1 << 20));

    const std::uint64_t growths_live = fib.update_counters().pool_growths - growths_before;
    if (growths_live != 0) out.fail("FIB pools grew under live readers");
    out.attempted += churn.attempted;
    out.failed += churn.threw;
    if (churn.threw != 0) out.fail("route updates threw");
    if (o.spec->churn && churn.attempted != in.feed.size())
        out.fail("the feed did not fully apply");

    std::vector<double> all_us = churn.add_us;
    all_us.insert(all_us.end(), churn.remove_us.begin(), churn.remove_us.end());
    const double updates = std::max<double>(1, static_cast<double>(churn.attempted));
    const auto per_update = [&](std::uint64_t a, std::uint64_t b) {
        return churn.attempted ? static_cast<double>(b - a) / updates : 0.0;
    };
    rep.set("update_us_p50", quantile(all_us, 0.5));
    rep.set("update_us_p99", quantile(all_us, 0.99));
    rep.set("router.add_route_us_p50", quantile(churn.add_us, 0.5));
    rep.set("router.add_route_us_p99", quantile(churn.add_us, 0.99));
    rep.set("router.remove_route_us_p50", quantile(churn.remove_us, 0.5));
    rep.set("router.remove_route_us_p99", quantile(churn.remove_us, 0.99));
    rep.set("router.load_s", median(load_s));
    rep.set("poptrie.nodes_allocated_per_update",
            per_update(churn.before.nodes_allocated, churn.after.nodes_allocated));
    rep.set("poptrie.leaves_allocated_per_update",
            per_update(churn.before.leaves_allocated, churn.after.leaves_allocated));
    rep.set("poptrie.direct_stores_per_update",
            per_update(churn.before.direct_stores, churn.after.direct_stores));
    rep.set("poptrie.pool_growths_live", static_cast<double>(growths_live));
    rep.set("sync.ebr_drain_ms", drain_ms);
    rep.set("alloc.node_pool_used", static_cast<double>(st.node_pool_used));
    rep.set("alloc.leaf_pool_used", static_cast<double>(st.leaf_pool_used));
    rep.set("alloc.node_free_blocks", static_cast<double>(st.node_free_blocks));
    rep.set("alloc.leaf_free_blocks", static_cast<double>(st.leaf_free_blocks));
    rep.set("alloc.headroom_reserve_ms", median(reserve_ms));
    rep.set("bench.cpu_churn", churn.cpu);
    rep.set("bench.update_samples", static_cast<double>(churn.attempted));

    if (o.trace && !o.spans.empty() && !churn.spans.empty()) {
        std::ofstream f(o.spans, std::ios::app);
        f << "# update\tbegin\tend (steady clock ns)\n";
        for (const auto& [b, e] : churn.spans) f << "update\t" << b << '\t' << e << '\n';
    }
}

void run_snapshot(const Options& o, const Inputs& in, Report& rep, Outcome& out)
{
    // Setup: image file in hand -> ready to serve, five times; keep the last.
    std::vector<double> setup_s;
    std::optional<snapshot::SnapshotFib4> fib;
    for (int i = 0; i < 5; ++i) {
        fib.reset();
        const std::int64_t t0 = now_ns();
        fib.emplace(snapshot::SnapshotFib4::load_file(in.image));
        setup_s.push_back(seconds_since(t0));
    }
    rep.set("setup_s", median(setup_s));

    // First pass over the stream right after the load: cold caches and TLB.
    std::vector<rib::NextHop> hops(in.stream.size());
    const std::int64_t t0 = now_ns();
    fib->lookup_batch(in.stream.data(), hops.data(), in.stream.size());
    const double first_pass_ms = seconds_since(t0) * 1e3;

    const dataplane::SnapshotEngine engine{*fib};
    const VerifyResult verified = serve(o, engine, in, rep, out, [] {});
    check_hops(out, verified, [&](std::uint32_t a, rib::NextHop served) {
        return served == in.rib.lookup(Addr{a});
    });

    const double image_mib = static_cast<double>(fib->image_bytes()) / (1 << 20);
    rep.set("fib_mib", image_mib);
    rep.set("snapshot.load_ms", median(setup_s) * 1e3);
    rep.set("snapshot.first_pass_ms", first_pass_ms);
    rep.set("snapshot.image_mib", image_mib);
    rep.set("bench.cpu_churn", -1);
}

}  // namespace

int main(int argc, char** argv)
{
    const Options o = parse(argc, argv);
    try {
        if (!dataplane::pin_current_thread(kProducerCpu))
            throw std::runtime_error("cannot pin the producer to CPU 0");
        const double churn_s = o.seconds;  // closed + open phases
        const std::int64_t t_inputs = now_ns();
        Inputs in = make_inputs(o, churn_s);
        std::fprintf(stderr,
                     "perfbench: %s seed %llu: %zu routes, %zu keys, inputs in %.2f s\n",
                     o.spec->name, static_cast<unsigned long long>(o.seed), in.routes.size(),
                     in.stream.size(), seconds_since(t_inputs));
        Report rep;
        Outcome out;
        if (o.trace) workload_metrics(rep, in);
        if (o.spec->snapshot)
            run_snapshot(o, in, rep, out);
        else
            run_router(o, in, rep, out);
        if (!in.image.empty()) std::remove(in.image.c_str());
        rep.print(o.trace, out.correct, out.attempted, out.failed);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
