// tools/lpmd — the LPM forwarding daemon: the repo's first binary that
// behaves like a router rather than a library.
//
// Builds (or loads) a routing table, compiles the selected engine, spawns N
// forwarding workers behind sharded SPSC rings, and feeds them synthetic
// traffic (just-in-time xorshift addresses or a pre-materialized §4.7-style
// trace) for a fixed duration or until SIGINT. Optionally a control-plane
// thread replays a BGP-style update feed through the Router concurrently
// with forwarding (--engine poptrie only), exercising §3.5 end-to-end.
// Periodic stats lines go to stdout; a final summary (and --json record)
// prints on shutdown.
//
// Exit codes follow the poptrie_fsck convention: 0 clean, 1 --check
// violation (nothing forwarded, ring drops, or churn shortfall), 2
// usage/input error.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchkit/cli.hpp"
#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "benchkit/stats.hpp"
#include "dataplane/churn.hpp"
#include "dataplane/dataplane.hpp"
#include "poptrie/config.hpp"
#include "dataplane/engines.hpp"
#include "rib/aggregate.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/tablegen.hpp"
#include "workload/tableio.hpp"
#include "workload/trafficgen.hpp"
#include "workload/xorshift.hpp"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
extern "C" void handle_signal(int) { g_interrupted = 1; }

// SIGUSR1 requests a mid-run snapshot save (--snapshot-save): the producer
// loop notices the flag and runs the save through the same writer handover
// compaction uses, so the image is written by the FIB's only writer while
// the workers keep forwarding.
volatile std::sig_atomic_t g_snapshot_requested = 0;
extern "C" void handle_sigusr1(int) { g_snapshot_requested = 1; }

struct Options {
    std::string engine = "poptrie";
    unsigned workers = 4;
    std::size_t routes = 50'000;
    std::string file;  // load table from file instead of generating
    double duration = 5.0;
    double rate_mpps = 0;  // 0 = unpaced
    std::string pattern = "random";
    std::size_t burst = 256;
    std::size_t ring_capacity = std::size_t{1} << 14;
    bool pin = false;
    unsigned direct_bits = 18;
    std::size_t churn_updates = 0;
    double churn_rate = 0;
    std::size_t compact_every = 0;  // compact the FIB every N churn updates
    double stats_interval = 1.0;
    bool json = false;
    std::string json_out;
    bool check = false;
    std::uint64_t seed = 1;
    std::string snapshot_save;       // write a FIB image here (poptrie only)
    std::string snapshot_load;       // serve this FIB image (engine snapshot)
    std::string snapshot_placement = "auto";  // auto | copy
};

struct RunResult {
    dataplane::StatsSnapshot stats;
    benchkit::LatencyPercentiles latency;
    double elapsed = 0;
    std::uint64_t churn_applied = 0;
    std::uint64_t compactions = 0;
    std::uint64_t snapshots_saved = 0;
    bool has_fib_stats = false;
    poptrie::Stats fib_stats{};  // post-run fragmentation view (poptrie only)
    std::string fib_backing;     // arena backing of the served FIB, if any
    // poptrie engine: route list -> compiled FIB, and the FIB's structure
    // bytes (Stats::memory_bytes) as loaded.
    bool has_load = false;
    double load_s = 0;
    std::size_t fib_bytes = 0;
    // snapshot engine: image file -> validated, servable FIB.
    double snapshot_load_ms = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// One-line fragmentation view of both FIB pools, printed after each
/// compaction and in the final summary — the same counters poptrie_fsck
/// --stats reports.
void print_frag(const poptrie::Stats& s, const char* tag)
{
    std::printf("[%s] node pool used=%zu hw=%zu free_blocks=%zu | "
                "leaf pool used=%zu hw=%zu free_blocks=%zu\n",
                tag, s.node_pool_used, s.node_high_water, s.node_free_blocks,
                s.leaf_pool_used, s.leaf_high_water, s.leaf_free_blocks);
}

/// Writes the FIB's image to `path`, compacted first so the runs the churn
/// wrote 16-bit are coded and its roots folded where the dictionary allows,
/// and reports how long the write took.
void save_image(router::Router4& router, const std::string& path)
    POPTRIE_REQUIRES(psync::cap::ebr)
{
    router.compact_fib();
    const auto t0 = std::chrono::steady_clock::now();
    router.save_fib_snapshot(path);
    std::printf("[snapshot] image written to %s in %.1f ms\n", path.c_str(), ms_since(t0));
    std::fflush(stdout);
}

/// Producer loop + periodic stats, shared by every engine instantiation.
/// `compact_fib` (poptrie + --compact-every only) and `save_snapshot` run
/// with the churn thread parked, so this thread holds the FIB's writer role
/// for the call. The workers keep forwarding: compact() publishes a fresh
/// pool set with one pointer store, and the save reads the current one.
template <class Engine>
RunResult run_pipeline(dataplane::Dataplane<Engine>& dp, const Options& opt,
                       const std::vector<std::uint32_t>& trace,
                       dataplane::ChurnRunner* churn,
                       const std::function<void()>& compact_fib = {},
                       const std::function<void()>& save_snapshot = {})
{
    using clock = std::chrono::steady_clock;
    dp.start();

    std::vector<std::uint32_t> chunk(opt.burst);
    workload::Xorshift128 rng(opt.seed ^ 0xFEEDF00D);
    std::size_t trace_pos = 0;
    std::uint64_t produced = 0;
    const auto t0 = clock::now();
    const auto interval = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(opt.stats_interval));
    auto next_stats = t0 + interval;
    dataplane::StatsSnapshot last_snap;
    double last_t = 0;
    std::uint64_t next_compact =
        opt.compact_every > 0 ? opt.compact_every : ~std::uint64_t{0};
    std::uint64_t compactions = 0;
    std::uint64_t snapshots_saved = 0;

    const auto elapsed_s = [&] {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };

    while (g_interrupted == 0) {
        const double t = elapsed_s();
        if (opt.duration > 0 && t >= opt.duration) break;

        // Pacing: with --rate-mpps, don't run ahead of the address budget.
        if (opt.rate_mpps > 0 &&
            static_cast<double>(produced) > t * opt.rate_mpps * 1e6) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
            if (opt.pattern == "trace") {
                for (std::size_t i = 0; i < opt.burst; ++i) {
                    chunk[i] = trace[trace_pos++];
                    if (trace_pos == trace.size()) trace_pos = 0;
                }
            } else {
                for (std::size_t i = 0; i < opt.burst; ++i) chunk[i] = rng.next();
            }
            dp.offer(chunk.data(), opt.burst);
            // Pace on offered load, not accepted: a saturated ring must not
            // make the producer spin faster (drops then reflect overload).
            produced += opt.burst;
        }

        // SIGUSR1-triggered snapshot: same writer handover as compaction —
        // the churn writer (if any) parks, this thread writes the image,
        // the churn writer resumes.
        if (save_snapshot && g_snapshot_requested != 0) {
            g_snapshot_requested = 0;
            const auto pause_start = clock::now();
            if (churn != nullptr) churn->pause();
            save_snapshot();
            if (churn != nullptr) churn->resume();
            ++snapshots_saved;
            if (opt.rate_mpps > 0) {
                const double paused =
                    std::chrono::duration<double>(clock::now() - pause_start).count();
                produced += static_cast<std::uint64_t>(paused * opt.rate_mpps * 1e6);
            }
        }

        if (compact_fib && churn != nullptr && churn->applied() >= next_compact) {
            const auto pause_start = clock::now();
            churn->pause();  // parks the writer (or joins a finished feed)
            compact_fib();
            churn->resume();
            ++compactions;
            next_compact = churn->applied() + opt.compact_every;
            // Forfeit the stalled window's address budget: this thread
            // offered nothing while it compacted, and catching up would
            // burst into the rings faster than the workers drain them and
            // count the stall as ring drops.
            if (opt.rate_mpps > 0) {
                const double paused =
                    std::chrono::duration<double>(clock::now() - pause_start).count();
                produced += static_cast<std::uint64_t>(paused * opt.rate_mpps * 1e6);
            }
        }

        const auto now = clock::now();
        if (now >= next_stats) {
            const auto snap = dp.stats();
            const double now_s = std::chrono::duration<double>(now - t0).count();
            const double mlps =
                benchkit::to_mlps(snap.lookups() - last_snap.lookups(), now_s - last_t);
            const std::string churn_note =
                churn != nullptr ? " churn=" + std::to_string(churn->applied()) : "";
            std::printf("[%7.2fs] fwd=%llu miss=%llu drops=%llu rate=%s%s\n", now_s,
                        static_cast<unsigned long long>(snap.forwarded),
                        static_cast<unsigned long long>(snap.no_route),
                        static_cast<unsigned long long>(snap.ring_drops),
                        benchkit::fmt_mlps(mlps).c_str(), churn_note.c_str());
            std::fflush(stdout);
            last_snap = snap;
            last_t = now_s;
            next_stats = now + interval;
        }
    }

    RunResult r;
    r.elapsed = elapsed_s();
    dp.stop();
    // quiescent: dp.stop() joined every worker; the churn thread (if any)
    // only touches the router, never the per-worker latency recorders.
    const psync::QuiescentSection quiescent;
    r.stats = dp.stats();
    r.latency = benchkit::latency_percentiles(dp.merged_latency());
    if (churn != nullptr) r.churn_applied = churn->applied();
    r.compactions = compactions;
    r.snapshots_saved = snapshots_saved;
    return r;
}

int finish(const Options& opt, const RunResult& r, std::string_view engine_name)
{
    std::printf("\n--- lpmd summary (%s, %u workers, %.2fs) ---\n",
                std::string(engine_name).c_str(), opt.workers, r.elapsed);
    std::printf("offered    %llu\n", static_cast<unsigned long long>(r.stats.offered));
    std::printf("forwarded  %llu\n", static_cast<unsigned long long>(r.stats.forwarded));
    std::printf("no-route   %llu\n", static_cast<unsigned long long>(r.stats.no_route));
    std::printf("ring-drops %llu\n", static_cast<unsigned long long>(r.stats.ring_drops));
    std::printf("batches    %llu\n", static_cast<unsigned long long>(r.stats.batches));
    std::printf("rate       %s\n",
                benchkit::fmt_mlps(benchkit::to_mlps(r.stats.lookups(), r.elapsed)).c_str());
    std::printf("latency/burst p50=%.0fns p99=%.0fns p99.9=%.0fns (n=%zu)\n",
                r.latency.p50, r.latency.p99, r.latency.p999, r.latency.n);
    if (opt.churn_updates > 0)
        std::printf("churn      %llu updates applied\n",
                    static_cast<unsigned long long>(r.churn_applied));
    if (opt.compact_every > 0)
        std::printf("compact    %llu passes (every %zu updates)\n",
                    static_cast<unsigned long long>(r.compactions), opt.compact_every);
    if (!opt.snapshot_save.empty())
        std::printf("snapshot   %llu mid-run save(s) + final image %s\n",
                    static_cast<unsigned long long>(r.snapshots_saved),
                    opt.snapshot_save.c_str());
    if (!r.fib_backing.empty())
        std::printf("backing    %s\n", r.fib_backing.c_str());
    if (r.has_fib_stats) print_frag(r.fib_stats, "summary");

    if (opt.json || !opt.json_out.empty()) {
        benchkit::JsonRecords rec;
        rec.begin_record();
        rec.field("tool", std::string_view{"lpmd"});
        rec.field("engine", engine_name);
        rec.field("workers", std::uint64_t{opt.workers});
        rec.field("elapsed_s", r.elapsed);
        rec.field("offered", r.stats.offered);
        rec.field("forwarded", r.stats.forwarded);
        rec.field("no_route", r.stats.no_route);
        rec.field("ring_drops", r.stats.ring_drops);
        rec.field("mlps", benchkit::to_mlps(r.stats.lookups(), r.elapsed));
        rec.field("lat_p50_ns", r.latency.p50);
        rec.field("lat_p99_ns", r.latency.p99);
        rec.field("lat_p999_ns", r.latency.p999);
        rec.field("churn_applied", r.churn_applied);
        rec.field("compactions", r.compactions);
        // Benchkit provenance must distinguish a FIB built in-process from
        // one restored off disk, and say which pages serve it.
        rec.field("fib_source", engine_name == "snapshot"
                                    ? std::string_view{"snapshot"}
                                    : std::string_view{"built"});
        if (!r.fib_backing.empty()) rec.field("fib_backing", r.fib_backing);
        if (r.has_load) {
            rec.field("load_s", r.load_s);
            rec.field("fib_bytes", std::uint64_t{r.fib_bytes});
        }
        if (engine_name == "snapshot") rec.field("snapshot_load_ms", r.snapshot_load_ms);
        rec.field("snapshots_saved", r.snapshots_saved);
        if (r.has_fib_stats) {
            rec.field("node_free_blocks", std::uint64_t{r.fib_stats.node_free_blocks});
            rec.field("leaf_free_blocks", std::uint64_t{r.fib_stats.leaf_free_blocks});
            rec.field("node_high_water", std::uint64_t{r.fib_stats.node_high_water});
            rec.field("leaf_high_water", std::uint64_t{r.fib_stats.leaf_high_water});
        }
        benchkit::stamp_provenance(rec);
        if (opt.json) rec.write(stdout);
        if (!opt.json_out.empty() && !rec.write_file(opt.json_out)) {
            std::fprintf(stderr, "lpmd: cannot write %s\n", opt.json_out.c_str());
            return 2;
        }
    }

    if (opt.check) {
        bool ok = true;
        if (r.stats.forwarded == 0) {
            std::fprintf(stderr, "lpmd --check: FAILED, nothing was forwarded\n");
            ok = false;
        }
        if (r.stats.ring_drops != 0) {
            std::fprintf(stderr, "lpmd --check: FAILED, %llu ring drops\n",
                         static_cast<unsigned long long>(r.stats.ring_drops));
            ok = false;
        }
        if (opt.churn_updates > 0 && r.churn_applied < opt.churn_updates) {
            std::fprintf(stderr, "lpmd --check: FAILED, churn applied %llu < %zu\n",
                         static_cast<unsigned long long>(r.churn_applied),
                         opt.churn_updates);
            ok = false;
        }
        if (!ok) return 1;
        std::printf("lpmd --check: ok\n");
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv,
                              {{"engine", K::kText}, {"workers", K::kU64}, {"routes", K::kU64},
                               {"file", K::kText}, {"duration", K::kDouble},
                               {"rate-mpps", K::kDouble}, {"pattern", K::kText},
                               {"burst", K::kU64}, {"ring-capacity", K::kU64},
                               {"pin", K::kSwitch}, {"direct-bits", K::kU64},
                               {"churn-updates", K::kU64}, {"churn-rate", K::kDouble},
                               {"compact-every", K::kU64}, {"stats-interval", K::kDouble},
                               {"json", K::kSwitch}, {"check", K::kSwitch},
                               {"snapshot-save", K::kText}, {"snapshot-load", K::kText},
                               {"snapshot-placement", K::kText}});
    if (args.handle_help(
            "lpmd",
            "  --engine=E          poptrie | snapshot | sail | dir24 | treebitmap\n"
            "                      (default poptrie)\n"
            "  --workers=N         forwarding threads (default 4)\n"
            "  --routes=N          synthetic table size (default 50000)\n"
            "  --file=PATH         load IPv4 table from file instead of generating\n"
            "  --duration=S        run time in seconds, 0 = until SIGINT (default 5)\n"
            "  --rate-mpps=X       paced offered load, 0 = unpaced (default 0)\n"
            "  --pattern=P         random | trace (default random)\n"
            "  --burst=N           worker burst / producer chunk size (default 256)\n"
            "  --ring-capacity=N   per-worker ring capacity (default 16384)\n"
            "  --pin               pin workers to CPUs\n"
            "  --direct-bits=N     poptrie direct-pointing bits (default 18)\n"
            "  --churn-updates=N   concurrent route updates to apply (default 0)\n"
            "  --churn-rate=R      updates/s pacing, 0 = unpaced (default 0)\n"
            "  --compact-every=N   compact the FIB every N churn updates while the\n"
            "                      workers keep forwarding (default 0)\n"
            "  --snapshot-save=F   write a FIB image to F at shutdown, and mid-run\n"
            "                      on SIGUSR1 (--engine poptrie)\n"
            "  --snapshot-load=F   serve the FIB image F (--engine snapshot)\n"
            "  --snapshot-placement=P  auto | copy (default auto): mmap the image\n"
            "                      or copy it into arena pages\n"
            "  --stats-interval=S  seconds between stats lines (default 1)\n"
            "  --json              print a machine-readable summary record\n"
            "  --json-out=FILE     write the summary record to FILE (benchctl)\n"
            "  --check             exit 1 unless forwarded>0, ring-drops==0 and the\n"
            "                      whole churn feed applied"))
        return 0;

    Options opt;
    opt.engine = args.get("engine", opt.engine);
    opt.workers = static_cast<unsigned>(args.get_u64("workers", opt.workers));
    opt.routes = args.get_u64("routes", opt.routes);
    opt.file = args.get("file", "");
    opt.duration = args.get_double("duration", opt.duration);
    opt.rate_mpps = args.get_double("rate-mpps", opt.rate_mpps);
    opt.pattern = args.get("pattern", opt.pattern);
    opt.burst = args.get_u64("burst", opt.burst);
    opt.ring_capacity = args.get_u64("ring-capacity", opt.ring_capacity);
    opt.pin = args.has("pin");
    opt.direct_bits = static_cast<unsigned>(args.get_u64("direct-bits", opt.direct_bits));
    opt.churn_updates = args.get_u64("churn-updates", opt.churn_updates);
    opt.churn_rate = args.get_double("churn-rate", opt.churn_rate);
    opt.compact_every = args.get_u64("compact-every", opt.compact_every);
    opt.stats_interval = args.get_double("stats-interval", opt.stats_interval);
    opt.json = args.has("json");
    opt.json_out = args.json_out();
    opt.check = args.has("check");
    opt.seed = args.seed(opt.seed);
    opt.snapshot_save = args.get("snapshot-save", "");
    opt.snapshot_load = args.get("snapshot-load", "");
    opt.snapshot_placement = args.get("snapshot-placement", opt.snapshot_placement);

    if (opt.workers == 0 || opt.burst == 0 || opt.stats_interval <= 0) {
        std::fprintf(stderr,
                     "lpmd: --workers, --burst and --stats-interval must be nonzero\n");
        return 2;
    }
    if (opt.pattern != "random" && opt.pattern != "trace") {
        std::fprintf(stderr, "lpmd: unknown --pattern '%s'\n", opt.pattern.c_str());
        return 2;
    }
    const bool engine_known = opt.engine == "poptrie" || opt.engine == "snapshot" ||
                              opt.engine == "sail" || opt.engine == "dir24" ||
                              opt.engine == "treebitmap";
    if (!engine_known) {
        std::fprintf(stderr, "lpmd: unknown --engine '%s'\n", opt.engine.c_str());
        return 2;
    }
    if (opt.churn_updates > 0 && opt.engine != "poptrie") {
        // A restored image has no writer side (kSupportsChurn = false); the
        // baselines have no update machinery at all.
        std::fprintf(stderr, "lpmd: --churn-updates requires --engine poptrie\n");
        return 2;
    }
    if (opt.compact_every > 0 && opt.churn_updates == 0) {
        std::fprintf(stderr, "lpmd: --compact-every requires --churn-updates\n");
        return 2;
    }
    if (!opt.snapshot_save.empty() && opt.engine != "poptrie") {
        std::fprintf(stderr, "lpmd: --snapshot-save requires --engine poptrie\n");
        return 2;
    }
    if (opt.engine == "snapshot" && opt.snapshot_load.empty()) {
        std::fprintf(stderr, "lpmd: --engine snapshot requires --snapshot-load\n");
        return 2;
    }
    if (!opt.snapshot_load.empty() && opt.engine != "snapshot") {
        std::fprintf(stderr, "lpmd: --snapshot-load requires --engine snapshot\n");
        return 2;
    }
    if (opt.engine == "snapshot" && opt.pattern == "trace") {
        // The §4.7-style trace is materialized from the routing table; a
        // restored image carries no RIB to derive destinations from.
        std::fprintf(stderr, "lpmd: --engine snapshot supports --pattern random only\n");
        return 2;
    }
    snapshot::LoadOptions load_opt;
    if (opt.snapshot_placement == "copy") {
        load_opt.placement = snapshot::LoadOptions::Placement::kCopy;
    } else if (opt.snapshot_placement != "auto") {
        std::fprintf(stderr, "lpmd: unknown --snapshot-placement '%s'\n",
                     opt.snapshot_placement.c_str());
        return 2;
    }

    try {
        // --- warm start: serve a restored image, no table build at all ---
        if (opt.engine == "snapshot") {
            const auto load_t0 = std::chrono::steady_clock::now();
            snapshot::SnapshotFib4 fib =
                snapshot::SnapshotFib4::load_file(opt.snapshot_load, load_opt);
            const double load_ms = ms_since(load_t0);
            const auto mem = fib.memory_report();
            std::printf("lpmd: snapshot %s: %llu nodes, %llu leaves, "
                        "direct-bits=%u, %llu bytes, backing=%s, loaded and verified "
                        "in %.2f ms\n",
                        opt.snapshot_load.c_str(),
                        static_cast<unsigned long long>(fib.header().node_count),
                        static_cast<unsigned long long>(fib.header().leaf_count),
                        fib.header().direct_bits,
                        static_cast<unsigned long long>(fib.image_bytes()),
                        alloc::backing_name(mem.backing), load_ms);
            benchkit::note_arena_backing(alloc::backing_name(mem.backing));

            std::signal(SIGINT, handle_signal);
            std::signal(SIGTERM, handle_signal);

            dataplane::DataplaneConfig dcfg;
            dcfg.workers = opt.workers;
            dcfg.ring_capacity = opt.ring_capacity;
            dcfg.burst = opt.burst;
            dcfg.pin_cpus = opt.pin;

            dataplane::Dataplane<dataplane::SnapshotEngine> dp{
                dataplane::SnapshotEngine{fib}, dcfg};
            auto r = run_pipeline(dp, opt, {}, nullptr);
            r.fib_backing = alloc::backing_name(mem.backing);
            r.snapshot_load_ms = load_ms;
            return finish(opt, r, "snapshot");
        }

        // --- table ---
        rib::RouteList<netbase::Ipv4Addr> routes;
        if (!opt.file.empty()) {
            routes = workload::load_table4_file(opt.file);
        } else {
            workload::TableGenConfig tg;
            tg.seed = opt.seed;
            tg.target_routes = opt.routes;
            tg.next_hops = 64;
            routes = workload::generate_table(tg);
        }
        std::printf("lpmd: %zu routes, engine=%s, workers=%u, pattern=%s\n",
                    routes.size(), opt.engine.c_str(), opt.workers,
                    opt.pattern.c_str());
        // A RIB of lpmd's own, for the trace generator and the baselines'
        // aggregation; the poptrie engine's Router builds its own.
        rib::RadixTrie<netbase::Ipv4Addr> rib;
        if (opt.pattern == "trace" || opt.engine != "poptrie") rib.insert_all(routes);

        std::vector<std::uint32_t> trace;
        if (opt.pattern == "trace") {
            workload::TraceConfig tc;
            tc.seed = opt.seed + 7;
            tc.packets = 2'000'000;
            tc.distinct_destinations = std::min<std::size_t>(200'000, routes.size() * 4);
            trace = workload::make_real_trace_like(rib, tc);
        }

        std::signal(SIGINT, handle_signal);
        std::signal(SIGTERM, handle_signal);

        dataplane::DataplaneConfig dcfg;
        dcfg.workers = opt.workers;
        dcfg.ring_capacity = opt.ring_capacity;
        dcfg.burst = opt.burst;
        dcfg.pin_cpus = opt.pin;

        if (opt.engine == "poptrie") {
            poptrie::Config pcfg;
            pcfg.direct_bits = opt.direct_bits;
            router::Router4 router{pcfg};
            const auto load_t0 = std::chrono::steady_clock::now();
            dataplane::load_routes(router, routes);
            const double load_s =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - load_t0)
                    .count();
            const poptrie::Stats loaded = router.fib().stats();
            const std::size_t fib_bytes = loaded.memory_bytes;
            std::printf("lpmd: fib loaded in %.3fs, %zu bytes of structure (nodes %zu, "
                        "leaves %zu, codes %zu, folded %zu, dictionary %zu, direct %zu)\n",
                        load_s, fib_bytes, loaded.node_bytes, loaded.leaf_bytes,
                        loaded.leaf8_bytes, loaded.folded_bytes, loaded.dict_bytes,
                        loaded.direct_bytes);
            benchkit::note_arena_backing(
                alloc::backing_name(router.fib().memory_report().backing));
            dataplane::Dataplane<dataplane::PoptrieEngine> dp{
                dataplane::PoptrieEngine{router}, dcfg};
            std::unique_ptr<dataplane::ChurnRunner> churn;
            if (opt.churn_updates > 0)
                churn = std::make_unique<dataplane::ChurnRunner>(
                    router, routes,
                    dataplane::ChurnConfig{.updates = opt.churn_updates,
                                           .rate_per_sec = opt.churn_rate});
            const std::function<void()> compact_fn =
                opt.compact_every > 0 ? std::function<void()>([&router] {
                    // writer: run_pipeline only invokes this after
                    // churn->pause() parked the churn writer (the
                    // std::function boundary hides the caller's
                    // capabilities from the analysis).
                    const psync::EbrWriterSection writer;
                    router.compact_fib();
                    print_frag(router.fib().stats(), "compact");
                })
                                      : std::function<void()>{};
            const std::function<void()> save_fn =
                !opt.snapshot_save.empty() ? std::function<void()>([&router, &opt] {
                    // writer: run_pipeline only invokes this with the churn
                    // writer parked, or there is none (the std::function
                    // boundary hides the caller's capabilities from the
                    // analysis).
                    const psync::EbrWriterSection writer;
                    save_image(router, opt.snapshot_save);
                })
                                           : std::function<void()>{};
            if (!opt.snapshot_save.empty()) std::signal(SIGUSR1, handle_sigusr1);
            auto r = run_pipeline(dp, opt, trace, churn.get(), compact_fn, save_fn);
            if (churn) churn->stop_and_join();
            {
                // writer: workers and churn thread joined above; only this
                // thread still touches the domain.
                const psync::EbrWriterSection writer;
                router.drain();
            }
            r.has_load = true;
            r.load_s = load_s;
            r.fib_bytes = fib_bytes;
            if (!opt.snapshot_save.empty()) {
                // Final image, written after the drain above.
                // writer: workers stopped and churn joined; only this thread
                // touches the FIB.
                const psync::EbrWriterSection writer;
                save_image(router, opt.snapshot_save);
            }
            r.fib_backing = alloc::backing_name(router.fib().memory_report().backing);
            if (opt.churn_updates > 0) {
                // Workers stopped and churn joined: snapshot the
                // fragmentation counters for the summary / JSON record.
                r.fib_stats = router.fib().stats();
                r.has_fib_stats = true;
            }
            return finish(opt, r, "poptrie");
        }
        // Read-only baselines are compiled from the aggregated FIB source,
        // matching how every bench builds them (bench/common.hpp).
        const auto fib_src = rib::aggregate(rib);
        if (opt.engine == "sail") {
            const baselines::Sail sail{fib_src};
            dataplane::Dataplane<dataplane::SailEngine> dp{
                dataplane::SailEngine{sail, "sail"}, dcfg};
            return finish(opt, run_pipeline(dp, opt, trace, nullptr), "sail");
        }
        if (opt.engine == "dir24") {
            const baselines::Dir24 dir24{fib_src};
            dataplane::Dataplane<dataplane::Dir24Engine> dp{
                dataplane::Dir24Engine{dir24, "dir24"}, dcfg};
            return finish(opt, run_pipeline(dp, opt, trace, nullptr), "dir24");
        }
        const baselines::TreeBitmap16 tbm{fib_src};
        dataplane::Dataplane<dataplane::TreeBitmapEngine> dp{
            dataplane::TreeBitmapEngine{tbm, "treebitmap"}, dcfg};
        return finish(opt, run_pipeline(dp, opt, trace, nullptr), "treebitmap");
    } catch (const baselines::StructuralLimit& e) {
        std::fprintf(stderr, "lpmd: engine cannot encode this table: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lpmd: %s\n", e.what());
        return 2;
    }
}
