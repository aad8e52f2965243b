// Dataplane pipeline benchmark — end-to-end forwarding rate (Mlps) and
// per-burst latency percentiles (p50/p99/p99.9) by engine, worker count,
// and churn, through the same sharded-ring worker pipeline lpmd runs.
//
// This measures what Fig. 8 cannot: not the raw structure walk, but the
// structure embedded in a forwarding loop — ring pop, EBR guard, batched
// lookup, counters — and what concurrent §3.5 route churn does to the tail.
// The producer saturates the rings, so Mlps is the workers' drain rate.
// It also times dataplane::load_routes on the table (route list -> FIB
// ready to serve) and records the FIB's structure bytes, emitted as a
// {"phase": "load"} record.
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "common.hpp"
#include "dataplane/churn.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/engines.hpp"
#include "router/router.hpp"

using namespace bench;

namespace {

struct CellResult {
    double mlps = 0;
    benchkit::LatencyPercentiles lat;
    std::uint64_t ring_drops = 0;
    std::uint64_t churn_applied = 0;
};

struct RunOptions {
    double duration = 1.0;
    std::size_t burst = 256;
    bool pin = false;
    std::uint64_t seed = 1;
};

/// Saturating producer: offer random addresses as fast as the rings accept
/// them for `duration` seconds, then report the workers' drain rate.
template <class Engine>
CellResult run_cell(Engine engine, unsigned workers, const RunOptions& opt,
                    dataplane::ChurnRunner* churn)
{
    using clock = std::chrono::steady_clock;
    dataplane::DataplaneConfig cfg;
    cfg.workers = workers;
    cfg.burst = opt.burst;
    cfg.pin_cpus = opt.pin;
    dataplane::Dataplane<Engine> dp{std::move(engine), cfg};
    dp.start();

    std::vector<std::uint32_t> chunk(opt.burst);
    workload::Xorshift128 rng(opt.seed ^ 0xBE4C);
    const auto t0 = clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(opt.duration));
    while (clock::now() < deadline) {
        for (std::size_t i = 0; i < opt.burst; ++i) chunk[i] = rng.next();
        dp.offer(chunk.data(), opt.burst);
    }
    const double elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    dp.stop();

    // quiescent: dp.stop() joined every worker; only this thread remains.
    const psync::QuiescentSection quiescent;
    CellResult r;
    const auto s = dp.stats();
    r.mlps = benchkit::to_mlps(s.lookups(), elapsed);
    r.lat = benchkit::latency_percentiles(dp.merged_latency());
    r.ring_drops = s.ring_drops;
    if (churn != nullptr) {
        churn->stop_and_join();
        r.churn_applied = churn->applied();
    }
    return r;
}

}  // namespace

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv,
                              {{"routes", K::kU64}, {"duration", K::kDouble},
                               {"max-workers", K::kU64}, {"workers-list", K::kText},
                               {"churn", K::kU64}, {"burst", K::kU64}, {"pin", K::kSwitch},
                               {"json", K::kSwitch}});
    if (args.handle_help(
            "bench_dataplane",
            "  --routes=N        table size (default 100000)\n"
            "  --duration=S      seconds per cell (default 1, --full: 3)\n"
            "  --max-workers=N   worker counts 1,2,..,N doubling (default 4)\n"
            "  --workers-list=L  explicit comma-separated worker counts (overrides\n"
            "                    --max-workers; e.g. 1,4 for benchctl's smoke cells)\n"
            "  --burst=N         burst size (default 256)\n"
            "  --churn=N         updates applied live per poptrie cell (default 20000)\n"
            "  --pin             pin workers to CPUs\n"
            "  --json            emit a JSON record per cell"))
        return 0;

    const auto routes_n = args.get_u64("routes", 100'000);
    const double duration = args.get_double("duration", args.has("full") ? 3.0 : 1.0);
    const auto max_workers = static_cast<unsigned>(args.get_u64(
        "max-workers", std::min(4u, std::max(1u, std::thread::hardware_concurrency()))));
    std::vector<unsigned> worker_counts;
    if (const auto list = args.get("workers-list", ""); !list.empty()) {
        for (std::size_t pos = 0; pos < list.size();) {
            const auto comma = std::min(list.find(',', pos), list.size());
            const unsigned w =
                static_cast<unsigned>(std::strtoul(list.substr(pos, comma - pos).c_str(),
                                                   nullptr, 10));
            if (w == 0) {
                std::fprintf(stderr, "bench_dataplane: bad --workers-list '%s'\n",
                             list.c_str());
                return 2;
            }
            worker_counts.push_back(w);
            pos = comma + 1;
        }
    } else {
        for (unsigned w = 1; w <= max_workers; w *= 2) worker_counts.push_back(w);
    }
    const auto churn_updates = args.get_u64("churn", 20'000);
    RunOptions opt;
    opt.duration = duration;
    opt.burst = args.get_u64("burst", opt.burst);
    opt.pin = args.has("pin");
    opt.seed = args.seed(1);

    std::printf("Dataplane: end-to-end forwarding rate and per-burst latency\n");
    std::printf("# pipeline: SPSC rings -> %zu-address bursts -> batched lookup "
                "(one EBR guard per burst)\n\n",
                opt.burst);
    print_host_note();

    workload::TableGenConfig tg;
    tg.seed = opt.seed;
    tg.target_routes = routes_n;
    tg.next_hops = 64;
    const auto d = load_routes("synthetic", workload::generate_table(tg));

    poptrie::Config pcfg;
    pcfg.direct_bits = 18;
    router::Router4 router{pcfg};
    const auto load_t0 = std::chrono::steady_clock::now();
    dataplane::load_routes(router, d.routes);
    const double load_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - load_t0)
                               .count();
    const std::size_t fib_bytes = router.fib().stats().memory_bytes;
    const std::size_t rib_bytes = router.rib().memory_bytes();
    std::printf("# load_routes: %zu routes in %.1f ms, %zu bytes of structure, "
                "%zu bytes of RIB\n\n",
                d.routes.size(), load_ms, fib_bytes, rib_bytes);
    const baselines::TreeBitmap16 tbm{d.fib_src};
    std::unique_ptr<baselines::Sail> sail;
    std::string sail_error;
    try {
        sail = std::make_unique<baselines::Sail>(d.fib_src);
    } catch (const baselines::StructuralLimit& e) {
        // The table exceeds SAIL's chunk-id space: its cells are recorded
        // as first-class structural-limit rows, not silently dropped.
        sail_error = e.what();
    }

    benchkit::TablePrinter table({{"Engine", 10, false},
                                  {"Workers", 7},
                                  {"Churn", 7},
                                  {"Rate[Mlps]", 10},
                                  {"p50[ns]", 8},
                                  {"p99[ns]", 8},
                                  {"p99.9[ns]", 9}});
    table.print_header();
    benchkit::JsonRecords json;
    json.begin_record();
    json.field("phase", std::string_view{"load"});
    json.field("routes", std::uint64_t{d.routes.size()});
    json.field("load_ms", load_ms);
    json.field("fib_bytes", std::uint64_t{fib_bytes});
    json.field("rib_bytes", std::uint64_t{rib_bytes});
    benchkit::stamp_provenance(json);

    const auto report = [&](std::string_view engine, unsigned workers, bool churn,
                            const CellResult& r) {
        table.print_row({std::string(engine), std::to_string(workers),
                         churn ? std::to_string(r.churn_applied) : "-",
                         benchkit::fmt(r.mlps, 2), benchkit::fmt(r.lat.p50, 0),
                         benchkit::fmt(r.lat.p99, 0), benchkit::fmt(r.lat.p999, 0)});
        json.begin_record();
        json.field("engine", engine);
        json.field("workers", std::uint64_t{workers});
        json.field("churn", churn);
        json.field("churn_applied", r.churn_applied);
        json.field("mlps", r.mlps);
        json.field("lat_p50_ns", r.lat.p50);
        json.field("lat_p99_ns", r.lat.p99);
        json.field("lat_p999_ns", r.lat.p999);
        json.field("ring_drops", r.ring_drops);
        benchkit::stamp_provenance(json);
    };

    for (const unsigned workers : worker_counts) {
        report("poptrie", workers, false,
               run_cell(dataplane::PoptrieEngine{router}, workers, opt, nullptr));
        if (churn_updates > 0) {
            dataplane::ChurnRunner churn{
                router, d.routes, dataplane::ChurnConfig{.updates = churn_updates}};
            report("poptrie", workers, true,
                   run_cell(dataplane::PoptrieEngine{router}, workers, opt, &churn));
            {
                // writer: run_cell stopped the workers and joined the churn
                // thread; only this thread remains.
                const psync::EbrWriterSection writer;
                router.drain();
            }
        }
        report("treebitmap", workers, false,
               run_cell(dataplane::TreeBitmapEngine{tbm, "treebitmap"}, workers, opt,
                        nullptr));
        if (sail) {
            report("sail", workers, false,
                   run_cell(dataplane::SailEngine{*sail, "sail"}, workers, opt, nullptr));
        } else {
            table.print_row({"sail", std::to_string(workers), "-", "structural-limit",
                             "-", "-", "-"});
            json.begin_record();
            json.field("engine", std::string_view{"sail"});
            json.field("workers", std::uint64_t{workers});
            json.field("status", std::string_view{"structural_limit"});
            json.field("error", std::string_view{sail_error});
            benchkit::stamp_provenance(json);
        }
    }

    if (args.has("json")) json.write(stdout);
    const auto json_path = args.json_out();
    if (!json_path.empty() && !json.write_file(json_path)) {
        std::fprintf(stderr, "bench_dataplane: cannot write %s\n", json_path.c_str());
        return 2;
    }
    return 0;
}
