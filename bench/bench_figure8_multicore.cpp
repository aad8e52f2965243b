// Figure 8 — aggregated random-pattern lookup rate of Poptrie18 by thread
// count (1..4 in the paper; up to the host's core count here), on
// REAL-Tier1-A and REAL-Tier1-B. The structure is shared read-only, so the
// paper expects near-linear scaling.
#include <thread>

#include "common.hpp"
#include "dataplane/worker_pool.hpp"

using namespace bench;

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv, {{"pin", K::kSwitch}, {"threads", K::kU64}});
    if (args.handle_help("bench_figure8_multicore",
                         "  --threads=N  max thread count\n"
                         "  --pin        pin measurement threads to CPUs"))
        return 0;
    const bool pin = args.has("pin");
    const auto lookups = args.lookups(std::size_t{1} << 22, std::size_t{1} << 25);
    const auto trials = args.trials();
    const auto max_threads = static_cast<unsigned>(args.get_u64(
        "threads", std::min(4u, std::max(1u, std::thread::hardware_concurrency()))));

    std::printf("Figure 8: aggregated lookup rate by number of threads (Poptrie18)\n");
    std::printf("# paper: ~914 Mlps at 4 threads on Tier1-A (241 x ~3.8 scaling)\n\n");
    print_host_note();
    ChecksumSink sink;
    benchkit::TablePrinter table({{"Dataset", 13, false},
                                  {"Threads", 7},
                                  {"Rate(std)[Mlps]", 16},
                                  {"Scaling", 7}});
    table.print_header();

    for (const auto& spec : {workload::real_tier1_a(), workload::real_tier1_b()}) {
        const auto d = load_dataset(spec);
        poptrie::Config cfg;
        cfg.leaf_dict = false;  // the paper's 16-bit leaves
        cfg.direct_bits = 18;
        const poptrie::Poptrie4 pt{d.rib, cfg};
        double base = 0;
        for (unsigned threads = 1; threads <= max_threads; ++threads) {
            const auto r = dataplane::measure_random_multithread(
                [&](std::uint32_t a) { return pt.lookup_raw<true>(a); }, lookups, threads,
                trials, pin);
            sink.add(r.checksum);
            if (threads == 1) base = r.mlps_mean;
            table.print_row({d.name, std::to_string(threads),
                             benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std),
                             benchkit::fmt(r.mlps_mean / base, 2) + "x"});
        }
    }
    return 0;
}
