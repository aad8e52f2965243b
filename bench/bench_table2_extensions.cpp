// Table 2 — effect of the Poptrie extensions on REAL-Tier1-A: for each of
// basic / leafvec / leafvec+aggregation at s = 0, 16, 18, report the number
// of internal nodes and leaves, the memory footprint, the compile time from
// the radix RIB, and the random-pattern lookup rate. The paper's rows use its
// 16-bit leaves; one more row, "poptrie+dict" at s = 18, is the default
// configuration lpmd serves (dictionary-coded leaves), and a second table
// attributes every row's structure bytes to their arrays.
#include <chrono>

#include "common.hpp"

using namespace bench;

namespace {

struct PaperRow {
    const char* variant;
    unsigned s;
    std::size_t inodes, leaves;
    double mem_mib, compile_ms, rate;
};
// Table 2's published values for side-by-side comparison.
constexpr PaperRow kPaper[] = {
    {"basic", 0, 64'009, 4'032'568, 8.67, 31.07, 87.71},
    {"basic", 16, 172'101, 10'862'901, 23.60, 64.18, 130.72},
    {"basic", 18, 61'282, 3'911'422, 9.40, 36.06, 170.69},
    {"leafvec", 0, 64'009, 280'673, 2.00, 32.60, 89.15},
    {"leafvec", 16, 172'101, 347'449, 4.85, 62.97, 154.33},
    {"leafvec", 18, 61'282, 265'320, 2.91, 33.37, 191.95},
    {"poptrie", 0, 43'191, 263'381, 1.49, 32.84, 96.27},
    {"poptrie", 16, 86'171, 274'145, 2.75, 65.91, 198.28},
    {"poptrie", 18, 40'760, 245'034, 2.40, 33.24, 240.52},
};

}  // namespace

int main(int argc, char** argv)
{
    const benchkit::Args args(argc, argv);
    if (args.handle_help("bench_table2_extensions")) return 0;
    const auto lookups = args.lookups(std::size_t{1} << 22, std::size_t{1} << 26);
    const auto trials = args.trials();

    std::printf("Table 2: Poptrie options on REAL-Tier1-A(-like): compilation, size, rate\n\n");
    print_host_note();
    const auto d = load_dataset(workload::real_tier1_a());
    std::printf("# dataset %s: %zu routes (aggregated FIB source: %zu)\n\n", d.name.c_str(),
                d.rib.route_count(), d.fib_src.route_count());

    // Radix baseline row (memory + rate; it *is* the RIB, no compilation).
    ChecksumSink sink;
    benchkit::TablePrinter table({{"Variant", 16, false},
                                  {"s", 2},
                                  {"# inodes", 9},
                                  {"# leaves", 10},
                                  {"Mem[MiB]", 8},
                                  {"Compile(std)[ms]", 16},
                                  {"Rate(std)[Mlps]", 16},
                                  {"paper Mlps", 10}});
    table.print_header();
    {
        const auto r = benchkit::measure_random(
            [&](std::uint32_t a) { return d.rib.lookup(Ipv4Addr{a}); },
            lookups / 8, trials);
        sink.add(r.checksum);
        table.print_row({"Radix", "-", "-", "-", benchkit::fmt_mib(d.rib.memory_bytes()), "-",
                         benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std), "8.82"});
    }

    struct Row {
        std::string variant;
        unsigned s;
        poptrie::Stats stats;
    };
    std::vector<Row> rows;
    std::size_t paper_idx = 0;
    for (const std::string variant : {"basic", "leafvec", "poptrie", "poptrie+dict"}) {
        const bool dict = variant == "poptrie+dict";
        for (const unsigned s : {0u, 16u, 18u}) {
            if (dict && s != 18) continue;
            poptrie::Config cfg;
            cfg.direct_bits = s;
            cfg.leaf_compression = variant != "basic";
            cfg.route_aggregation = variant.starts_with("poptrie");
            cfg.leaf_dict = dict;

            // Compile time: paper measures RIB -> Poptrie compilation.
            std::vector<double> compile_ms;
            std::unique_ptr<poptrie::Poptrie4> pt;
            for (unsigned t = 0; t < std::max(1u, trials / 2); ++t) {
                const auto t0 = std::chrono::steady_clock::now();
                pt = std::make_unique<poptrie::Poptrie4>(d.rib, cfg);
                compile_ms.push_back(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
            }
            const auto cms = benchkit::mean_std(compile_ms);
            const auto stats = pt->stats();

            const auto r =
                cfg.leaf_compression
                    ? benchkit::measure_random(
                          [&](std::uint32_t a) { return pt->lookup_raw<true>(a); }, lookups,
                          trials)
                    : benchkit::measure_random(
                          [&](std::uint32_t a) { return pt->lookup_raw<false>(a); }, lookups,
                          trials);
            sink.add(r.checksum);

            table.print_row({variant, std::to_string(s),
                             benchkit::fmt_count(stats.internal_nodes),
                             benchkit::fmt_count(stats.leaves),
                             benchkit::fmt_mib(stats.memory_bytes),
                             benchkit::fmt_mean_std(cms.mean, cms.std),
                             benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std),
                             dict ? "-" : benchkit::fmt(kPaper[paper_idx++].rate, 2)});
            rows.push_back({variant, s, stats});
        }
    }

    std::printf("\nStructure bytes by array (memory_bytes is their sum)\n\n");
    benchkit::TablePrinter bytes({{"Variant", 16, false},
                                  {"s", 2},
                                  {"Nodes", 10},
                                  {"Leaves", 10},
                                  {"Codes", 9},
                                  {"Dict", 5},
                                  {"Direct", 10},
                                  {"Total", 10}});
    bytes.print_header();
    for (const Row& row : rows)
        bytes.print_row({row.variant, std::to_string(row.s),
                         benchkit::fmt_count(row.stats.node_bytes),
                         benchkit::fmt_count(row.stats.leaf_bytes),
                         benchkit::fmt_count(row.stats.leaf8_bytes),
                         benchkit::fmt_count(row.stats.dict_bytes),
                         benchkit::fmt_count(row.stats.direct_bytes),
                         benchkit::fmt_count(row.stats.memory_bytes)});
    return 0;
}
