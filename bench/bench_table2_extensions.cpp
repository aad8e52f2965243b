// Table 2 — effect of the Poptrie extensions on REAL-Tier1-A: for each of
// basic / leafvec / leafvec+aggregation at s = 0, 16, 18, report the number
// of internal nodes and leaves, the memory footprint, the compile time from
// the radix RIB, and the random-pattern lookup rate. The paper's rows use its
// 16-bit leaves; one more row, "poptrie+dict" at s = 18, is the default
// configuration lpmd serves (dictionary-coded leaves, childless direct-slot
// roots folded into their runs), a second table attributes every row's
// structure bytes to their arrays, and a third counts what a lookup reads
// on uniform keys (analysis/lookup_cost.hpp): host-independent, so it
// reads the same on every machine.
#include <chrono>

#include "analysis/lookup_cost.hpp"
#include "common.hpp"
#include "workload/xorshift.hpp"

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

    // The lookup-cost keys: uniform over the address space.
    std::vector<std::uint32_t> cost_keys(std::size_t{1} << 16);
    workload::Xorshift128 rng(0x7AB1E2u);
    for (auto& k : cost_keys) k = rng.next();

    struct Row {
        std::string variant;
        unsigned s;
        poptrie::Stats stats;
        analysis::LookupCost cost;
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
            rows.push_back({variant, s, stats,
                            analysis::lookup_cost(*pt, cost_keys.data(), cost_keys.size())});
        }
    }

    std::printf("\nStructure bytes by array (memory_bytes is their sum)\n\n");
    benchkit::TablePrinter bytes({{"Variant", 16, false},
                                  {"s", 2},
                                  {"Nodes", 10},
                                  {"Leaves", 10},
                                  {"Codes", 9},
                                  {"Folded", 8},
                                  {"Dict", 5},
                                  {"Direct", 10},
                                  {"Total", 10}});
    bytes.print_header();
    for (const Row& row : rows)
        bytes.print_row({row.variant, std::to_string(row.s),
                         benchkit::fmt_count(row.stats.node_bytes),
                         benchkit::fmt_count(row.stats.leaf_bytes),
                         benchkit::fmt_count(row.stats.leaf8_bytes),
                         benchkit::fmt_count(row.stats.folded_bytes),
                         benchkit::fmt_count(row.stats.dict_bytes),
                         benchkit::fmt_count(row.stats.direct_bytes),
                         benchkit::fmt_count(row.stats.memory_bytes)});

    std::printf("\nWhat a lookup reads, per lookup over %zu uniform keys: distinct 64-byte lines\n"
                "and dependent loads (dictionary excluded), direct-hit and folded-run shares,\n"
                "and the share of lookups visiting 0, 1, 2 and 3+ internal nodes\n\n",
                cost_keys.size());
    benchkit::TablePrinter cost({{"Variant", 16, false},
                                 {"s", 2},
                                 {"Lines", 6},
                                 {"Loads", 6},
                                 {"Direct", 7},
                                 {"Folded", 7},
                                 {"d0", 6},
                                 {"d1", 6},
                                 {"d2", 6},
                                 {"d3+", 6}});
    cost.print_header();
    for (const Row& row : rows) {
        const analysis::LookupCost& c = row.cost;
        const auto share = [&](std::size_t from, std::size_t to) {
            std::uint64_t n = 0;
            for (std::size_t d = from; d < to; ++d) n += c.depth[d];
            return benchkit::fmt(static_cast<double>(n) / static_cast<double>(c.lookups), 3);
        };
        cost.print_row({row.variant, std::to_string(row.s), benchkit::fmt(c.lines_per_lookup(), 3),
                        benchkit::fmt(c.loads_per_lookup(), 3),
                        benchkit::fmt(c.direct_hit_share(), 3), benchkit::fmt(c.folded_share(), 3),
                        share(0, 1), share(1, 2), share(2, 3), share(3, c.depth.size())});
    }
    return 0;
}
