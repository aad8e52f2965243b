// Figure 9 — average random-pattern lookup rate of Radix, Tree BitMap,
// SAIL, D16R, Poptrie16, D18R, Poptrie18 across the 35 Table 1 datasets
// (error bars = std over trials). The quick default measures a
// representative subset of datasets; --full (or --datasets=35) runs all 35.
#include "common.hpp"

using namespace bench;

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv, {{"datasets", K::kU64}});
    if (args.handle_help("bench_figure9_datasets",
                         "  --datasets=N  how many of the 35 datasets (default 8 quick / 35 full)"))
        return 0;
    const auto lookups = args.lookups(std::size_t{1} << 20, std::size_t{1} << 23);
    const auto trials = args.trials();
    auto specs = workload::all_ipv4_specs();
    const auto n_datasets = std::min<std::size_t>(
        specs.size(), args.get_u64("datasets", args.has("full") ? specs.size() : 8));
    specs.resize(n_datasets);

    std::printf("Figure 9: average lookup rate for random addresses across datasets\n");
    std::printf("# paper: Poptrie18 wins on all 35 datasets, 1.04-1.34x over D18R,\n"
                "# 1.37-2.62x over SAIL, 3.52-6.78x over Tree BitMap, 24.5-46.1x over Radix\n\n");
    print_host_note();
    ChecksumSink sink;
    benchkit::TablePrinter table({{"Dataset", 16, false},
                                  {"Radix", 12},
                                  {"TreeBM", 12},
                                  {"SAIL", 13},
                                  {"D16R", 13},
                                  {"Poptrie16", 13},
                                  {"D18R", 13},
                                  {"Poptrie18", 13},
                                  {"win", 9, false}});
    table.print_header();

    double worst_ratio_vs_d18r = 1e9;
    double best_ratio_vs_d18r = 0;
    std::size_t poptrie_wins = 0;
    for (const auto& spec : specs) {
        const auto d = load_dataset(spec);
        const auto s = build_structures(d);
        const auto measure = [&](auto&& lookup, std::size_t scale_down = 1) {
            const auto r = benchkit::measure_random(lookup, lookups / scale_down, trials);
            sink.add(r.checksum);
            return r;
        };
        const auto radix =
            measure([&](std::uint32_t a) { return d.rib.lookup(Ipv4Addr{a}); }, 8);
        const auto tbm =
            measure([&](std::uint32_t a) { return s.tbm64->lookup(Ipv4Addr{a}); }, 2);
        const auto sail = measure([&](std::uint32_t a) { return s.sail->lookup(Ipv4Addr{a}); });
        const auto d16 = measure([&](std::uint32_t a) { return s.d16r->lookup(Ipv4Addr{a}); });
        const auto p16 =
            measure([&](std::uint32_t a) { return s.poptrie16->lookup_raw<true>(a); });
        const auto d18 = measure([&](std::uint32_t a) { return s.d18r->lookup(Ipv4Addr{a}); });
        const auto p18 =
            measure([&](std::uint32_t a) { return s.poptrie18->lookup_raw<true>(a); });

        const double best_poptrie = std::max(p16.mlps_mean, p18.mlps_mean);
        const double best_other = std::max({radix.mlps_mean, tbm.mlps_mean, sail.mlps_mean,
                                            d16.mlps_mean, d18.mlps_mean});
        if (best_poptrie > best_other) ++poptrie_wins;
        worst_ratio_vs_d18r = std::min(worst_ratio_vs_d18r, p18.mlps_mean / d18.mlps_mean);
        best_ratio_vs_d18r = std::max(best_ratio_vs_d18r, p18.mlps_mean / d18.mlps_mean);

        const auto cell = [](const benchkit::RateResult& r) {
            return benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std, 1);
        };
        table.print_row({spec.name, cell(radix), cell(tbm), cell(sail), cell(d16), cell(p16),
                         cell(d18), cell(p18),
                         best_poptrie > best_other ? "poptrie" : "other"});
    }
    std::printf("\nPoptrie (best of 16/18) fastest on %zu/%zu datasets;"
                " Poptrie18/D18R ratio range %.2f-%.2f\n",
                poptrie_wins, specs.size(), worst_ratio_vs_d18r, best_ratio_vs_d18r);
    return 0;
}
