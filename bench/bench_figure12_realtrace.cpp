// Figure 12 (+ §4.5's sequential/repeated numbers) — lookup rates for the
// real-trace pattern on REAL-RENET, and the high-locality synthetic
// patterns on REAL-Tier1-B, for Tree BitMap, SAIL, D16R/D18R, Poptrie16/18.
#include "common.hpp"

using namespace bench;

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv, {{"packets", K::kU64}});
    if (args.handle_help("bench_figure12_realtrace",
                         "  --packets=N  trace length (default 4M quick / 16M full)"))
        return 0;
    const auto trials = args.trials();
    const auto lookups = args.lookups(std::size_t{1} << 22, std::size_t{1} << 25);
    const auto packets = args.get_u64("packets", args.has("full") ? 16'000'000 : 4'000'000);
    ChecksumSink sink;

    // --- Figure 12: real-trace on REAL-RENET ---
    std::printf("Figure 12: average lookup rate for real-trace on REAL-RENET\n");
    std::printf("# paper: Poptrie18 = 3.02x Tree BitMap, 1.61x D18R, 1.22x SAIL\n\n");
    {
        const auto d = load_dataset(workload::real_renet());
        const auto s = build_structures(d);
        workload::TraceConfig tc;
        tc.packets = packets;
        const auto trace = workload::make_real_trace_like(d.rib, tc);
        std::printf("# trace: %zu packets, depth>18: %.1f%% (paper 32.5%%), depth>24: %.1f%%"
                    " (paper 21.8%%)\n\n",
                    trace.size(), 100 * workload::deep_fraction(d.rib, trace, 18),
                    100 * workload::deep_fraction(d.rib, trace, 24));
        benchkit::TablePrinter table(
            {{"Algorithm", 12, false}, {"Rate(std)[Mlps]", 16}, {"vs Poptrie18", 12}});
        table.print_header();
        struct Row {
            const char* name;
            benchkit::RateResult r;
        };
        std::vector<Row> rows;
        const auto measure = [&](const char* name, auto&& lookup) {
            const auto r = benchkit::measure_trace(lookup, trace, trials);
            sink.add(r.checksum);
            rows.push_back({name, r});
        };
        measure("Tree BitMap", [&](std::uint32_t a) { return s.tbm64->lookup(Ipv4Addr{a}); });
        measure("SAIL", [&](std::uint32_t a) { return s.sail->lookup(Ipv4Addr{a}); });
        measure("D16R", [&](std::uint32_t a) { return s.d16r->lookup(Ipv4Addr{a}); });
        measure("Poptrie16", [&](std::uint32_t a) { return s.poptrie16->lookup_raw<true>(a); });
        measure("D18R", [&](std::uint32_t a) { return s.d18r->lookup(Ipv4Addr{a}); });
        measure("Poptrie18", [&](std::uint32_t a) { return s.poptrie18->lookup_raw<true>(a); });
        const double p18 = rows.back().r.mlps_mean;
        for (const auto& row : rows)
            table.print_row({row.name, benchkit::fmt_mean_std(row.r.mlps_mean, row.r.mlps_std),
                             benchkit::fmt(p18 / row.r.mlps_mean, 2) + "x"});
    }

    // --- §4.5: sequential and repeated on REAL-Tier1-B ---
    std::printf("\nSection 4.5: high-locality patterns on REAL-Tier1-B\n");
    std::printf("# paper sequential: SAIL 1264, D16R 628, D18R 911, Poptrie16 955, Poptrie18 1122\n");
    std::printf("# paper repeated:   SAIL 492,  D16R 382, D18R 454, Poptrie16 470, Poptrie18 480\n\n");
    {
        const auto d = load_dataset(workload::real_tier1_b());
        const auto s = build_structures(d);
        benchkit::TablePrinter table({{"Algorithm", 12, false},
                                      {"sequential[Mlps]", 16},
                                      {"repeated[Mlps]", 16}});
        table.print_header();
        const auto row = [&](const char* name, auto&& lookup) {
            const auto seq = benchkit::measure_sequential(lookup, lookups, trials);
            const auto rep = benchkit::measure_repeated(lookup, lookups, trials);
            sink.add(seq.checksum + rep.checksum);
            table.print_row({name, benchkit::fmt_mean_std(seq.mlps_mean, seq.mlps_std),
                             benchkit::fmt_mean_std(rep.mlps_mean, rep.mlps_std)});
        };
        row("SAIL", [&](std::uint32_t a) { return s.sail->lookup(Ipv4Addr{a}); });
        row("D16R", [&](std::uint32_t a) { return s.d16r->lookup(Ipv4Addr{a}); });
        row("D18R", [&](std::uint32_t a) { return s.d18r->lookup(Ipv4Addr{a}); });
        row("Poptrie16", [&](std::uint32_t a) { return s.poptrie16->lookup_raw<true>(a); });
        row("Poptrie18", [&](std::uint32_t a) { return s.poptrie18->lookup_raw<true>(a); });
    }
    return 0;
}
