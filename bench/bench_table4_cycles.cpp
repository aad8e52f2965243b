// Table 4 — per-lookup CPU cycles (mean, 50th/75th/95th/99th percentiles)
// for SAIL, D16R/D18R, Poptrie16/18 under random traffic with a fixed seed,
// on both Tier-1 datasets (§4.6).
#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "common.hpp"

using namespace bench;

namespace {

struct PaperRow {
    const char* algo;
    double mean, p50, p75, p95, p99;
};
constexpr PaperRow kPaperA[] = {
    {"SAIL", 57.43, 22, 76, 279, 299},      {"D16R", 60.92, 44, 49, 189, 255},
    {"D18R", 54.84, 46, 48, 154, 207},      {"Poptrie16", 54.58, 43, 48, 150, 192},
    {"Poptrie18", 53.59, 46, 48, 150, 169},
};
constexpr PaperRow kPaperB[] = {
    {"SAIL", 56.34, 22, 75, 279, 290},      {"D16R", 61.86, 44, 50, 182, 277},
    {"D18R", 56.88, 47, 49, 154, 187},      {"Poptrie16", 55.53, 43, 48, 141, 167},
    {"Poptrie18", 55.82, 46, 48, 150, 166},
};

}  // namespace

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv, {{"dataset", K::kText}});
    if (args.handle_help("bench_table4_cycles",
                         "  --dataset=D  a | b | both (default both)"))
        return 0;
    // Paper: 2^24 lookups; quick default 2^22.
    const auto n = args.lookups(std::size_t{1} << 22, std::size_t{1} << 24);
    const auto seed = args.seed(0);
    const auto dataset = args.get("dataset", "both");
    if (dataset != "a" && dataset != "b" && dataset != "both") {
        std::fprintf(stderr, "bench_table4_cycles: --dataset must be a, b or both\n");
        return 2;
    }

    std::printf("Table 4: per-lookup CPU cycles by random traffic (TSC-based; the paper\n"
                "used PMCs on a single-task OS — compare distribution shape, Fig. 10)\n\n");
    ChecksumSink sink;
    benchkit::TablePrinter table({{"Algorithm", 10, false},
                                  {"Mean", 7},
                                  {"50th", 6},
                                  {"75th", 6},
                                  {"95th", 6},
                                  {"99th", 6},
                                  {"paper mean/50/95/99", 20, false}});
    benchkit::JsonRecords json;

    int which = 0;
    for (const auto& spec : {workload::real_tier1_a(), workload::real_tier1_b()}) {
        const bool wanted = dataset == "both" || (which == 0 ? dataset == "a" : dataset == "b");
        if (!wanted) {
            ++which;
            continue;
        }
        const auto d = load_dataset(spec);
        const auto s = build_structures(d);
        std::printf("\n=== %s ===\n", d.name.c_str());
        table.print_header();
        const auto* paper = which == 0 ? kPaperA : kPaperB;

        const auto row = [&](const char* name, auto&& lookup, const PaperRow& p) {
            const benchkit::Percentiles pct(sample_cycles(lookup, n, sink, seed));
            table.print_row(
                {name, benchkit::fmt(pct.mean(), 2), benchkit::fmt(pct.percentile(50), 0),
                 benchkit::fmt(pct.percentile(75), 0), benchkit::fmt(pct.percentile(95), 0),
                 benchkit::fmt(pct.percentile(99), 0),
                 benchkit::fmt(p.mean, 1) + "/" + benchkit::fmt(p.p50, 0) + "/" +
                     benchkit::fmt(p.p95, 0) + "/" + benchkit::fmt(p.p99, 0)});
            json.begin_record();
            json.field("bench", std::string_view{"table4"});
            json.field("dataset", d.name);
            json.field("algorithm", std::string_view{name});
            json.field("lookups", std::uint64_t{n});
            json.field("mean_cycles", pct.mean());
            json.field("p50_cycles", pct.percentile(50));
            json.field("p75_cycles", pct.percentile(75));
            json.field("p95_cycles", pct.percentile(95));
            json.field("p99_cycles", pct.percentile(99));
            benchkit::stamp_provenance(json);
        };
        row("SAIL", [&](std::uint32_t a) { return s.sail->lookup(Ipv4Addr{a}); }, paper[0]);
        row("D16R", [&](std::uint32_t a) { return s.d16r->lookup(Ipv4Addr{a}); }, paper[1]);
        row("D18R", [&](std::uint32_t a) { return s.d18r->lookup(Ipv4Addr{a}); }, paper[2]);
        row("Poptrie16", [&](std::uint32_t a) { return s.poptrie16->lookup_raw<true>(a); },
            paper[3]);
        row("Poptrie18", [&](std::uint32_t a) { return s.poptrie18->lookup_raw<true>(a); },
            paper[4]);
        ++which;
    }

    const auto json_path = args.json_out();
    if (!json_path.empty() && !json.write_file(json_path)) {
        std::fprintf(stderr, "bench_table4_cycles: cannot write %s\n", json_path.c_str());
        return 2;
    }
    return 0;
}
