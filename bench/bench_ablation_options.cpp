// Ablation bench (beyond the paper's tables): isolates each design choice
// DESIGN.md calls out on REAL-Tier1-A:
//   * direct-pointing width sweep s in {0, 8, 12, 14, 16, 18, 20, 22}
//     (memory/speed trade-off around the paper's chosen 16/18);
//   * hardware popcnt vs the software fallback (§3.2's claim that popcnt is
//     the enabling instruction);
//   * leafvec and route aggregation on/off at s = 18 (memory vs rate);
//   * Tree BitMap stride 4 vs 6 (the "64-ary Tree BitMap still loses" point
//     of §4.5) and DIR-24-8 as the direct-pointing ancestor.
#include "baselines/multiway.hpp"
#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "common.hpp"
#include "rib/patricia.hpp"

using namespace bench;

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv, {{"only", K::kText}});
    if (args.handle_help("bench_ablation_options",
                         "  --only=S  run one section: direct | popcnt | leafvec |"
                         " strides (default all)"))
        return 0;
    const auto lookups = args.lookups(std::size_t{1} << 22, std::size_t{1} << 25);
    const auto trials = args.trials();
    const auto only = args.get("only", "all");
    if (only != "all" && only != "direct" && only != "popcnt" && only != "leafvec" &&
        only != "strides") {
        std::fprintf(stderr, "bench_ablation_options: unknown --only '%s'\n", only.c_str());
        return 2;
    }
    const auto want = [&](const char* section) { return only == "all" || only == section; };
    ChecksumSink sink;
    benchkit::JsonRecords json;
    print_host_note();

    const auto d = load_dataset(workload::real_tier1_a());

    if (want("direct")) {
    std::printf("\nAblation 1: direct-pointing width sweep (leafvec + aggregation)\n\n");
    {
        benchkit::TablePrinter table({{"s", 2},
                                      {"Mem[MiB]", 8},
                                      {"direct[MiB]", 11},
                                      {"Rate(std)[Mlps]", 16}});
        table.print_header();
        for (const unsigned s : {0u, 8u, 12u, 14u, 16u, 18u, 20u, 22u}) {
            poptrie::Config cfg;
            cfg.leaf_dict = false;  // the paper's 16-bit leaves
            cfg.direct_bits = s;
            const poptrie::Poptrie4 pt{d.rib, cfg};
            const auto r = benchkit::measure_random(
                [&](std::uint32_t a) { return pt.lookup_raw<true>(a); }, lookups, trials);
            sink.add(r.checksum);
            const auto stats = pt.stats();
            table.print_row({std::to_string(s), benchkit::fmt_mib(stats.memory_bytes),
                             benchkit::fmt_mib(stats.direct_slots * 4),
                             benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
        }
    }
    }

    if (want("popcnt")) {
    std::printf("\nAblation 2: hardware popcnt vs software fallback (Poptrie18)\n\n");
    {
        poptrie::Config cfg;
        cfg.leaf_dict = false;  // the paper's 16-bit leaves
        cfg.direct_bits = 18;
        const poptrie::Poptrie4 pt{d.rib, cfg};
        const auto hw = benchkit::measure_random(
            [&](std::uint32_t a) { return pt.lookup_raw<true, false>(a); }, lookups, trials);
        const auto sw = benchkit::measure_random(
            [&](std::uint32_t a) { return pt.lookup_raw<true, true>(a); }, lookups, trials);
        sink.add(hw.checksum + sw.checksum);
        std::printf("  popcnt instruction: %s Mlps\n",
                    benchkit::fmt_mean_std(hw.mlps_mean, hw.mlps_std).c_str());
        std::printf("  byte-table popcount: %s Mlps (%.1f%% of hardware; the\n"
                    "    Hacker's-Delight bitwise version is idiom-folded to popcnt by GCC)\n",
                    benchkit::fmt_mean_std(sw.mlps_mean, sw.mlps_std).c_str(),
                    100.0 * sw.mlps_mean / hw.mlps_mean);
        for (const auto& [variant, r] :
             {std::pair{"hardware", hw}, std::pair{"software", sw}}) {
            json.begin_record();
            json.field("bench", std::string_view{"ablation"});
            json.field("section", std::string_view{"popcnt"});
            json.field("popcount", std::string_view{variant});
            json.field("mlps", r.mlps_mean);
            json.field("mlps_std", r.mlps_std);
            benchkit::stamp_provenance(json);
        }
    }
    }

    if (want("leafvec")) {
    std::printf("\nAblation 3: leafvec / route aggregation at s = 18\n\n");
    {
        benchkit::TablePrinter table({{"leafvec", 7},
                                      {"aggregation", 11},
                                      {"# inodes", 9},
                                      {"# leaves", 10},
                                      {"Mem[MiB]", 8},
                                      {"Rate(std)[Mlps]", 16}});
        table.print_header();
        for (const bool lc : {false, true}) {
            for (const bool agg : {false, true}) {
                poptrie::Config cfg;
                cfg.leaf_dict = false;  // the paper's 16-bit leaves
                cfg.direct_bits = 18;
                cfg.leaf_compression = lc;
                cfg.route_aggregation = agg;
                const poptrie::Poptrie4 pt{d.rib, cfg};
                const auto r =
                    lc ? benchkit::measure_random(
                             [&](std::uint32_t a) { return pt.lookup_raw<true>(a); }, lookups,
                             trials)
                       : benchkit::measure_random(
                             [&](std::uint32_t a) { return pt.lookup_raw<false>(a); }, lookups,
                             trials);
                sink.add(r.checksum);
                const auto stats = pt.stats();
                table.print_row({lc ? "on" : "off", agg ? "on" : "off",
                                 benchkit::fmt_count(stats.internal_nodes),
                                 benchkit::fmt_count(stats.leaves),
                                 benchkit::fmt_mib(stats.memory_bytes),
                                 benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
            }
        }
    }
    }

    if (want("strides")) {
    std::printf("\nAblation 4: multibit-trie strides and the direct-pointing ancestor\n\n");
    {
        BuildSelection sel;
        sel.sail = false;
        sel.dxr = false;
        sel.poptrie16 = false;
        sel.poptrie18 = false;
        sel.dir24 = true;
        const auto s = build_structures(d, sel);
        benchkit::TablePrinter table(
            {{"Structure", 22, false}, {"Mem[MiB]", 8}, {"Rate(std)[Mlps]", 16}});
        table.print_header();
        const auto row = [&](const char* name, std::size_t mem, auto&& lookup) {
            const auto r = benchkit::measure_random(lookup, lookups / 2, trials);
            sink.add(r.checksum);
            table.print_row({name, benchkit::fmt_mib(mem),
                             benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
        };
        rib::PatriciaTrie<Ipv4Addr> patricia;
        patricia.insert_all(d.routes);
        row("Radix (binary)", d.rib.memory_bytes(),
            [&](std::uint32_t a) { return d.rib.lookup(Ipv4Addr{a}); });
        row("Patricia (compressed)", patricia.memory_bytes(),
            [&](std::uint32_t a) { return patricia.lookup(Ipv4Addr{a}); });
        row("Tree BitMap (16-ary)", s.tbm16->memory_bytes(),
            [&](std::uint32_t a) { return s.tbm16->lookup(Ipv4Addr{a}); });
        row("Tree BitMap (64-ary)", s.tbm64->memory_bytes(),
            [&](std::uint32_t a) { return s.tbm64->lookup(Ipv4Addr{a}); });
        const baselines::MultiwayTrie4 naive{d.fib_src};
        row("64-ary trie (Fig. 1)", naive.memory_bytes(),
            [&](std::uint32_t a) { return naive.lookup(Ipv4Addr{a}); });
        row("DIR-24-8-BASIC", s.dir24->memory_bytes(),
            [&](std::uint32_t a) { return s.dir24->lookup(Ipv4Addr{a}); });
    }
    }

    const auto json_path = args.json_out();
    if (!json_path.empty() && !json.write_file(json_path)) {
        std::fprintf(stderr, "bench_ablation_options: cannot write %s\n", json_path.c_str());
        return 2;
    }
    return 0;
}
