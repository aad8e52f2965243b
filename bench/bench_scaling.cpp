// bench/bench_scaling.cpp — the million-route scale-out study.
//
// The paper's tables stop near 900k routes; this bench charts what happens
// on the way to 10M: random-probe Mlps and the p99.9 per-lookup cycle tail
// versus route count, across the L2 / L3 / TLB cache cliffs, for Poptrie18
// in basic and compressed-leaf (Config::leaf_dict) modes plus the SAIL /
// D18R / Dir24 baselines. Baselines that hit their structural ceilings on
// huge tables are first-class data: the row is emitted with
// {"status":"structural_limit"} and the sweep continues — a baseline that
// cannot represent the table at all IS the scalability result (§4.8 writ
// large).
//
// The two compressed-leaf acceptance gates (--gate):
//   * resident-bytes reduction >= 25% at the largest swept size;
//   * median-Mlps cost <= 10% vs basic at that size.
// Checksum equivalence basic-vs-dict is enforced at EVERY size — a wrong
// decode exits 1 before it can post a number.
//
// Emits poptrie-bench/1 records (suite component: scale; family scale.*).
#include "common.hpp"

#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"

namespace {

std::vector<std::size_t> split_sizes(const std::string& list)
{
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < list.size()) {
        const auto comma = list.find(',', pos);
        const auto end = comma == std::string::npos ? list.size() : comma;
        out.push_back(static_cast<std::size_t>(std::stoull(list.substr(pos, end - pos))));
        pos = end + 1;
    }
    return out;
}

struct Row {
    std::string structure;
    bool ok = false;
    std::string error;
    double mlps = 0;
    double mlps_std = 0;
    double p999_cycles = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t checksum = 0;
};

void emit_row(benchkit::JsonRecords& json, std::size_t size, const Row& r)
{
    json.begin_record();
    json.field("tool", std::string_view{"bench_scaling"});
    json.field("routes", std::uint64_t{size});
    json.field("structure", std::string_view{r.structure});
    json.field("status", std::string_view{r.ok ? "ok" : "structural_limit"});
    if (r.ok) {
        json.field("mlps", r.mlps);
        json.field("mlps_std", r.mlps_std);
        json.field("p999_cycles", r.p999_cycles);
        if (r.resident_bytes != 0)
            json.field("resident_bytes", std::uint64_t{r.resident_bytes});
    } else {
        json.field("error", std::string_view{r.error});
    }
    benchkit::stamp_provenance(json);
}

}  // namespace

int main(int argc, char** argv)
{
    using namespace bench;
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv,
                              {{"sizes-list", K::kText}, {"tail-samples", K::kU64},
                               {"next-hops", K::kU64}, {"no-baselines", K::kSwitch},
                               {"gate", K::kSwitch}});
    if (args.handle_help(
            "bench_scaling",
            "  --sizes-list=L    comma-separated route counts\n"
            "                    (default 100000,250000,500000,1000000,2000000,5000000)\n"
            "  --lookups=N       lookups per trial (default 2097152)\n"
            "  --trials=N        timed trials per cell (default 3)\n"
            "  --tail-samples=N  per-lookup cycle samples for p99.9 (default 262144)\n"
            "  --seed=S          table seed (default 42)\n"
            "  --next-hops=N     distinct next hops (default 100; >256 defeats the dict)\n"
            "  --no-baselines    skip SAIL/D18R/Dir24 (Poptrie-only sweep)\n"
            "  --gate            enforce the compressed-leaf acceptance gates at the\n"
            "                    largest size (>=25% bytes reduction, <=10% Mlps cost)\n"
            "  --json-out=FILE   write poptrie-bench/1 records to FILE"))
        return 0;

    const auto sizes =
        split_sizes(args.get("sizes-list", "100000,250000,500000,1000000,2000000,5000000"));
    const std::size_t lookups = args.get_u64("lookups", std::size_t{1} << 21);
    const auto trials = static_cast<unsigned>(args.get_u64("trials", 3));
    const std::size_t tail_samples = args.get_u64("tail-samples", std::size_t{1} << 18);
    const std::uint64_t seed = args.seed(42);
    const auto next_hops = static_cast<unsigned>(args.get_u64("next-hops", 100));
    const bool baselines = !args.has("no-baselines");
    const bool gate = args.has("gate");

    std::printf("# scale-out sweep: sizes={");
    for (std::size_t i = 0; i < sizes.size(); ++i)
        std::printf("%s%zu", i != 0 ? "," : "", sizes[i]);
    std::printf("} lookups=%zu x%u, tail=%zu samples, next_hops=%u\n", lookups, trials,
                tail_samples, next_hops);
    print_host_note();
    ChecksumSink sink;
    benchkit::JsonRecords json;

    benchkit::TablePrinter table({{"routes", 9},
                                  {"structure", 14, false},
                                  {"Mlps", 14},
                                  {"p99.9 cyc", 10},
                                  {"resident MiB", 12}});
    table.print_header();

    double gate_basic_mlps = 0, gate_dict_mlps = 0;
    std::uint64_t gate_basic_bytes = 0, gate_dict_bytes = 0;
    bool gate_dict_encoded = false;

    for (const std::size_t n : sizes) {
        workload::ScaledTableConfig gen;
        gen.seed = seed;
        gen.target_routes = n;
        gen.next_hops = next_hops;
        const auto routes = workload::generate_scaled_table(gen);
        Rib4 rib;
        rib.insert_all(routes);

        std::vector<Row> rows;
        const auto measure_into = [&](Row& r, auto&& lookup) {
            const auto rate = benchkit::measure_random(lookup, lookups, trials, seed + 9);
            auto cycles = sample_cycles(lookup, tail_samples, sink, seed + 11);
            const benchkit::Percentiles pct(std::move(cycles));
            r.ok = true;
            r.mlps = rate.mlps_mean;
            r.mlps_std = rate.mlps_std;
            r.p999_cycles = pct.percentile(99.9);
            r.checksum = rate.checksum;
            sink.add(rate.checksum);
        };

        // Poptrie18, basic leaves then dictionary-coded leaves; both
        // compacted so the layouts differ only in the leaf encoding.
        Row basic;
        basic.structure = "poptrie18";
        Row dict;
        dict.structure = "poptrie18-dict";
        std::uint64_t dict_slots = 0;
        {
            // quiescent: single-threaded bench — no reader thread exists, so
            // compact() at build time is safe.
            const psync::QuiescentSection quiescent;
            poptrie::Config cfg;
            cfg.direct_bits = 18;
            cfg.leaf_dict = false;
            auto pt = std::make_unique<poptrie::Poptrie4>(rib, cfg);
            pt->compact();
            basic.resident_bytes = pt->stats().memory_bytes;
            measure_into(basic, [&pt](std::uint32_t a) { return pt->lookup_raw<true>(a); });

            cfg.leaf_dict = true;
            auto ptd = std::make_unique<poptrie::Poptrie4>(rib, cfg);
            ptd->compact();
            const auto st = ptd->stats();
            dict.resident_bytes = st.memory_bytes;
            dict_slots = st.leaf8_slots;
            measure_into(dict, [&ptd](std::uint32_t a) { return ptd->lookup_raw<true>(a); });
        }
        if (basic.checksum != dict.checksum) {
            std::fprintf(stderr,
                         "bench_scaling: basic/dict checksum divergence at %zu routes "
                         "(%llx vs %llx)\n",
                         n, static_cast<unsigned long long>(basic.checksum),
                         static_cast<unsigned long long>(dict.checksum));
            return 1;
        }
        rows.push_back(basic);
        rows.push_back(dict);

        if (baselines) {
            const Rib4 fib_src = rib::aggregate(rib);
            Row sail;
            sail.structure = "sail";
            try {
                const baselines::Sail s(fib_src);
                measure_into(sail, [&s](std::uint32_t a) { return s.lookup(Ipv4Addr{a}); });
            } catch (const baselines::StructuralLimit& e) {
                sail.error = e.what();
            }
            rows.push_back(sail);

            Row d18r;
            d18r.structure = "d18r";
            try {
                const baselines::Dxr d(fib_src, baselines::DxrOptions{18, true});
                measure_into(d18r, [&d](std::uint32_t a) { return d.lookup(Ipv4Addr{a}); });
            } catch (const baselines::StructuralLimit& e) {
                d18r.error = e.what();
            }
            rows.push_back(d18r);

            Row dir24;
            dir24.structure = "dir24";
            try {
                const baselines::Dir24 d(fib_src);
                measure_into(dir24, [&d](std::uint32_t a) { return d.lookup(Ipv4Addr{a}); });
            } catch (const baselines::StructuralLimit& e) {
                dir24.error = e.what();
            }
            rows.push_back(dir24);
        }

        for (const auto& r : rows) {
            if (r.ok) {
                table.print_row(
                    {benchkit::fmt_count(n), r.structure,
                     benchkit::fmt_mean_std(r.mlps, r.mlps_std),
                     benchkit::fmt(r.p999_cycles, 0),
                     r.resident_bytes != 0
                         ? benchkit::fmt(static_cast<double>(r.resident_bytes) / (1 << 20), 2)
                         : std::string{"-"}});
            } else {
                table.print_row({benchkit::fmt_count(n), r.structure, "structural-limit",
                                 "-", "-"});
                std::printf("    %s: %s\n", r.structure.c_str(), r.error.c_str());
            }
            emit_row(json, n, r);
        }

        if (n == sizes.back()) {
            gate_basic_mlps = basic.mlps;
            gate_dict_mlps = dict.mlps;
            gate_basic_bytes = basic.resident_bytes;
            gate_dict_bytes = dict.resident_bytes;
            gate_dict_encoded = dict_slots != 0;
        }
    }

    // Headline compressed-leaf summary at the largest size.
    const double reduction =
        gate_basic_bytes != 0
            ? 1.0 - static_cast<double>(gate_dict_bytes) / static_cast<double>(gate_basic_bytes)
            : 0.0;
    const double mlps_cost =
        gate_basic_mlps > 0 ? 1.0 - gate_dict_mlps / gate_basic_mlps : 0.0;
    std::printf("\nleaf-dict at %zu routes: resident bytes %.1f%% smaller, "
                "Mlps cost %.1f%%%s\n",
                sizes.back(), reduction * 100, mlps_cost * 100,
                gate_dict_encoded ? "" : " (dict NOT encoded: >256 distinct next hops)");
    json.begin_record();
    json.field("tool", std::string_view{"bench_scaling"});
    json.field("structure", std::string_view{"summary"});
    json.field("routes", std::uint64_t{sizes.back()});
    json.field("status", std::string_view{"ok"});
    json.field("dict_bytes_reduction", reduction);
    json.field("dict_mlps_cost", mlps_cost);
    json.field("dict_encoded", gate_dict_encoded ? 1.0 : 0.0);
    benchkit::stamp_provenance(json);

    if (!args.json_out().empty() && !json.write_file(args.json_out())) {
        std::fprintf(stderr, "bench_scaling: cannot write %s\n", args.json_out().c_str());
        return 2;
    }

    if (gate) {
        bool failed = false;
        if (!gate_dict_encoded) {
            std::fprintf(stderr, "bench_scaling --gate: dictionary was not encoded\n");
            failed = true;
        }
        if (reduction < 0.25) {
            std::fprintf(stderr,
                         "bench_scaling --gate: bytes reduction %.1f%% < 25%% target\n",
                         reduction * 100);
            failed = true;
        }
        if (mlps_cost > 0.10) {
            std::fprintf(stderr, "bench_scaling --gate: Mlps cost %.1f%% > 10%% budget\n",
                         mlps_cost * 100);
            failed = true;
        }
        if (failed) return 1;
        std::printf("gate: PASS (reduction %.1f%% >= 25%%, cost %.1f%% <= 10%%)\n",
                    reduction * 100, mlps_cost * 100);
    }
    return 0;
}
