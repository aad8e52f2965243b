// Table 6 (+ §4.10's DXR comparison) — IPv6: Poptrie6 size, compile time and
// random-lookup rate for s = 0, 16, 18 on a ~20k-prefix table, queried with
// random addresses inside 2000::/8 (each synthesized from four xorshift
// draws, as in the paper), plus D16R/D18R-style DXR6.
#include <chrono>

#include "baselines/dxr.hpp"
#include "common.hpp"
#include "workload/tablegen.hpp"

using namespace bench;
using netbase::Ipv6Addr;
using netbase::u128;

namespace {

Ipv6Addr random_2000(workload::Xorshift128& rng)
{
    u128 v = (static_cast<u128>(rng.next()) << 96) | (static_cast<u128>(rng.next()) << 64) |
             (static_cast<u128>(rng.next()) << 32) | rng.next();
    v &= ~(u128{0xFF} << 120);
    v |= u128{0x20} << 120;
    return Ipv6Addr{v};
}

}  // namespace

int main(int argc, char** argv)
{
    const benchkit::Args args(argc, argv);
    if (args.handle_help("bench_table6_ipv6")) return 0;
    const auto lookups = args.lookups(std::size_t{1} << 22, std::size_t{1} << 25);
    const auto trials = args.trials();

    std::printf("Table 6: Poptrie on the IPv6 routing table (random in 2000::/8)\n");
    std::printf("# paper: s=0: 414KiB/7.2ms/138.5 Mlps; s=16: 709KiB/4.8ms/209.8;\n"
                "#        s=18: 1437KiB/4.7ms/211.3; D16R 163.1, D18R 169.9 Mlps\n\n");
    print_host_note();
    ChecksumSink sink;

    workload::TableGen6Config gen;
    gen.seed = args.seed(1);
    const auto routes = workload::generate_table6(gen);
    rib::RadixTrie<Ipv6Addr> rib;
    rib.insert_all(routes);
    std::printf("# table: %zu prefixes, %u next hops\n\n", routes.size(), gen.next_hops);

    benchkit::TablePrinter table({{"Structure", 12, false},
                                  {"# inodes", 8},
                                  {"# leaves", 8},
                                  {"Mem[KiB]", 8},
                                  {"Compile(std)[ms]", 16},
                                  {"Rate(std)[Mlps]", 16}});
    table.print_header();

    for (const unsigned s : {0u, 16u, 18u}) {
        poptrie::Config cfg;
        cfg.leaf_dict = false;  // the paper's 16-bit leaves
        cfg.direct_bits = s;
        std::vector<double> compile_ms;
        std::unique_ptr<poptrie::Poptrie6> pt;
        for (unsigned t = 0; t < std::max(1u, trials / 2); ++t) {
            const auto t0 = std::chrono::steady_clock::now();
            pt = std::make_unique<poptrie::Poptrie6>(rib, cfg);
            compile_ms.push_back(std::chrono::duration<double, std::milli>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
        }
        const auto cms = benchkit::mean_std(compile_ms);
        const auto stats = pt->stats();
        const auto r = benchkit::measure_random_keys(
            [&](Ipv6Addr a) { return pt->lookup(a); },
            [](workload::Xorshift128& rng) { return random_2000(rng); }, lookups, trials);
        sink.add(r.checksum);
        table.print_row({"Poptrie" + std::to_string(s), benchkit::fmt_count(stats.internal_nodes),
                         benchkit::fmt_count(stats.leaves),
                         benchkit::fmt(static_cast<double>(stats.memory_bytes) / 1024.0, 0),
                         benchkit::fmt_mean_std(cms.mean, cms.std),
                         benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
    }

    for (const unsigned k : {16u, 18u}) {
        const baselines::Dxr6 dxr{rib, k};
        const auto r = benchkit::measure_random_keys(
            [&](Ipv6Addr a) { return dxr.lookup(a); },
            [](workload::Xorshift128& rng) { return random_2000(rng); }, lookups, trials);
        sink.add(r.checksum);
        table.print_row({"D" + std::to_string(k) + "R (v6)", "-",
                         benchkit::fmt_count(dxr.range_count()),
                         benchkit::fmt(static_cast<double>(dxr.memory_bytes()) / 1024.0, 0), "-",
                         benchkit::fmt_mean_std(r.mlps_mean, r.mlps_std)});
    }
    std::printf("\n# wire rate reference: 148.8 Mlps (100GbE, min packets)\n");
    return 0;
}
