// bench/common.hpp — shared scaffolding for the per-table/figure bench
// binaries: dataset construction, structure building (with §4.8 structural
// limits surfaced instead of crashing), per-lookup cycle sampling, and
// checksum consumption so the optimizer cannot elide measured loops.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/dir24.hpp"
#include "baselines/dxr.hpp"
#include "baselines/sail.hpp"
#include "baselines/treebitmap.hpp"
#include "benchkit/cli.hpp"
#include "benchkit/cycles.hpp"
#include "benchkit/runner.hpp"
#include "benchkit/stats.hpp"
#include "benchkit/table_printer.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/aggregate.hpp"
#include "rib/radix_trie.hpp"
#include "workload/datasets.hpp"
#include "workload/tablegen.hpp"
#include "workload/trafficgen.hpp"
#include "workload/updatefeed.hpp"

namespace bench {

using netbase::Ipv4Addr;
using rib::NextHop;
using Rib4 = rib::RadixTrie<Ipv4Addr>;

/// Accumulates checksums from measured loops and prints them once at exit,
/// so lookups have observable effects and cannot be dead-code-eliminated.
class ChecksumSink {
public:
    void add(std::uint64_t v) noexcept { sum_ ^= v; }
    ~ChecksumSink() { std::printf("# checksum %016llx\n", static_cast<unsigned long long>(sum_)); }

private:
    std::uint64_t sum_ = 0;
};

/// One dataset, loaded: the raw RIB (what "Radix" is measured on) and the
/// aggregated FIB source every compiled structure is built from — the paper
/// applies route aggregation RIB→FIB and notes it "is applicable to other
/// lookup technologies as well".
struct Dataset {
    std::string name;
    rib::RouteList<Ipv4Addr> routes;
    Rib4 rib;      // raw
    Rib4 fib_src;  // aggregated
};

inline Dataset load_dataset(const workload::DatasetSpec& spec)
{
    Dataset d;
    d.name = spec.name;
    d.routes = workload::make_table(spec);
    d.rib.insert_all(d.routes);
    d.fib_src = rib::aggregate(d.rib);
    return d;
}

inline Dataset load_routes(std::string name, rib::RouteList<Ipv4Addr> routes)
{
    Dataset d;
    d.name = std::move(name);
    d.routes = std::move(routes);
    d.rib.insert_all(d.routes);
    d.fib_src = rib::aggregate(d.rib);
    return d;
}

/// Compiled structures for one dataset. Baselines that hit a structural
/// limit are left empty with the reason recorded (Table 5's "N/A" cells).
struct Structures {
    std::unique_ptr<baselines::TreeBitmap16> tbm16;
    std::unique_ptr<baselines::TreeBitmap64> tbm64;
    std::unique_ptr<baselines::Sail> sail;
    std::string sail_error;
    std::unique_ptr<baselines::Dxr> d16r;
    std::unique_ptr<baselines::Dxr> d18r;
    std::string dxr_error;
    bool dxr_modified = false;  // true when the §4.8 extension was required
    std::unique_ptr<baselines::Dir24> dir24;
    std::string dir24_error;
    std::unique_ptr<poptrie::Poptrie4> poptrie0;
    std::unique_ptr<poptrie::Poptrie4> poptrie16;
    std::unique_ptr<poptrie::Poptrie4> poptrie18;
};

struct BuildSelection {
    bool treebitmap = true;
    bool sail = true;
    bool dxr = true;
    bool dir24 = false;
    bool poptrie0 = false;
    bool poptrie16 = true;
    bool poptrie18 = true;
};

inline Structures build_structures(const Dataset& d, const BuildSelection& sel = {})
{
    Structures s;
    if (sel.treebitmap) {
        s.tbm16 = std::make_unique<baselines::TreeBitmap16>(d.fib_src);
        s.tbm64 = std::make_unique<baselines::TreeBitmap64>(d.fib_src);
    }
    if (sel.sail) {
        try {
            s.sail = std::make_unique<baselines::Sail>(d.fib_src);
        } catch (const baselines::StructuralLimit& e) {
            s.sail_error = e.what();
        }
    }
    if (sel.dxr) {
        try {
            s.d16r = std::make_unique<baselines::Dxr>(d.fib_src,
                                                      baselines::DxrOptions{16, false});
            s.d18r = std::make_unique<baselines::Dxr>(d.fib_src,
                                                      baselines::DxrOptions{18, false});
        } catch (const baselines::StructuralLimit& e) {
            s.dxr_error = e.what();
            try {
                s.d16r = std::make_unique<baselines::Dxr>(d.fib_src,
                                                          baselines::DxrOptions{16, true});
                s.d18r = std::make_unique<baselines::Dxr>(d.fib_src,
                                                          baselines::DxrOptions{18, true});
                s.dxr_modified = true;
            } catch (const baselines::StructuralLimit& e2) {
                s.dxr_error = e2.what();
            }
        }
    }
    if (sel.dir24) {
        try {
            s.dir24 = std::make_unique<baselines::Dir24>(d.fib_src);
        } catch (const baselines::StructuralLimit& e) {
            s.dir24_error = e.what();
        }
    }
    const auto make_poptrie = [&](unsigned bits) {
        poptrie::Config cfg;
        cfg.direct_bits = bits;
        cfg.leaf_dict = false;  // the paper's 16-bit leaves
        return std::make_unique<poptrie::Poptrie4>(d.rib, cfg);
    };
    if (sel.poptrie0) s.poptrie0 = make_poptrie(0);
    if (sel.poptrie16) s.poptrie16 = make_poptrie(16);
    if (sel.poptrie18) s.poptrie18 = make_poptrie(18);
    return s;
}

/// Samples per-lookup TSC cycles for `lookup` over `n` addresses from a
/// fixed-seed xorshift stream (§4.6 uses "the same seed ... to precisely
/// compare different algorithms"), with the measured bracket overhead
/// subtracted. Also returns the addresses when `addresses` is non-null so
/// Fig. 11 can bucket the samples by binary radix depth.
template <class Lookup>
std::vector<std::uint64_t> sample_cycles(Lookup&& lookup, std::size_t n,
                                         ChecksumSink& sink, std::uint64_t seed = 0,
                                         std::vector<std::uint32_t>* addresses = nullptr)
{
    const auto overhead = benchkit::calibrate_tsc_overhead();
    std::vector<std::uint64_t> cycles;
    cycles.reserve(n);
    if (addresses != nullptr) addresses->reserve(n);
    workload::Xorshift128 rng(seed);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t a = rng.next();
        const auto t0 = benchkit::tsc_begin();
        sum += static_cast<std::uint64_t>(lookup(a));
        const auto t1 = benchkit::tsc_end();
        const auto raw = t1 - t0;
        cycles.push_back(raw > overhead ? raw - overhead : 0);
        if (addresses != nullptr) addresses->push_back(a);
    }
    sink.add(sum);
    return cycles;
}

/// The 100GbE minimum-packet wire rate the paper uses as its reference line.
inline constexpr double kWireRate100GbE = 148.8;

inline void print_host_note()
{
    std::printf("# Host note: absolute Mlps depend on this machine's CPU/caches; the\n"
                "# paper's i7-4770K @3.9GHz numbers are printed as 'paper' references.\n"
                "# Compare shapes and ratios, not absolutes (see EXPERIMENTS.md).\n");
}

}  // namespace bench
