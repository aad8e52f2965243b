// Differential sweep: the paper validated its implementations by "comparing
// all lookup results of all algorithms for each address of the whole IPv4
// space". This is the repository's equivalent: for a parameterized set of
// seeds and table shapes, EVERY structure (radix, Patricia, Tree BitMap
// 16/64, SAIL, D16R/D18R plain+modified, DIR-24-8, Poptrie in four configs)
// is built from the same table — raw and aggregated — and must agree at
// every route boundary and on a large random sample. One test failure here
// localizes to whichever structure disagrees with the radix oracle.
#include <gtest/gtest.h>

#include "baselines/dir24.hpp"
#include "baselines/dxr.hpp"
#include "baselines/lulea.hpp"
#include "baselines/sail.hpp"
#include "baselines/treebitmap.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/aggregate.hpp"
#include "rib/patricia.hpp"
#include "workload/tablegen.hpp"

using namespace testhelpers;

namespace {

struct Shape {
    std::uint64_t seed;
    std::size_t routes;
    unsigned next_hops;
    std::size_t igp;
};

class Differential : public testing::TestWithParam<Shape> {};

TEST_P(Differential, AllStructuresAgree)
{
    const auto shape = GetParam();
    workload::TableGenConfig gen;
    gen.seed = shape.seed;
    gen.target_routes = shape.routes;
    gen.next_hops = shape.next_hops;
    gen.igp_routes = shape.igp;
    const auto routes = workload::generate_table(gen);
    const auto oracle = load(routes);
    const auto aggregated = rib::aggregate(oracle);

    rib::PatriciaTrie<Ipv4Addr> patricia;
    patricia.insert_all(routes);
    const baselines::TreeBitmap16 tbm16{aggregated};
    const baselines::TreeBitmap64 tbm64{aggregated};
    const baselines::Sail sail{aggregated};
    const baselines::Dxr d16r{aggregated, {.direct_bits = 16}};
    const baselines::Dxr d18r{aggregated, {.direct_bits = 18}};
    const baselines::Dxr d18m{aggregated, {.direct_bits = 18, .modified = true}};
    const baselines::Dir24 dir24{aggregated};
    const baselines::Lulea lulea{aggregated};
    poptrie::Config c0;
    c0.direct_bits = 0;
    poptrie::Config c18;
    c18.direct_bits = 18;
    poptrie::Config c18basic;
    c18basic.direct_bits = 18;
    c18basic.leaf_compression = false;
    c18basic.route_aggregation = false;
    c18basic.leaf_dict = false;
    poptrie::Config c16raw;
    c16raw.direct_bits = 16;
    c16raw.route_aggregation = false;
    const poptrie::Poptrie4 p0{oracle, c0};
    const poptrie::Poptrie4 p18{oracle, c18};
    const poptrie::Poptrie4 p18b{oracle, c18basic};
    const poptrie::Poptrie4 p16r{oracle, c16raw};

    const auto check_all = [&](Ipv4Addr a) {
        const auto want = oracle.lookup(a);
        ASSERT_EQ(patricia.lookup(a), want) << "patricia " << netbase::to_string(a);
        ASSERT_EQ(tbm16.lookup(a), want) << "tbm16 " << netbase::to_string(a);
        ASSERT_EQ(tbm64.lookup(a), want) << "tbm64 " << netbase::to_string(a);
        ASSERT_EQ(sail.lookup(a), want) << "sail " << netbase::to_string(a);
        ASSERT_EQ(d16r.lookup(a), want) << "d16r " << netbase::to_string(a);
        ASSERT_EQ(d18r.lookup(a), want) << "d18r " << netbase::to_string(a);
        ASSERT_EQ(d18m.lookup(a), want) << "d18r-mod " << netbase::to_string(a);
        ASSERT_EQ(dir24.lookup(a), want) << "dir24 " << netbase::to_string(a);
        ASSERT_EQ(lulea.lookup(a), want) << "lulea " << netbase::to_string(a);
        ASSERT_EQ(p0.lookup(a), want) << "poptrie0 " << netbase::to_string(a);
        ASSERT_EQ(p18.lookup(a), want) << "poptrie18 " << netbase::to_string(a);
        ASSERT_EQ(p18b.lookup(a), want) << "poptrie18-basic " << netbase::to_string(a);
        ASSERT_EQ(p16r.lookup(a), want) << "poptrie16-raw " << netbase::to_string(a);
    };

    for (const auto& r : routes) {
        const auto lo = r.prefix.first_address().value();
        const auto hi = r.prefix.last_address().value();
        check_all(Ipv4Addr{lo});
        check_all(Ipv4Addr{hi});
        check_all(Ipv4Addr{lo - 1});
        check_all(Ipv4Addr{hi + 1});
    }
    workload::Xorshift128 rng(shape.seed * 7919);
    for (int i = 0; i < 150'000; ++i) check_all(Ipv4Addr{rng.next()});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Differential,
    testing::Values(Shape{101, 2'000, 5, 0},       // small, few hops
                    Shape{102, 2'000, 500, 100},   // hop-diverse
                    Shape{103, 20'000, 13, 1'500}, // tier1-like, IGP-heavy
                    Shape{104, 20'000, 300, 0},    // RouteViews-like
                    Shape{105, 60'000, 60, 3'000}, // larger
                    Shape{106, 500, 2, 50}),       // tiny, near-binary hops
    [](const testing::TestParamInfo<Shape>& info) {
        return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
