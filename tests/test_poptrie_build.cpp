// Tests for Poptrie compilation: node layout invariants, leafvec semantics
// (§3.3), direct pointing (§3.4), statistics and small-table exhaustiveness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "analysis/audit.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/aggregate.hpp"
#include "workload/tablegen.hpp"

using namespace testhelpers;
using poptrie::Config;
using poptrie::Poptrie4;
using rib::kNoRoute;

namespace {
Prefix4 pfx(const char* text) { return *netbase::parse_prefix4(text); }

auto stat_fields(const poptrie::Stats& s)
{
    return std::array{s.internal_nodes,         s.leaves,
                      s.direct_slots,           s.leaf8_slots,
                      s.leaf_dict_entries,      s.memory_bytes,
                      s.allocated_bytes,        s.node_pool_used,
                      s.leaf_pool_used,         s.node_free_blocks,
                      s.leaf_free_blocks,       s.node_largest_free_run,
                      s.leaf_largest_free_run,  s.node_high_water,
                      s.leaf_high_water};
}

// Compiles `rib` with route aggregation (the in-place compile) and
// rib::aggregate(rib) without it: the two FIBs must be the same array for
// array, up to each pool's high water.
template <class Addr>
void expect_in_place_compile_matches(const rib::RadixTrie<Addr>& rib, Config cfg,
                                     const std::string& what)
{
    cfg.route_aggregation = true;
    const poptrie::Poptrie<Addr> in_place{rib, cfg};
    cfg.route_aggregation = false;
    const poptrie::Poptrie<Addr> from_copy{rib::aggregate(rib), cfg};

    const auto stats = in_place.stats();
    ASSERT_EQ(stat_fields(stats), stat_fields(from_copy.stats())) << what;
    const auto& a = analysis::AuditAccess::pools(in_place);
    const auto& b = analysis::AuditAccess::pools(from_copy);
    EXPECT_EQ(a.root, b.root) << what;
    EXPECT_TRUE(std::equal(a.nodes.data(), a.nodes.data() + stats.node_high_water,
                           b.nodes.data()))
        << what << ": nodes";
    EXPECT_TRUE(std::equal(a.leaves.data(), a.leaves.data() + stats.leaf_high_water,
                           b.leaves.data()))
        << what << ": leaves";
    EXPECT_TRUE(std::equal(a.direct.data(), a.direct.data() + stats.direct_slots,
                           b.direct.data()))
        << what << ": direct";
}

// The tables of test_aggregate.cpp: each corner of the classification.
std::vector<rib::RouteList<Ipv4Addr>> aggregation_corner_tables()
{
    std::vector<rib::RouteList<Ipv4Addr>> tables = {
        {},
        {{pfx("10.0.0.0/9"), 5}, {pfx("10.128.0.0/9"), 5}},
        {{pfx("10.0.0.0/9"), 5}, {pfx("10.128.0.0/9"), 6}},
        {{pfx("10.0.0.0/9"), 5}, {pfx("10.128.0.0/10"), 5}},
        {{pfx("10.0.0.0/8"), 5}, {pfx("10.1.0.0/16"), 5}},
        {{pfx("10.0.0.0/8"), 5}, {pfx("10.1.0.0/16"), 6}},
        {{pfx("10.0.0.0/8"), 1}, {pfx("10.0.0.0/9"), 2}, {pfx("10.128.0.0/9"), 2}},
        corner_case_table(),
    };
    workload::Xorshift128 rng(42);
    auto& dense = tables.emplace_back();
    for (int i = 0; i < 400; ++i) {
        const unsigned len = 16 + rng.next_below(17);
        const std::uint32_t addr = 0x0A140000u | (rng.next() & 0xFFFF);
        dense.push_back({Prefix4{Ipv4Addr{addr}, len}, static_cast<NextHop>(1 + rng.next_below(5))});
    }
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        workload::TableGenConfig gen;
        gen.seed = seed;
        gen.target_routes = 20'000;
        gen.next_hops = seed == 1 ? 100 : 7;
        gen.igp_routes = 300;
        tables.push_back(workload::generate_table(gen));
    }
    return tables;
}
}  // namespace

TEST(PoptrieBuild, EmptyTableAlwaysMisses)
{
    for (const unsigned s : {0u, 8u, 16u, 18u}) {
        Config cfg;
        cfg.direct_bits = s;
        const Poptrie4 pt{cfg};
        workload::Xorshift128 rng(1);
        for (int i = 0; i < 10000; ++i)
            ASSERT_EQ(pt.lookup(Ipv4Addr{rng.next()}), kNoRoute) << "s=" << s;
    }
}

TEST(PoptrieBuild, SingleDefaultRoute)
{
    rib::RadixTrie<Ipv4Addr> t;
    t.insert(pfx("0.0.0.0/0"), 7);
    for (const unsigned s : {0u, 16u, 18u}) {
        Config cfg;
        cfg.direct_bits = s;
        const Poptrie4 pt{t, cfg};
        EXPECT_EQ(pt.lookup(Ipv4Addr{0}), 7);
        EXPECT_EQ(pt.lookup(Ipv4Addr{0xFFFFFFFF}), 7);
        EXPECT_EQ(pt.lookup(Ipv4Addr{0x12345678}), 7);
    }
}

TEST(PoptrieBuild, SingleHostRoute)
{
    rib::RadixTrie<Ipv4Addr> t;
    t.insert(pfx("1.2.3.4/32"), 9);
    for (const unsigned s : {0u, 16u, 18u}) {
        Config cfg;
        cfg.direct_bits = s;
        const Poptrie4 pt{t, cfg};
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("1.2.3.4")), 9);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("1.2.3.5")), kNoRoute);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("1.2.3.3")), kNoRoute);
    }
}

TEST(PoptrieBuild, NodeIs24Bytes)
{
    // §3: "the total size of an internal node is only 16 bytes" basic /
    // 24 bytes with leafvec. The struct is the leafvec layout; stats()
    // accounts 16 bytes in basic mode.
    EXPECT_EQ(sizeof(Poptrie4::Node), 24u);
}

TEST(PoptrieBuild, StatsAccounting)
{
    const auto t = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 16;
    const Poptrie4 pt{t, cfg};
    const auto s = pt.stats();
    EXPECT_GT(s.internal_nodes, 0u);
    EXPECT_GT(s.leaves, 0u);
    EXPECT_EQ(s.direct_slots, std::size_t{1} << 16);
    EXPECT_EQ(s.memory_bytes,
              s.internal_nodes * 24 + s.leaves * 2 + s.direct_slots * 4);
    EXPECT_GE(s.allocated_bytes, s.internal_nodes * 24 + s.leaves * 2);
}

TEST(PoptrieBuild, BasicModeAccountsSixteenByteNodes)
{
    const auto t = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 0;
    cfg.leaf_compression = false;
    cfg.route_aggregation = false;
    const Poptrie4 pt{t, cfg};
    const auto s = pt.stats();
    EXPECT_EQ(s.memory_bytes, s.internal_nodes * 16 + s.leaves * 2);
}

TEST(PoptrieBuild, LeafCompressionShrinksLeaves)
{
    // §3.3: "reduces more than 90% of leaves" on real tables; on the corner
    // table it must at least shrink and never grow.
    const auto t = load(corner_case_table());
    Config basic;
    basic.direct_bits = 0;
    basic.leaf_compression = false;
    basic.route_aggregation = false;
    Config leafvec = basic;
    leafvec.leaf_compression = true;
    const Poptrie4 pb{t, basic};
    const Poptrie4 pl{t, leafvec};
    EXPECT_LT(pl.stats().leaves, pb.stats().leaves);
    EXPECT_EQ(pl.stats().internal_nodes, pb.stats().internal_nodes);
}

TEST(PoptrieBuild, UniformNodeCompressesToOneLeaf)
{
    // One /6 route spans a whole 64-slot root node: with leafvec the node
    // has exactly 2 leaves (miss run + route run) at s=0... the root node's
    // 64 slots are /6 blocks: slot 3 (000011b) holds the route, so runs are
    // [miss][route][miss] -> 3 leaves.
    rib::RadixTrie<Ipv4Addr> t;
    t.insert(pfx("12.0.0.0/6"), 4);
    Config cfg;
    cfg.direct_bits = 0;
    const Poptrie4 pt{t, cfg};
    const auto s = pt.stats();
    EXPECT_EQ(s.internal_nodes, 1u);
    EXPECT_EQ(s.leaves, 3u);
}

TEST(PoptrieBuild, AggregationReducesSize)
{
    workload::TableGenConfig gen;
    gen.seed = 3;
    gen.target_routes = 20'000;
    gen.next_hops = 9;
    const auto routes = workload::generate_table(gen);
    const auto t = load(routes);
    Config with;
    with.direct_bits = 16;
    Config without = with;
    without.route_aggregation = false;
    const Poptrie4 pw{t, with};
    const Poptrie4 po{t, without};
    EXPECT_LT(pw.stats().memory_bytes, po.stats().memory_bytes);
    // And identical lookup results.
    workload::Xorshift128 rng(8);
    for (int i = 0; i < 200'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(pw.lookup(a), po.lookup(a));
    }
}

TEST(PoptrieBuild, ExhaustiveOnDenseSlice)
{
    // All addresses of a densely-routed /16 and its borders, across the
    // direct-pointing boundary configurations.
    workload::Xorshift128 rng(4242);
    rib::RadixTrie<Ipv4Addr> t;
    t.insert(pfx("0.0.0.0/0"), 1);
    for (int i = 0; i < 500; ++i) {
        const unsigned len = 16 + rng.next_below(17);
        const std::uint32_t addr = 0x0A140000u | (rng.next() & 0xFFFF);
        t.insert(Prefix4{Ipv4Addr{addr}, len}, static_cast<NextHop>(2 + rng.next_below(6)));
    }
    for (const unsigned s : {0u, 12u, 16u, 18u, 20u}) {
        for (const bool lc : {true, false}) {
            Config cfg;
            cfg.direct_bits = s;
            cfg.leaf_compression = lc;
            const Poptrie4 pt{t, cfg};
            EXPECT_EQ(exhaustive_mismatches(
                          t, [&](Ipv4Addr a) { return pt.lookup(a); }, 0x0A13FF00u,
                          0x0A150100u),
                      0u)
                << "s=" << s << " leafvec=" << lc;
        }
    }
}

TEST(PoptrieBuild, SoftwarePopcountAgrees)
{
    const auto t = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 16;
    const Poptrie4 pt{t, cfg};
    workload::Xorshift128 rng(5);
    for (int i = 0; i < 100'000; ++i) {
        const std::uint32_t a = rng.next();
        ASSERT_EQ((pt.lookup_raw<true, true>(a)), (pt.lookup_raw<true, false>(a)));
    }
}

TEST(PoptrieBuild, MoveSemantics)
{
    const auto t = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 a{t, cfg};
    const auto want = a.lookup(*netbase::parse_ipv4("10.32.5.193"));
    const Poptrie4 b{std::move(a)};
    EXPECT_EQ(b.lookup(*netbase::parse_ipv4("10.32.5.193")), want);
}

TEST(PoptrieBuild, AggregatedCompileMatchesAggregatedRib)
{
    const auto tables = aggregation_corner_tables();
    for (std::size_t t = 0; t < tables.size(); ++t) {
        const auto rib = load(tables[t]);
        for (const unsigned s : {18u, 16u, 0u}) {
            for (const bool lc : {true, false}) {
                Config cfg;
                cfg.direct_bits = s;
                cfg.leaf_compression = lc;
                expect_in_place_compile_matches(
                    rib, cfg,
                    "table " + std::to_string(t) + " s=" + std::to_string(s) +
                        " leafvec=" + std::to_string(lc));
            }
        }
    }

    std::vector<rib::RouteList<netbase::Ipv6Addr>> tables6 = {{
        {*netbase::parse_prefix6("2001:db8::/33"), 3},
        {*netbase::parse_prefix6("2001:db8:8000::/33"), 3},
        {*netbase::parse_prefix6("2001:db8:1::/48"), 3},
    }};
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        workload::TableGen6Config gen;
        gen.seed = seed;
        gen.target_routes = 10'000;
        gen.next_hops = seed == 1 ? 13 : 3;
        tables6.push_back(workload::generate_table6(gen));
    }
    for (std::size_t t = 0; t < tables6.size(); ++t) {
        rib::RadixTrie<netbase::Ipv6Addr> rib;
        rib.insert_all(tables6[t]);
        for (const unsigned s : {18u, 0u}) {
            Config cfg;
            cfg.direct_bits = s;
            expect_in_place_compile_matches(
                rib, cfg, "ipv6 table " + std::to_string(t) + " s=" + std::to_string(s));
        }
    }
}
