// Tests for Poptrie compilation: node layout invariants, leafvec semantics
// (§3.3), direct pointing (§3.4), statistics and small-table exhaustiveness.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>

#include "alloc/arena.hpp"
#include "analysis/audit.hpp"
#include "helpers.hpp"
#include "poptrie/leaf_coder.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/aggregate.hpp"
#include "router/router.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using analysis::AuditAccess;
using netbase::Ipv6Addr;
using poptrie::Config;
using poptrie::Poptrie4;
using poptrie::Poptrie6;
using rib::kNoRoute;

namespace {
Prefix4 pfx(const char* text) { return *netbase::parse_prefix4(text); }

auto stat_fields(const poptrie::Stats& s)
{
    return std::array{s.internal_nodes,         s.leaves,
                      s.direct_slots,           s.leaf8_slots,
                      s.leaf_dict_entries,      s.node_bytes,
                      s.leaf_bytes,             s.leaf8_bytes,
                      s.dict_bytes,             s.direct_bytes,
                      s.memory_bytes,           s.allocated_bytes,
                      s.node_pool_used,         s.leaf_pool_used,
                      s.node_free_blocks,       s.leaf_free_blocks,
                      s.node_largest_free_run,  s.leaf_largest_free_run,
                      s.node_high_water,        s.leaf_high_water};
}

// The two FIBs hold the same arrays, each up to its pool's high water (the
// code array and the dictionary whole).
template <class Addr>
void expect_same_arrays(const poptrie::Poptrie<Addr>& x, const poptrie::Poptrie<Addr>& y,
                        const std::string& what)
{
    const auto stats = x.stats();
    ASSERT_EQ(stat_fields(stats), stat_fields(y.stats())) << what;
    const auto& a = AuditAccess::pools(x);
    const auto& b = AuditAccess::pools(y);
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
    EXPECT_TRUE(std::equal(a.leaves8.begin(), a.leaves8.end(), b.leaves8.begin(),
                           b.leaves8.end()))
        << what << ": codes";
    EXPECT_TRUE(std::equal(a.leaf_dict.begin(), a.leaf_dict.end(), b.leaf_dict.begin(),
                           b.leaf_dict.end()))
        << what << ": dictionary";
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
    expect_same_arrays(in_place, from_copy, what);
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
    for (const bool dict : {false, true}) {
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        const Poptrie4 pt{t, cfg};
        const auto s = pt.stats();
        EXPECT_GT(s.internal_nodes, 0u);
        EXPECT_GT(s.leaves, 0u);
        EXPECT_EQ(s.direct_slots, std::size_t{1} << 16);
        EXPECT_EQ(s.leaf8_slots, dict ? s.leaves : 0u);
        // Under leaf_dict, childless direct-slot roots are folded runs:
        // 8 leafvec bytes each, and no node.
        EXPECT_EQ(s.folded_roots > 0, dict);
        EXPECT_EQ(s.memory_bytes,
                  s.internal_nodes * 24 +
                      (dict ? s.leaves + s.folded_roots * 8 + s.leaf_dict_entries * 2
                            : s.leaves * 2) +
                      s.direct_slots * 4)
            << "leaf_dict=" << dict;
        EXPECT_GE(s.allocated_bytes,
                  s.internal_nodes * 24 + (dict ? s.leaves : s.leaves * 2));
    }
}

TEST(PoptrieBuild, BasicModeAccountsSixteenByteNodes)
{
    const auto t = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 0;
    cfg.leaf_compression = false;
    cfg.route_aggregation = false;
    cfg.leaf_dict = false;
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
                for (const bool dict : {true, false}) {
                    Config cfg;
                    cfg.direct_bits = s;
                    cfg.leaf_compression = lc;
                    cfg.leaf_dict = dict;
                    expect_in_place_compile_matches(
                        rib, cfg,
                        "table " + std::to_string(t) + " s=" + std::to_string(s) +
                            " leafvec=" + std::to_string(lc) + " dict=" + std::to_string(dict));
                }
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

// --- dictionary-coded leaves from the compile (Config::leaf_dict) ----------

namespace {

rib::RouteList<Ipv4Addr> dict_table4()
{
    workload::TableGenConfig gen;
    gen.seed = 11;
    gen.target_routes = 20'000;
    gen.next_hops = 40;
    gen.igp_routes = 300;
    return workload::generate_table(gen);
}

rib::RouteList<Ipv6Addr> dict_table6()
{
    workload::TableGen6Config gen;
    gen.seed = 12;
    gen.target_routes = 5'000;
    return workload::generate_table6(gen);
}

template <class Addr>
rib::RadixTrie<Addr> rib_of(const rib::RouteList<Addr>& routes)
{
    rib::RadixTrie<Addr> t;
    t.insert_all(routes);
    return t;
}

/// Every route's boundary addresses (and one address past each side), plus
/// `n_random` random keys.
template <class Addr>
std::vector<Addr> probe_set(const rib::RouteList<Addr>& routes, std::size_t n_random)
{
    using V = typename Addr::value_type;
    std::vector<Addr> out;
    for (const auto& r : routes) {
        const V lo = r.prefix.first_address().value();
        const V hi = r.prefix.last_address().value();
        for (const V v : {lo, hi, static_cast<V>(lo - 1), static_cast<V>(hi + 1)})
            out.push_back(Addr{v});
    }
    workload::Xorshift128 rng(77);
    for (std::size_t i = 0; i < n_random; ++i) {
        V key = rng.next();
        if constexpr (Addr::kWidth == 128)
            key = (key << 96) | (V{rng.next()} << 64) | (V{rng.next()} << 32) | rng.next();
        out.push_back(Addr{key});
    }
    return out;
}

/// Counts the probes where `pt` disagrees with `oracle` or with `plain`.
template <class Addr>
std::size_t mismatches(const poptrie::Poptrie<Addr>& pt, const poptrie::Poptrie<Addr>& plain,
                       const rib::RadixTrie<Addr>& oracle, const std::vector<Addr>& probes)
{
    std::size_t bad = 0;
    for (const Addr a : probes) {
        const auto got = pt.lookup(a);
        if (got != oracle.lookup(a) || got != plain.lookup(a)) ++bad;
    }
    return bad;
}

/// The FIB stores codes and folded runs only, its dictionary ascends and
/// holds exactly the values the codes use, and the audit is clean.
template <class Addr>
void expect_codes_only(const poptrie::Poptrie<Addr>& pt, const rib::RadixTrie<Addr>& rib,
                       const std::string& what)
{
    const auto st = pt.stats();
    EXPECT_GT(st.leaves, 0u) << what;
    EXPECT_EQ(st.leaf8_slots, st.leaves) << what;
    EXPECT_EQ(st.leaf_pool_used, 0u) << what;
    const auto& pools = AuditAccess::pools(pt);
    EXPECT_EQ(pools.leaves8.size(), st.leaves + 8 * st.folded_roots) << what;
    EXPECT_EQ(std::adjacent_find(pools.leaf_dict.begin(), pools.leaf_dict.end(),
                                 std::greater_equal<>()),
              pools.leaf_dict.end())
        << what << ": dictionary not strictly ascending";
    // Every byte is a code, except the folded runs' leafvecs.
    std::vector<bool> leafvec_byte(pools.leaves8.size(), false);
    std::size_t folded = 0;
    for (const std::uint32_t slot : pools.direct) {
        if ((slot >> 30) != 3) continue;
        ++folded;
        std::fill_n(leafvec_byte.begin() + (slot & poptrie::kFoldedOffsetMask), 8, true);
    }
    EXPECT_EQ(folded, st.folded_roots) << what;
    std::vector<bool> used(pools.leaf_dict.size(), false);
    for (std::size_t i = 0; i < pools.leaves8.size(); ++i) {
        if (leafvec_byte[i]) continue;
        ASSERT_LT(pools.leaves8[i], used.size()) << what;
        used[pools.leaves8[i]] = true;
    }
    EXPECT_EQ(std::count(used.begin(), used.end(), false), 0) << what << ": unused entries";
    const auto report = analysis::audit(pt, rib);
    EXPECT_TRUE(report.ok()) << what << "\n" << report.summary();
}

/// Per-array bytes, and their sum.
void expect_bytes_add_up(const poptrie::Stats& s, const std::string& what)
{
    EXPECT_EQ(s.node_bytes, s.internal_nodes * 24) << what;
    EXPECT_EQ(s.leaf_bytes, (s.leaves - s.leaf8_slots) * 2) << what;
    EXPECT_EQ(s.leaf8_bytes, s.leaf8_slots) << what;
    EXPECT_EQ(s.folded_bytes, s.folded_roots * 8) << what;
    EXPECT_EQ(s.dict_bytes, s.leaf_dict_entries * 2) << what;
    EXPECT_EQ(s.direct_bytes, s.direct_slots * 4) << what;
    EXPECT_EQ(s.node_bytes + s.leaf_bytes + s.leaf8_bytes + s.folded_bytes + s.dict_bytes +
                  s.direct_bytes,
              s.memory_bytes)
        << what;
}

/// Re-announces every third route with another hop and withdraws the one
/// after it, through apply().
template <class Addr>
void churn(poptrie::Poptrie<Addr>& pt, rib::RadixTrie<Addr>& rib,
           const rib::RouteList<Addr>& routes)
{
    for (std::size_t i = 0; i + 1 < routes.size(); i += 3) {
        pt.apply(rib, routes[i].prefix, static_cast<NextHop>(routes[i].next_hop % 7 + 1));
        pt.apply(rib, routes[i + 1].prefix, kNoRoute);
    }
}

/// `count` /24s under 10.0.0.0/8 with hops 1..count.
rib::RadixTrie<Ipv4Addr> distinct_hops(unsigned count)
{
    rib::RadixTrie<Ipv4Addr> t;
    for (unsigned i = 0; i < count; ++i)
        t.insert(Prefix4{Ipv4Addr{0x0A000000u + (i << 8)}, 24}, static_cast<NextHop>(1 + i));
    return t;
}

}  // namespace

TEST(PoptrieBuildDict, DefaultCompileHoldsCodesOnly)
{
    EXPECT_TRUE(Config{}.leaf_dict);
    const auto rib4 = rib_of(dict_table4());
    const auto rib6 = rib_of(dict_table6());
    for (const unsigned s : {0u, 16u, 18u}) {
        Config cfg;
        cfg.direct_bits = s;
        expect_codes_only(Poptrie4{rib4, cfg}, rib4, "ipv4 s=" + std::to_string(s));
        expect_codes_only(Poptrie6{rib6, cfg}, rib6, "ipv6 s=" + std::to_string(s));
    }
}

TEST(PoptrieBuildDict, MoreThan256ValuesFallBackTo16BitRuns)
{
    // 255 hops and the miss value are 256 distinct leaf values: coded. With
    // 257 hops the compile and compact() lay out 16-bit runs, the same
    // arrays a leaf_dict = false compile gives.
    for (const unsigned s : {0u, 18u}) {
        SCOPED_TRACE("s=" + std::to_string(s));
        Config cfg;
        cfg.direct_bits = s;
        Config plain = cfg;
        plain.leaf_dict = false;

        const auto fits = distinct_hops(255);
        const Poptrie4 coded{fits, cfg};
        EXPECT_EQ(coded.stats().leaf_dict_entries, 256u);
        expect_codes_only(coded, fits, "256 values");

        const auto over = distinct_hops(257);
        Poptrie4 pt{over, cfg};
        const Poptrie4 reference{over, plain};
        EXPECT_EQ(pt.stats().leaf8_slots, 0u);
        EXPECT_EQ(pt.stats().leaf_dict_entries, 0u);
        expect_same_arrays(pt, reference, "257 hops");
        EXPECT_EQ(exhaustive_mismatches(
                      over, [&](Ipv4Addr a) { return pt.lookup(a); }, 0x09FFFF00u, 0x0A010100u),
                  0u);
        EXPECT_TRUE(analysis::audit(pt, over).ok());
        {
            // quiescent: single-threaded test — no reader exists.
            const psync::QuiescentSection quiescent;
            pt.compact();
        }
        EXPECT_EQ(pt.stats().leaf8_slots, 0u);
        EXPECT_EQ(exhaustive_mismatches(
                      over, [&](Ipv4Addr a) { return pt.lookup(a); }, 0x09FFFF00u, 0x0A010100u),
                  0u);

        // A coded FIB that updates take past 256 values compacts into 16-bit
        // runs: its folded roots (the four /18 blocks' at s = 18) go back to
        // being nodes.
        auto grown = distinct_hops(255);
        Poptrie4 churned{grown, cfg};
        EXPECT_EQ(churned.stats().folded_roots, s == 0 ? 0u : 4u);
        churned.apply(grown, Prefix4{Ipv4Addr{0x0A00FF00u}, 24}, 300);
        churned.apply(grown, Prefix4{Ipv4Addr{0x0A010000u}, 24}, 301);
        EXPECT_EQ(churned.stats().folded_roots, s == 0 ? 0u : 3u);
        {
            // quiescent: single-threaded test — no reader exists.
            const psync::QuiescentSection quiescent;
            churned.compact();
        }
        EXPECT_EQ(churned.stats().folded_roots, 0u);
        EXPECT_EQ(churned.stats().leaf8_slots, 0u);
        EXPECT_TRUE(analysis::audit(churned, grown).ok());
        EXPECT_EQ(exhaustive_mismatches(
                      grown, [&](Ipv4Addr a) { return churned.lookup(a); }, 0x09FFFF00u,
                      0x0A010100u),
                  0u);
    }
}

TEST(PoptrieBuildDict, CoderStopsAtThe257thValue)
{
    // The coded pass ends at the run that brings a 257th distinct value, and
    // that run leaves no codes behind: a table past the dictionary pays only
    // the partial pass before its 16-bit compile.
    using poptrie::detail::LeafCoder;
    alloc::Arena arena;
    LeafCoder::CodePool codes{&arena, std::size_t{1} << 16};
    LeafCoder coder{codes};
    rib::NextHop run[64];
    for (std::uint32_t r = 0; r < 4; ++r) {
        // Four runs of 64 new values each, met in descending order.
        for (std::uint32_t i = 0; i < 64; ++i)
            run[i] = static_cast<rib::NextHop>(1000 - 64 * r - i);
        EXPECT_EQ(coder.place(run, 64), 64 * r);
    }
    run[0] = 1000;  // met before
    run[1] = 7;     // the 257th
    EXPECT_THROW(coder.place(run, 2), LeafCoder::Overflow);
    EXPECT_EQ(codes.size(), 256u);
}

TEST(PoptrieBuildDict, LookupsMatchThePlainCompileAndTheRib)
{
    const auto routes4 = dict_table4();
    const auto routes6 = dict_table6();
    const auto rib4 = rib_of(routes4);
    const auto rib6 = rib_of(routes6);
    const auto probes4 = probe_set(routes4, 100'000);
    const auto probes6 = probe_set(routes6, 50'000);
    for (const unsigned s : {0u, 16u, 18u}) {
        for (const bool leafvec : {true, false}) {
            const std::string what =
                "s=" + std::to_string(s) + (leafvec ? " leafvec" : " basic");
            Config cfg;
            cfg.direct_bits = s;
            cfg.leaf_compression = leafvec;
            Config plain = cfg;
            plain.leaf_dict = false;

            const Poptrie4 pt4{rib4, cfg};
            EXPECT_EQ(pt4.stats().leaf8_slots, pt4.stats().leaves) << what;
            EXPECT_EQ(mismatches(pt4, Poptrie4{rib4, plain}, rib4, probes4), 0u) << what;

            const Poptrie6 pt6{rib6, cfg};
            EXPECT_EQ(pt6.stats().leaf8_slots, pt6.stats().leaves) << what;
            EXPECT_EQ(mismatches(pt6, Poptrie6{rib6, plain}, rib6, probes6), 0u) << what;
        }
    }
}

TEST(PoptrieBuildDict, RouterLoadServesCodes)
{
    const auto routes = dict_table4();
    router::Router4 r;
    {
        // quiescent: single-threaded test — no reader exists.
        const psync::QuiescentSection quiescent;
        r.load(routes, [](NextHop hop) {
            return router::Adjacency<Ipv4Addr>{Ipv4Addr{0x0A000000u + hop}, "eth0"};
        });
    }
    const auto st = r.fib().stats();
    EXPECT_GT(st.leaves, 0u);
    EXPECT_EQ(st.leaf8_slots, st.leaves);
    EXPECT_EQ(st.leaf_pool_used, 0u);
    EXPECT_TRUE(analysis::audit(r.fib(), r.rib()).ok());
}

TEST(PoptrieBuildDict, ChurnOverACompiledDictionary)
{
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    const auto routes = dict_table4();
    auto rib = rib_of(routes);
    const Poptrie4 compiled{rib, Config{}};
    Poptrie4 pt{rib, Config{}};
    workload::UpdateFeedConfig feed;
    feed.updates = 5'000;
    feed.next_hops = 40;
    std::size_t applied = 0;
    for (const auto& ev : workload::make_update_feed(routes, feed)) {
        pt.apply(rib, ev.prefix, ev.next_hop);
        if (++applied % 1'000 != 0) continue;
        // The audit's leaf8 count check ties the coded runs still reachable
        // to the trie's accounting, as the updater drops them.
        const auto report = analysis::audit(pt, rib);
        ASSERT_TRUE(report.ok()) << "after " << applied << " updates\n" << report.summary();
    }
    pt.drain();
    const auto st = pt.stats();
    EXPECT_GT(st.leaf8_slots, 0u);
    EXPECT_LT(st.leaf8_slots, compiled.stats().leaf8_slots);
    EXPECT_GT(st.leaf_pool_used, 0u);
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return pt.lookup(a); }, 100'000),
              0u);
    EXPECT_EQ(mismatches(pt, Poptrie4{rib, Config{}}, rib, probe_set(routes, 0)), 0u);
    EXPECT_TRUE(analysis::audit(pt, rib).ok());

    // The full audit, and compact()'s fixed point: compacting once more
    // changes nothing (analysis::layout_difference).
    pt.compact();
    const auto report = analysis::audit(pt, rib);
    EXPECT_TRUE(report.ok()) << report.summary();
    const analysis::Layout compacted{pt};
    pt.compact();
    EXPECT_EQ(analysis::layout_difference(analysis::Layout{pt}, compacted), "");
    expect_codes_only(pt, rib, "recompacted");
}

TEST(PoptrieBuildDict, StructureBytesAddUpArrayByArray)
{
    // quiescent: single-threaded test — no reader exists.
    const psync::QuiescentSection quiescent;
    const auto routes4 = dict_table4();
    const auto routes6 = dict_table6();
    Config plain;
    plain.leaf_dict = false;

    auto rib4 = rib_of(routes4);
    expect_bytes_add_up(Poptrie4{rib4, plain}.stats(), "ipv4 plain");
    Poptrie4 pt4{rib4, Config{}};
    expect_bytes_add_up(pt4.stats(), "ipv4 compiled");
    EXPECT_GT(pt4.stats().leaf8_bytes, 0u);
    pt4.compact();
    expect_bytes_add_up(pt4.stats(), "ipv4 compacted");
    churn(pt4, rib4, routes4);
    expect_bytes_add_up(pt4.stats(), "ipv4 churned");
    EXPECT_GT(pt4.stats().leaf_bytes, 0u);
    EXPECT_GT(pt4.stats().leaf8_bytes, 0u);

    auto rib6 = rib_of(routes6);
    expect_bytes_add_up(Poptrie6{rib6, plain}.stats(), "ipv6 plain");
    Poptrie6 pt6{rib6, Config{}};
    expect_bytes_add_up(pt6.stats(), "ipv6 compiled");
    pt6.compact();
    expect_bytes_add_up(pt6.stats(), "ipv6 compacted");
    churn(pt6, rib6, routes6);
    expect_bytes_add_up(pt6.stats(), "ipv6 churned");
    EXPECT_GT(pt6.stats().leaf_bytes, 0u);
    EXPECT_GT(pt6.stats().leaf8_bytes, 0u);
}
