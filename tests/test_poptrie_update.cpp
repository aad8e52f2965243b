// Tests for §3.5 incremental update: after every applied change the FIB must
// resolve exactly like the updated RIB (and like a freshly rebuilt FIB), the
// update counters must move, and retired memory must be reclaimed.
#include <gtest/gtest.h>

#include "analysis/audit.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using poptrie::Config;
using poptrie::Poptrie4;
using rib::kNoRoute;

namespace {
Prefix4 pfx(const char* text) { return *netbase::parse_prefix4(text); }

void expect_equivalent(const rib::RadixTrie<Ipv4Addr>& rib, const Poptrie4& pt,
                       std::size_t n_random, std::uint64_t seed)
{
    workload::Xorshift128 rng(seed);
    for (std::size_t i = 0; i < n_random; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(pt.lookup(a), rib.lookup(a)) << netbase::to_string(a);
    }
}
}  // namespace

TEST(PoptrieUpdate, InsertIntoEmpty)
{
    rib::RadixTrie<Ipv4Addr> rib;
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};
    pt.apply(rib, pfx("10.0.0.0/8"), 3);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.2.3")), 3);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("11.0.0.0")), kNoRoute);
    EXPECT_EQ(pt.update_counters().updates, 1u);
}

TEST(PoptrieUpdate, WithdrawRestoresParent)
{
    rib::RadixTrie<Ipv4Addr> rib;
    rib.insert(pfx("10.0.0.0/8"), 1);
    rib.insert(pfx("10.1.0.0/16"), 2);
    Config cfg;
    cfg.direct_bits = 18;
    Poptrie4 pt{rib, cfg};
    pt.apply(rib, pfx("10.1.0.0/16"), kNoRoute);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.2.3")), 1);
    expect_equivalent(rib, pt, 100'000, 1);
}

TEST(PoptrieUpdate, ShortPrefixSpansManyDirectSlots)
{
    rib::RadixTrie<Ipv4Addr> rib;
    rib.insert(pfx("10.32.5.0/24"), 2);
    Config cfg;
    cfg.direct_bits = 18;
    Poptrie4 pt{rib, cfg};
    pt.apply(rib, pfx("12.0.0.0/7"), 9);  // covers 2^11 direct slots
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("12.200.1.1")), 9);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("13.255.255.255")), 9);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("14.0.0.0")), kNoRoute);
    pt.apply(rib, pfx("12.0.0.0/7"), kNoRoute);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("12.200.1.1")), kNoRoute);
    expect_equivalent(rib, pt, 100'000, 2);
}

TEST(PoptrieUpdate, DefaultRouteUpdate)
{
    rib::RadixTrie<Ipv4Addr> rib;
    rib.insert(pfx("10.0.0.0/8"), 1);
    for (const unsigned s : {0u, 16u}) {
        rib::RadixTrie<Ipv4Addr> r2;
        r2.insert(pfx("10.0.0.0/8"), 1);
        Config cfg;
        cfg.direct_bits = s;
        Poptrie4 pt{r2, cfg};
        pt.apply(r2, pfx("0.0.0.0/0"), 5);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("200.1.1.1")), 5);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.1.1")), 1);
        pt.apply(r2, pfx("0.0.0.0/0"), kNoRoute);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("200.1.1.1")), kNoRoute);
    }
}

TEST(PoptrieUpdate, NextHopChangeOnly)
{
    // A pure path change keeps every node shape identical: the in-place
    // base swap path. Counters must show no direct-slot replacement. With
    // dictionary-coded leaves the /24's block is a folded run, which the
    // first update rebuilds as a node (one direct store); the next change
    // then takes the in-place path on that node.
    for (const bool dict : {false, true}) {
        SCOPED_TRACE(dict ? "leaf_dict" : "16-bit leaves");
        rib::RadixTrie<Ipv4Addr> rib;
        rib.insert(pfx("10.0.0.0/8"), 1);
        rib.insert(pfx("10.32.5.0/24"), 2);
        Config cfg;
        cfg.direct_bits = 18;
        cfg.leaf_dict = dict;
        Poptrie4 pt{rib, cfg};
        EXPECT_EQ(pt.stats().folded_roots, dict ? 1u : 0u);
        const auto before = pt.update_counters().direct_stores;
        pt.apply(rib, pfx("10.32.5.0/24"), 7);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.32.5.99")), 7);
        EXPECT_EQ(pt.update_counters().direct_stores, before + (dict ? 1u : 0u));
        EXPECT_EQ(pt.stats().folded_roots, 0u);
        pt.apply(rib, pfx("10.32.5.0/24"), 8);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.32.5.99")), 8);
        EXPECT_EQ(pt.update_counters().direct_stores, before + (dict ? 1u : 0u));
        expect_equivalent(rib, pt, 50'000, 3);
    }
}

TEST(PoptrieUpdate, HostRouteChurnDeepensAndCollapses)
{
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    rib::RadixTrie<Ipv4Addr> rib;
    rib.insert(pfx("10.0.0.0/8"), 1);
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};
    const auto nodes_before = pt.stats().internal_nodes;
    pt.apply(rib, pfx("10.1.2.3/32"), 4);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.2.3")), 4);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.2.2")), 1);
    EXPECT_GT(pt.stats().internal_nodes, nodes_before);
    pt.apply(rib, pfx("10.1.2.3/32"), kNoRoute);
    pt.drain();
    EXPECT_EQ(pt.stats().internal_nodes, nodes_before);  // subtree collapsed
    expect_equivalent(rib, pt, 50'000, 4);
}

// The big one: random update feeds against every config; after every event
// the FIB must match the RIB at the changed prefix's boundaries, and at the
// end everywhere (sampled).
struct UpdateCase {
    unsigned direct_bits;
    bool leaf_compression;
    bool route_aggregation;
};

class PoptrieUpdateFeed : public testing::TestWithParam<UpdateCase> {};

TEST_P(PoptrieUpdateFeed, StaysEquivalentThroughFeed)
{
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    const auto param = GetParam();
    workload::TableGenConfig gen;
    gen.seed = 99;
    gen.target_routes = 20'000;
    gen.next_hops = 17;
    gen.igp_routes = 1'000;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);
    Config cfg;
    cfg.direct_bits = param.direct_bits;
    cfg.leaf_compression = param.leaf_compression;
    cfg.route_aggregation = param.route_aggregation;
    Poptrie4 pt{rib, cfg};

    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 2'000;
    ucfg.next_hops = 17;
    ucfg.seed = 1 + param.direct_bits;
    const auto feed = workload::make_update_feed(routes, ucfg);
    for (const auto& ev : feed) {
        pt.apply(rib, ev.prefix, ev.next_hop);
        const auto lo = ev.prefix.first_address().value();
        const auto hi = ev.prefix.last_address().value();
        for (const auto a : {lo, hi, lo ^ 1u, hi ^ 1u, lo - 1, hi + 1}) {
            ASSERT_EQ(pt.lookup(Ipv4Addr{a}), rib.lookup(Ipv4Addr{a}))
                << netbase::to_string(ev.prefix) << " probe " << netbase::to_string(Ipv4Addr{a});
        }
    }
    expect_equivalent(rib, pt, 300'000, 5);
    EXPECT_EQ(pt.update_counters().updates, feed.size());
    pt.drain();
    POPTRIE_AUDIT_ASSERT(pt, rib);

    // Equivalent to a from-scratch rebuild.
    const Poptrie4 rebuilt{rib, cfg};
    workload::Xorshift128 rng(6);
    for (int i = 0; i < 100'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(pt.lookup(a), rebuilt.lookup(a));
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, PoptrieUpdateFeed,
                         testing::Values(UpdateCase{0, true, true}, UpdateCase{0, false, false},
                                         UpdateCase{16, true, true},
                                         UpdateCase{16, false, true},
                                         UpdateCase{18, true, false},
                                         UpdateCase{18, true, true}),
                         [](const testing::TestParamInfo<UpdateCase>& info) {
                             return "s" + std::to_string(info.param.direct_bits) +
                                    (info.param.leaf_compression ? "_leafvec" : "_basic") +
                                    (info.param.route_aggregation ? "_agg" : "_raw");
                         });

TEST(PoptrieUpdate, WithdrawEverythingReturnsToEmpty)
{
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    const auto routes = corner_case_table();
    // Both leaf layouts of the compile: the 16-bit runs it places in the
    // leaf pool must be freed, and its coded runs dropped.
    for (const bool dict : {false, true}) {
        SCOPED_TRACE(dict ? "dictionary-coded leaves" : "16-bit leaves");
        auto rib = load(routes);
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        Poptrie4 pt{rib, cfg};
        ASSERT_EQ(pt.stats().leaf_pool_used == 0, dict);
        for (const auto& r : routes) pt.apply(rib, r.prefix, kNoRoute);
        pt.drain();
        EXPECT_EQ(rib.route_count(), 0u);
        workload::Xorshift128 rng(7);
        for (int i = 0; i < 100'000; ++i)
            ASSERT_EQ(pt.lookup(Ipv4Addr{rng.next()}), kNoRoute);
        // With direct pointing, an empty FIB needs no nodes and no leaves at
        // all: the pools must have been fully reclaimed (no leaks through
        // the retire/EBR path).
        const auto s = pt.stats();
        EXPECT_EQ(s.internal_nodes, 0u);
        EXPECT_EQ(s.leaves, 0u);
        EXPECT_EQ(s.leaf8_slots, 0u);
        EXPECT_EQ(s.node_pool_used, 0u);
        EXPECT_EQ(s.leaf_pool_used, 0u);
        POPTRIE_AUDIT_ASSERT(pt, rib);
    }
}

TEST(PoptrieUpdate, ChurnDoesNotLeakPoolSpace)
{
    // Announce/withdraw the same set repeatedly: pool usage must return to
    // the same footprint every cycle (buddy coalescing + EBR reclamation).
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    rib::RadixTrie<Ipv4Addr> rib;
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};
    const auto routes = corner_case_table();
    std::size_t baseline_nodes = 0;
    std::size_t baseline_leaves = 0;
    for (int cycle = 0; cycle < 10; ++cycle) {
        for (const auto& r : routes) pt.apply(rib, r.prefix, r.next_hop);
        pt.drain();
        const auto s = pt.stats();
        if (cycle == 0) {
            baseline_nodes = s.node_pool_used;
            baseline_leaves = s.leaf_pool_used;
        } else {
            EXPECT_EQ(s.node_pool_used, baseline_nodes) << "cycle " << cycle;
            EXPECT_EQ(s.leaf_pool_used, baseline_leaves) << "cycle " << cycle;
        }
        for (const auto& r : routes) pt.apply(rib, r.prefix, kNoRoute);
        pt.drain();
        const auto e = pt.stats();
        EXPECT_EQ(e.node_pool_used, 0u) << "cycle " << cycle;
        EXPECT_EQ(e.leaf_pool_used, 0u) << "cycle " << cycle;
    }
}

TEST(PoptrieUpdate, FullInsertionMatchesBuild)
{
    // §4.9's second experiment: inserting a full table route-by-route in
    // randomized order ends at the same resolution as compiling at once.
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    workload::TableGenConfig gen;
    gen.seed = 17;
    gen.target_routes = 5'000;
    gen.next_hops = 11;
    auto routes = workload::generate_table(gen);
    workload::Xorshift128 rng(8);
    for (std::size_t i = routes.size(); i > 1; --i)
        std::swap(routes[i - 1], routes[rng.next_below(static_cast<std::uint32_t>(i))]);

    rib::RadixTrie<Ipv4Addr> rib;
    Config cfg;
    cfg.direct_bits = 18;
    Poptrie4 pt{rib, cfg};
    for (const auto& r : routes) pt.apply(rib, r.prefix, r.next_hop);
    const Poptrie4 rebuilt{rib, cfg};
    for (int i = 0; i < 200'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(pt.lookup(a), rebuilt.lookup(a));
    }
    pt.drain();
    POPTRIE_AUDIT_ASSERT(pt, rib);
    POPTRIE_AUDIT_ASSERT(rebuilt, rib);
}

TEST(PoptrieUpdate, CountersAccumulate)
{
    rib::RadixTrie<Ipv4Addr> rib;
    Config cfg;
    cfg.direct_bits = 18;
    Poptrie4 pt{rib, cfg};
    pt.apply(rib, pfx("10.1.2.0/24"), 1);
    pt.apply(rib, pfx("10.1.2.128/25"), 2);
    const auto& c = pt.update_counters();
    EXPECT_EQ(c.updates, 2u);
    EXPECT_GT(c.leaves_allocated, 0u);
    EXPECT_GT(c.direct_stores, 0u);
}
