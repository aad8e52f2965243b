// Tests for the binary radix trie (RIB substrate / "Radix" baseline).
#include <gtest/gtest.h>

#include "baselines/linear.hpp"
#include "helpers.hpp"
#include "rib/radix_trie.hpp"
#include "rib/table_stats.hpp"
#include "workload/tablegen.hpp"

using namespace testhelpers;
using rib::kNoRoute;
using rib::RadixTrie;

namespace {
Prefix4 pfx(const char* text) { return *netbase::parse_prefix4(text); }
}  // namespace

TEST(Radix, EmptyTrieMisses)
{
    RadixTrie<Ipv4Addr> t;
    EXPECT_EQ(t.lookup(Ipv4Addr{0x01020304}), kNoRoute);
    EXPECT_EQ(t.route_count(), 0u);
    EXPECT_EQ(t.node_count(), 0u);
    EXPECT_EQ(t.root(), nullptr);
}

TEST(Radix, LongestPrefixWins)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    t.insert(pfx("10.1.0.0/16"), 2);
    t.insert(pfx("10.1.2.0/24"), 3);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.1.2.3")), 3);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.1.3.1")), 2);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.2.0.1")), 1);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("11.0.0.1")), kNoRoute);
}

TEST(Radix, InsertReplacesExisting)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    t.insert(pfx("10.0.0.0/8"), 7);
    EXPECT_EQ(t.route_count(), 1u);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.9.9.9")), 7);
}

TEST(Radix, DefaultRouteAndHostRoute)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("0.0.0.0/0"), 1);
    t.insert(pfx("255.255.255.255/32"), 2);
    EXPECT_EQ(t.lookup(Ipv4Addr{0}), 1);
    EXPECT_EQ(t.lookup(Ipv4Addr{0xFFFFFFFF}), 2);
    EXPECT_EQ(t.lookup(Ipv4Addr{0xFFFFFFFE}), 1);
}

TEST(Radix, EraseRestoresShorterMatch)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    t.insert(pfx("10.1.0.0/16"), 2);
    EXPECT_TRUE(t.erase(pfx("10.1.0.0/16")));
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.1.0.1")), 1);
    EXPECT_FALSE(t.erase(pfx("10.1.0.0/16")));  // already gone
    EXPECT_FALSE(t.erase(pfx("10.2.0.0/16")));  // never present
}

TEST(Radix, ErasePrunesNodes)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    const auto base_nodes = t.node_count();
    t.insert(pfx("10.1.2.3/32"), 2);
    EXPECT_GT(t.node_count(), base_nodes);
    t.erase(pfx("10.1.2.3/32"));
    EXPECT_EQ(t.node_count(), base_nodes);
    t.erase(pfx("10.0.0.0/8"));
    EXPECT_EQ(t.node_count(), 0u);
    EXPECT_EQ(t.route_count(), 0u);
}

TEST(Radix, EraseKeepsNodesNeededByOthers)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/16"), 1);
    t.insert(pfx("10.0.128.0/17"), 2);
    t.erase(pfx("10.0.0.0/16"));
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.0.200.1")), 2);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.0.1.1")), kNoRoute);
}

TEST(Radix, FindExact)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    EXPECT_EQ(t.find(pfx("10.0.0.0/8")), 1);
    EXPECT_EQ(t.find(pfx("10.0.0.0/9")), kNoRoute);
    EXPECT_EQ(t.find(pfx("11.0.0.0/8")), kNoRoute);
}

TEST(Radix, LookupDetailDepthExceedsMatchedLength)
{
    // Fig. 7's effect: deciding that only the /8 matches requires descending
    // to where the /24 would have been.
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    t.insert(pfx("10.1.2.0/24"), 2);
    const auto d = t.lookup_detail(*netbase::parse_ipv4("10.1.2.255"));
    EXPECT_EQ(d.next_hop, 2);
    EXPECT_EQ(d.matched_length, 24u);
    const auto shallow = t.lookup_detail(*netbase::parse_ipv4("10.1.3.1"));
    EXPECT_EQ(shallow.next_hop, 1);
    EXPECT_EQ(shallow.matched_length, 8u);
    EXPECT_GT(shallow.radix_depth, 8u);  // walked past /8 before giving up
}

TEST(Radix, LookupDetailMissHasMatchedFalse)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    const auto d = t.lookup_detail(*netbase::parse_ipv4("11.0.0.1"));
    EXPECT_FALSE(d.matched);
    EXPECT_EQ(d.next_hop, kNoRoute);
}

TEST(Radix, ForEachRouteRoundTrips)
{
    const auto routes = corner_case_table();
    const auto t = load(routes);
    const auto out = t.routes();
    EXPECT_EQ(out.size(), routes.size());
    const auto reloaded = load(out);
    workload::Xorshift128 rng(5);
    for (int i = 0; i < 100000; ++i) {
        const Ipv4Addr a{rng.next()};
        EXPECT_EQ(t.lookup(a), reloaded.lookup(a));
    }
}

TEST(Radix, InsertAllKeepsLastDuplicateAndMatchesInsertLoop)
{
    workload::TableGenConfig gen;
    gen.seed = 17;
    gen.target_routes = 5'000;
    auto routes = workload::generate_table(gen);
    // Re-announce every 7th prefix later in the list with another hop, and
    // one of them a second time.
    const std::size_t n = routes.size();
    for (std::size_t i = 0; i < n; i += 7)
        routes.push_back({routes[i].prefix, static_cast<NextHop>(routes[i].next_hop + 1)});
    routes.push_back({routes[0].prefix, 999});

    RadixTrie<Ipv4Addr> looped;
    for (const auto& r : routes) looped.insert(r.prefix, r.next_hop);
    RadixTrie<Ipv4Addr> bulk;
    bulk.insert_all(routes);

    EXPECT_EQ(bulk.routes(), looped.routes());
    EXPECT_EQ(bulk.route_count(), n);
    EXPECT_EQ(bulk.node_count(), looped.node_count());
    EXPECT_EQ(bulk.find(routes[0].prefix), 999);
    EXPECT_EQ(bulk.find(routes[7].prefix), routes[7].next_hop + 1);
}

TEST(Radix, MatchesLinearOracle)
{
    const auto routes = corner_case_table();
    const auto t = load(routes);
    const baselines::LinearLpm4 oracle(routes);
    workload::Xorshift128 rng(6);
    for (int i = 0; i < 50000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(t.lookup(a), oracle.lookup(a)) << netbase::to_string(a);
    }
    for (const auto& r : routes) {
        for (const auto v : {r.prefix.first_address().value(),
                             r.prefix.last_address().value(),
                             r.prefix.first_address().value() - 1,
                             r.prefix.last_address().value() + 1}) {
            ASSERT_EQ(t.lookup(Ipv4Addr{v}), oracle.lookup(Ipv4Addr{v}));
        }
    }
}

TEST(Radix, MarkSubtreeStopsAtMoreSpecificRoutes)
{
    RadixTrie<Ipv4Addr> t;
    t.insert(pfx("10.0.0.0/8"), 1);
    t.insert(pfx("10.1.0.0/16"), 2);
    t.insert(pfx("10.1.2.0/24"), 3);
    t.mark_subtree(pfx("10.0.0.0/8"));
    // The /16's node is a boundary: it is on the path but its subtree is
    // shadowed from the /8's change.
    const auto* n = t.root();
    ASSERT_NE(n, nullptr);
    EXPECT_TRUE(n->marked);
    t.clear_marks(pfx("10.0.0.0/8"));
    EXPECT_FALSE(t.root()->marked);
}

TEST(Radix, TableStats)
{
    const auto routes = corner_case_table();
    const auto stats = rib::compute_stats(routes);
    EXPECT_EQ(stats.prefix_count, routes.size());
    EXPECT_EQ(stats.max_length, 32u);
    EXPECT_EQ(stats.length_histogram[0], 1u);
    EXPECT_EQ(stats.length_histogram[18], 4u);
    EXPECT_GT(stats.distinct_next_hops, 10u);
    EXPECT_EQ(stats.longer_than(24), 7u);  // /25, /30 x4, /32 x2
}

TEST(Radix, Ipv6Basics)
{
    rib::RadixTrie<netbase::Ipv6Addr> t;
    const auto p1 = *netbase::parse_prefix6("2001:db8::/32");
    const auto p2 = *netbase::parse_prefix6("2001:db8:1::/48");
    t.insert(p1, 1);
    t.insert(p2, 2);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8:1::5")), 2);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8:2::5")), 1);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db9::1")), kNoRoute);
    EXPECT_TRUE(t.erase(p2));
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8:1::5")), 1);
}

TEST(Radix, Ipv6FullLengthRoute)
{
    rib::RadixTrie<netbase::Ipv6Addr> t;
    const auto host = *netbase::parse_prefix6("2001:db8::1/128");
    t.insert(host, 9);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8::1")), 9);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8::2")), kNoRoute);
}
