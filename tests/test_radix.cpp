// Tests for the binary radix trie (RIB substrate / "Radix" baseline).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

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
netbase::Prefix6 pfx6(const char* text) { return *netbase::parse_prefix6(text); }

/// Deterministic Fisher-Yates shuffle, so insert_all has to sort.
template <class Addr>
void shuffle(rib::RouteList<Addr>& routes, std::uint64_t seed)
{
    workload::Xorshift128 rng(seed);
    for (std::size_t i = routes.size(); i > 1; --i)
        std::swap(routes[i - 1], routes[rng.next_below(static_cast<std::uint32_t>(i))]);
}

/// insert_all(list) on a trie holding `base` must leave what an insert()
/// loop leaves: the same routes, node count and lookups, with one
/// displaced() call per route replaced.
template <class Addr>
void expect_insert_all_matches_loop(const rib::RouteList<Addr>& base,
                                    const rib::RouteList<Addr>& list, const char* what)
{
    using value_type = typename Addr::value_type;
    RadixTrie<Addr> looped;
    RadixTrie<Addr> bulk;
    for (const auto& r : base) {
        looped.insert(r.prefix, r.next_hop);
        bulk.insert(r.prefix, r.next_hop);
    }
    for (const auto& r : list) looped.insert(r.prefix, r.next_hop);
    const std::size_t before = bulk.route_count();
    std::size_t displaced = 0;
    bulk.insert_all(list, [&](NextHop) { ++displaced; });

    EXPECT_EQ(bulk.routes(), looped.routes()) << what;
    EXPECT_EQ(bulk.route_count(), looped.route_count()) << what;
    EXPECT_EQ(bulk.node_count(), looped.node_count()) << what;
    EXPECT_EQ(displaced, before + list.size() - bulk.route_count()) << what;
    const auto check = [&](value_type v) {
        ASSERT_EQ(bulk.lookup(Addr{v}), looped.lookup(Addr{v})) << what << ": "
                                                               << netbase::to_string(Addr{v});
    };
    for (const auto* routes : {&base, &list}) {
        for (const auto& r : *routes) {
            const value_type lo = r.prefix.first_address().value();
            const value_type hi = r.prefix.last_address().value();
            for (const value_type v : {lo, hi, static_cast<value_type>(lo - 1),
                                       static_cast<value_type>(hi + 1)})
                check(v);
        }
    }
    workload::Xorshift128 rng(9);
    for (int i = 0; i < 20'000; ++i) {
        value_type v = 0;
        for (unsigned w = 0; w < sizeof(value_type) / 4; ++w)
            // shift-ok: 32-bit steps inside a value_type of at least 32 bits.
            v = static_cast<value_type>((v << 16) << 16) | rng.next();
        check(v);
    }
}
}  // namespace

TEST(Radix, EmptyTrieMisses)
{
    RadixTrie<Ipv4Addr> t;
    EXPECT_EQ(t.lookup(Ipv4Addr{0x01020304}), kNoRoute);
    EXPECT_EQ(t.route_count(), 0u);
    EXPECT_EQ(t.node_count(), 0u);
    EXPECT_TRUE(t.empty());
    EXPECT_TRUE(t.nodes().empty());
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

    shuffle(routes, 3);
    expect_insert_all_matches_loop<Ipv4Addr>({}, routes, "ipv4 shuffled");

    // Prefixes that differ only in length, /0 and /32 among them, and the
    // same in reverse: the length is the sort's least significant key.
    rib::RouteList<Ipv4Addr> lengths;
    for (const unsigned len : {32u, 24u, 0u, 9u, 8u, 16u, 31u, 1u})
        lengths.push_back({Prefix4{Ipv4Addr{0x0A000000u}, len}, static_cast<NextHop>(len + 1)});
    lengths.push_back({Prefix4{Ipv4Addr{0}, 32}, 40});
    lengths.push_back({Prefix4{Ipv4Addr{0xFFFFFFFFu}, 32}, 41});
    expect_insert_all_matches_loop<Ipv4Addr>({}, lengths, "ipv4 lengths");

    // Into a non-empty trie: some prefixes replace installed routes (the
    // trie's own, and a duplicate within the list), others are new.
    const rib::RouteList<Ipv4Addr> base = {
        {pfx("0.0.0.0/0"), 1}, {pfx("10.0.0.0/8"), 2}, {pfx("10.1.0.0/16"), 3},
        {pfx("192.168.0.0/24"), 4}, {pfx("255.255.255.255/32"), 5}};
    const rib::RouteList<Ipv4Addr> more = {
        {pfx("10.1.2.0/24"), 6}, {pfx("10.0.0.0/8"), 7}, {pfx("172.16.0.0/12"), 8},
        {pfx("192.168.0.0/24"), 9}, {pfx("10.1.2.0/24"), 10}, {pfx("0.0.0.0/0"), 11}};
    expect_insert_all_matches_loop(base, more, "ipv4 into non-empty");
    expect_insert_all_matches_loop(base, {}, "ipv4 empty list");

    // IPv6: /0 and /128, prefixes that differ only below bit 64 (the low
    // half of the key, which the sort reaches last), and lengths alone.
    const rib::RouteList<netbase::Ipv6Addr> v6 = {
        {pfx6("2001:db8::1/128"), 1},       {pfx6("::/0"), 2},
        {pfx6("2001:db8::/64"), 3},         {pfx6("2001:db8::8000:0:0:0/65"), 4},
        {pfx6("2001:db8::2/127"), 5},       {pfx6("2001:db8::ff00/120"), 6},
        {pfx6("2001:db8::1:0:0/96"), 7},    {pfx6("2001:db8::/128"), 8},
        {pfx6("::/128"), 9},                {pfx6("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"), 10},
        {pfx6("2001:db8::/32"), 11},        {pfx6("2001:db8::/48"), 12},
        {pfx6("2001:db8::1/128"), 13},      {pfx6("::/0"), 14},
        {pfx6("2001:db8:0:1::/64"), 15},    {pfx6("2001:db8::8000:0:0:1/128"), 16},
    };
    expect_insert_all_matches_loop<netbase::Ipv6Addr>({}, v6, "ipv6 corners");
    expect_insert_all_matches_loop<netbase::Ipv6Addr>(
        {{pfx6("2001:db8::/64"), 20}, {pfx6("::/0"), 21}, {pfx6("3fff::/16"), 22}}, v6,
        "ipv6 into non-empty");

    // A generated IPv6 table with duplicates far apart.
    workload::TableGen6Config gen6;
    gen6.seed = 5;
    gen6.target_routes = 4'000;
    auto routes6 = workload::generate_table6(gen6);
    const std::size_t n6 = routes6.size();
    for (std::size_t i = 0; i < n6; i += 13)
        routes6.push_back({routes6[i].prefix, static_cast<NextHop>(routes6[i].next_hop + 1)});
    routes6.push_back({routes6[0].prefix, 999});
    shuffle(routes6, 4);
    expect_insert_all_matches_loop<netbase::Ipv6Addr>({}, routes6, "ipv6 generated");
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

TEST(Radix, ChurnReusesFreedNodeSlots)
{
    // Erased paths go on the free list and inserts take from it first, so
    // the node array never grows past the peak number of live nodes.
    workload::TableGenConfig gen;
    gen.seed = 23;
    gen.target_routes = 3'000;
    const auto routes = workload::generate_table(gen);
    RadixTrie<Ipv4Addr> t;
    t.insert_all(routes);
    std::size_t peak = t.node_count();
    ASSERT_EQ(t.nodes().size(), peak);
    workload::Xorshift128 rng(29);
    for (int round = 0; round < 20'000; ++round) {
        const auto& r = routes[rng.next_below(static_cast<std::uint32_t>(routes.size()))];
        if (t.find(r.prefix) != kNoRoute) {
            EXPECT_TRUE(t.erase(r.prefix));
        } else {
            // Now and then a host route far from the table's paths.
            t.insert(r.prefix, r.next_hop);
            if (round % 16 == 0) t.insert(Prefix4{Ipv4Addr{rng.next()}, 32}, 7);
        }
        peak = std::max(peak, t.node_count());
        ASSERT_LE(t.nodes().size(), peak) << "round " << round;
    }
    const RadixTrie<Ipv4Addr> rebuilt = load(t.routes());
    EXPECT_EQ(t.node_count(), rebuilt.node_count());
    for (const auto& r : t.routes()) {
        for (const auto v : {r.prefix.first_address().value(), r.prefix.last_address().value(),
                             r.prefix.last_address().value() + 1})
            ASSERT_EQ(t.lookup(Ipv4Addr{v}), rebuilt.lookup(Ipv4Addr{v}));
    }
    // Erasing every route empties the trie and drops its storage.
    for (const auto& r : t.routes()) t.erase(r.prefix);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.node_count(), 0u);
    EXPECT_TRUE(t.nodes().empty());
    t.insert(pfx("10.0.0.0/8"), 1);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv4("10.1.2.3")), 1);
}

TEST(Radix, MovesKeepLookupsAndEmptyTheSource)
{
    const auto routes = corner_case_table();
    RadixTrie<Ipv4Addr> source = load(routes);
    const RadixTrie<Ipv4Addr> expect = load(routes);
    const std::size_t nodes = source.node_count();
    const auto check = [&](const RadixTrie<Ipv4Addr>& t) {
        EXPECT_EQ(t.node_count(), nodes);
        EXPECT_EQ(t.route_count(), routes.size());
        workload::Xorshift128 rng(31);
        for (int i = 0; i < 20'000; ++i) {
            const Ipv4Addr a{rng.next()};
            ASSERT_EQ(t.lookup(a), expect.lookup(a));
        }
    };
    const auto expect_empty = [](const RadixTrie<Ipv4Addr>& t) {
        EXPECT_TRUE(t.empty());
        EXPECT_EQ(t.route_count(), 0u);
        EXPECT_EQ(t.node_count(), 0u);
        EXPECT_EQ(t.lookup(Ipv4Addr{0x0A010203u}), kNoRoute);
    };

    RadixTrie<Ipv4Addr> constructed{std::move(source)};
    check(constructed);
    expect_empty(source);  // NOLINT(bugprone-use-after-move): moved-from state is the contract

    RadixTrie<Ipv4Addr> assigned;
    assigned.insert(pfx("192.0.2.0/24"), 9);  // replaced storage is released
    assigned = std::move(constructed);
    check(assigned);
    expect_empty(constructed);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(assigned.find(pfx("192.0.2.0/24")), kNoRoute);

    // A moved-from trie is reusable, and the moved-to one keeps growing.
    source.insert(pfx("10.0.0.0/8"), 3);
    EXPECT_EQ(source.lookup(*netbase::parse_ipv4("10.9.9.9")), 3);
    assigned.insert(pfx("203.0.113.0/24"), 4);
    EXPECT_EQ(assigned.lookup(*netbase::parse_ipv4("203.0.113.9")), 4);
}

TEST(Radix, Ipv6DefaultAndFullLengthPaths)
{
    using netbase::Ipv6Addr;
    RadixTrie<Ipv6Addr> t;
    const auto all = pfx6("::/0");
    const auto low = pfx6("::/128");
    const auto high = pfx6("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128");
    t.insert(all, 1);
    EXPECT_EQ(t.node_count(), 1u);  // the default route lives in the root
    t.insert(low, 2);
    t.insert(high, 3);
    EXPECT_EQ(t.node_count(), 1u + 128 + 128);
    const Ipv6Addr zero{};
    const Ipv6Addr ones = high.first_address();
    EXPECT_EQ(t.lookup(zero), 2);
    EXPECT_EQ(t.lookup(ones), 3);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("::1")), 1);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe")), 1);
    const auto deep = t.lookup_detail(ones);
    EXPECT_EQ(deep.radix_depth, 128u);
    EXPECT_EQ(deep.matched_length, 128u);
    EXPECT_EQ(t.find(all), 1);
    EXPECT_EQ(t.find(low), 2);

    EXPECT_TRUE(t.erase(high));
    EXPECT_EQ(t.node_count(), 1u + 128);
    EXPECT_EQ(t.lookup(ones), 1);
    EXPECT_TRUE(t.erase(all));
    EXPECT_EQ(t.lookup(ones), kNoRoute);
    EXPECT_EQ(t.lookup(zero), 2);
    EXPECT_EQ(t.node_count(), 1u + 128);  // the root still leads to ::/128
    EXPECT_TRUE(t.erase(low));
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.node_count(), 0u);
}

TEST(Radix, MemoryIsTwelveBytesPerLiveNode)
{
    static_assert(sizeof(RadixTrie<Ipv4Addr>::Node) == 12);
    static_assert(sizeof(RadixTrie<netbase::Ipv6Addr>::Node) == 12);
    RadixTrie<Ipv4Addr> t = load(corner_case_table());
    EXPECT_EQ(t.memory_bytes(), t.node_count() * sizeof(RadixTrie<Ipv4Addr>::Node));
    const std::size_t before = t.node_count();
    t.insert(pfx("198.51.100.1/32"), 5);
    EXPECT_GT(t.node_count(), before);
    t.erase(pfx("198.51.100.1/32"));
    // The freed slots stay in the array but are not counted.
    EXPECT_EQ(t.node_count(), before);
    EXPECT_GT(t.nodes().size(), before);
    EXPECT_EQ(t.memory_bytes(), before * sizeof(RadixTrie<Ipv4Addr>::Node));
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
