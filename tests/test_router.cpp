// Tests for the router integration layer: adjacency interning/recycling,
// RIB/FIB consistency through add/remove churn, and the 2^16 index limit.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/audit.hpp"
#include "helpers.hpp"
#include "router/router.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using router::Adjacency;
using router::Router4;

namespace {
Prefix4 pfx(const char* text) { return *netbase::parse_prefix4(text); }
Ipv4Addr ip(const char* text) { return *netbase::parse_ipv4(text); }
Adjacency<Ipv4Addr> adj(const char* gw, std::string iface)
{
    return {ip(gw), std::move(iface)};
}

/// Hop id -> adjacency for the load tests. Not injective: hop ids h and
/// h + 2 share an adjacency when h % 4 < 2, so load() must intern by
/// adjacency, not by hop id.
template <class Addr>
Adjacency<Addr> hop_adjacency(rib::NextHop hop)
{
    return {Addr{typename Addr::value_type{0x0A000000u + hop / 4u}},
            "eth" + std::to_string(hop % 2)};
}

/// The same adjacency, or both unresolved.
template <class Addr>
bool same_resolution(const Adjacency<Addr>* a, const Adjacency<Addr>* b)
{
    return a == nullptr ? b == nullptr : b != nullptr && *a == *b;
}

/// Loads `routes` with one compile, or installs them one add_route at a time.
template <class Addr>
void fill(router::Router<Addr>& r, const rib::RouteList<Addr>& routes, bool bulk)
{
    if (bulk) {
        // quiescent: single-threaded test — no reader exists.
        const psync::QuiescentSection quiescent;
        r.load(routes, hop_adjacency<Addr>);
        return;
    }
    for (const auto& rt : routes) r.add_route(rt.prefix, hop_adjacency<Addr>(rt.next_hop));
}

/// 20k generated routes, a second /0 and re-announced prefixes with other
/// hops. Hop 999's adjacency appears only on a route that a later duplicate
/// replaces, so neither Router may count it.
rib::RouteList<Ipv4Addr> table_with_duplicates()
{
    workload::TableGenConfig gen;
    gen.seed = 29;
    gen.target_routes = 20'000;
    gen.next_hops = 48;
    auto routes = workload::generate_table(gen);
    routes.push_back({pfx("0.0.0.0/0"), 7});
    const std::size_t n = routes.size();
    for (std::size_t i = 1; i < n; i += 97)
        routes.push_back({routes[i].prefix, static_cast<NextHop>(routes[i].next_hop + 3)});
    routes.push_back({routes[5].prefix, 999});
    routes.push_back({routes[5].prefix, 5});
    return routes;
}

void expect_same_router(const Router4& a, const Router4& b,
                        const rib::RouteList<Ipv4Addr>& routes)
{
    EXPECT_EQ(a.route_count(), b.route_count());
    EXPECT_EQ(a.adjacency_count(), b.adjacency_count());
    const auto check = [&](std::uint32_t v) {
        const Ipv4Addr addr{v};
        ASSERT_TRUE(same_resolution(a.resolve(addr), b.resolve(addr)))
            << netbase::to_string(addr);
    };
    for (const auto& r : routes) {
        const auto lo = r.prefix.first_address().value();
        const auto hi = r.prefix.last_address().value();
        for (const auto v : {lo, hi, lo - 1, hi + 1}) check(v);
    }
    workload::Xorshift128 rng(41);
    for (int i = 0; i < 100'000; ++i) check(rng.next());
}
}  // namespace

TEST(Router, ResolveReturnsInstalledAdjacency)
{
    Router4 r;
    r.add_route(pfx("10.0.0.0/8"), adj("192.168.0.1", "eth0"));
    const auto* a = r.resolve(ip("10.1.2.3"));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->gateway, ip("192.168.0.1"));
    EXPECT_EQ(a->interface, "eth0");
    EXPECT_EQ(r.resolve(ip("11.0.0.0")), nullptr);
}

TEST(Router, AdjacencyInterning)
{
    Router4 r;
    r.add_route(pfx("10.0.0.0/8"), adj("192.168.0.1", "eth0"));
    r.add_route(pfx("20.0.0.0/8"), adj("192.168.0.1", "eth0"));  // same adjacency
    r.add_route(pfx("30.0.0.0/8"), adj("192.168.0.2", "eth0"));  // different gateway
    r.add_route(pfx("40.0.0.0/8"), adj("192.168.0.1", "eth1"));  // different iface
    EXPECT_EQ(r.adjacency_count(), 3u);
    EXPECT_EQ(r.lookup_index(ip("10.1.1.1")), r.lookup_index(ip("20.1.1.1")));
    EXPECT_NE(r.lookup_index(ip("10.1.1.1")), r.lookup_index(ip("30.1.1.1")));
}

TEST(Router, ReplaceRouteSwapsAdjacency)
{
    Router4 r;
    r.add_route(pfx("10.0.0.0/8"), adj("192.168.0.1", "eth0"));
    r.add_route(pfx("10.0.0.0/8"), adj("192.168.0.9", "eth2"));
    EXPECT_EQ(r.route_count(), 1u);
    EXPECT_EQ(r.adjacency_count(), 1u);  // old adjacency released
    EXPECT_EQ(r.resolve(ip("10.1.1.1"))->interface, "eth2");
}

TEST(Router, RemoveRouteReleasesAndRecyclesIndices)
{
    Router4 r;
    r.add_route(pfx("10.0.0.0/8"), adj("192.168.0.1", "eth0"));
    const auto idx1 = r.lookup_index(ip("10.1.1.1"));
    EXPECT_TRUE(r.remove_route(pfx("10.0.0.0/8")));
    EXPECT_FALSE(r.remove_route(pfx("10.0.0.0/8")));
    EXPECT_EQ(r.adjacency_count(), 0u);
    EXPECT_EQ(r.resolve(ip("10.1.1.1")), nullptr);
    // A new adjacency reuses the freed 16-bit index.
    r.add_route(pfx("20.0.0.0/8"), adj("192.168.0.7", "eth3"));
    EXPECT_EQ(r.lookup_index(ip("20.1.1.1")), idx1);
}

TEST(Router, LongestPrefixSemanticsThroughChurn)
{
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    Router4 r;
    r.add_route(pfx("0.0.0.0/0"), adj("10.0.0.1", "up0"));
    r.add_route(pfx("10.0.0.0/8"), adj("10.0.0.2", "core0"));
    r.add_route(pfx("10.1.0.0/16"), adj("10.0.0.3", "core1"));
    EXPECT_EQ(r.resolve(ip("10.1.2.3"))->interface, "core1");
    EXPECT_EQ(r.resolve(ip("10.2.2.3"))->interface, "core0");
    EXPECT_EQ(r.resolve(ip("99.1.1.1"))->interface, "up0");
    r.remove_route(pfx("10.1.0.0/16"));
    EXPECT_EQ(r.resolve(ip("10.1.2.3"))->interface, "core0");
    r.drain();
}

TEST(Router, MirrorsRibThroughRandomChurn)
{
    Router4 r;
    workload::TableGenConfig gen;
    gen.seed = 71;
    gen.target_routes = 8'000;
    gen.next_hops = 40;
    const auto routes = workload::generate_table(gen);
    for (const auto& rt : routes) {
        r.add_route(rt.prefix,
                    adj("192.168.0.1", "bundle" + std::to_string(rt.next_hop)));
    }
    EXPECT_EQ(r.route_count(), routes.size());
    EXPECT_EQ(r.adjacency_count(), 40u);
    // FIB resolves identically to the RIB it mirrors.
    workload::Xorshift128 rng(5);
    for (int i = 0; i < 200'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(r.lookup_index(a), r.rib().lookup(a));
    }
    // Withdraw half, re-check.
    for (std::size_t i = 0; i < routes.size(); i += 2) r.remove_route(routes[i].prefix);
    for (int i = 0; i < 100'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(r.lookup_index(a), r.rib().lookup(a));
    }
}

TEST(Router, AdjacencyTableFullThrows)
{
    Router4 r;
    // 65535 distinct interfaces exhaust the index space; one more throws.
    for (unsigned i = 1; i <= 0xFFFF; ++i) {
        const Prefix4 p{Ipv4Addr{i << 12}, 20};
        r.add_route(p, adj("192.168.0.1", "if" + std::to_string(i)));
    }
    EXPECT_THROW(r.add_route(pfx("1.2.3.0/24"), adj("192.168.0.1", "overflow")),
                 router::AdjacencyTableFull);
}

TEST(Router, Ipv6Family)
{
    router::Router6 r;
    r.add_route(*netbase::parse_prefix6("2001:db8::/32"),
                {*netbase::parse_ipv6("fe80::1"), "eth0"});
    const auto* a = r.resolve(*netbase::parse_ipv6("2001:db8::42"));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->interface, "eth0");
    EXPECT_EQ(r.resolve(*netbase::parse_ipv6("2001:db9::42")), nullptr);
}

TEST(Router, SaveFibSnapshotRoundTripsIndices)
{
    Router4 r;
    for (unsigned i = 0; i < 64; ++i) {
        const Prefix4 p{Ipv4Addr{(10u << 24) | (i << 16)}, 16};
        r.add_route(p, adj("192.168.0.1", "if" + std::to_string(i % 7)));
    }

    // quiescent: single-threaded test — no forwarding thread exists.
    const psync::QuiescentSection quiescent;
    const std::string path = ::testing::TempDir() + "router_fib.snap";
    r.save_fib_snapshot(path);

    const auto fib = snapshot::SnapshotFib4::load_file(path);
    for (unsigned i = 0; i < 64; ++i) {
        const Ipv4Addr a{(10u << 24) | (i << 16) | 0x1234u};
        EXPECT_EQ(fib.lookup(a), r.lookup_index(a));
        // The image stores FIB indices; the live router maps them on to the
        // same adjacency the restored index denotes.
        ASSERT_NE(r.resolve(a), nullptr);
        EXPECT_EQ(r.resolve(a)->interface, "if" + std::to_string(i % 7));
    }
    std::remove(path.c_str());
}

TEST(RouterLoad, MatchesRouteByRouteIpv4ThroughChurn)
{
    const auto routes = table_with_duplicates();
    Router4 looped;
    fill(looped, routes, false);
    Router4 loaded;
    fill(loaded, routes, true);
    expect_same_router(loaded, looped, routes);
    // Aggregation took effect: the loaded FIB is the smaller one.
    EXPECT_LT(loaded.fib().stats().memory_bytes, looped.fib().stats().memory_bytes);

    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 2'000;
    ucfg.next_hops = 60;
    ucfg.seed = 43;
    for (const auto& ev : workload::make_update_feed(routes, ucfg)) {
        for (Router4* r : {&looped, &loaded}) {
            if (ev.next_hop == rib::kNoRoute)
                (void)r->remove_route(ev.prefix);
            else
                r->add_route(ev.prefix, hop_adjacency<Ipv4Addr>(ev.next_hop));
        }
        const auto lo = ev.prefix.first_address().value();
        const auto hi = ev.prefix.last_address().value();
        for (const auto v : {lo, hi, lo - 1, hi + 1}) {
            const Ipv4Addr a{v};
            ASSERT_EQ(loaded.lookup_index(a), loaded.rib().lookup(a)) << netbase::to_string(a);
            ASSERT_TRUE(same_resolution(loaded.resolve(a), looped.resolve(a)));
        }
    }
    expect_same_router(loaded, looped, routes);
    loaded.drain();
    looped.drain();
    POPTRIE_AUDIT_ASSERT(loaded.fib(), loaded.rib());
}

TEST(RouterLoad, MatchesRouteByRouteIpv6)
{
    workload::TableGen6Config gen;
    gen.seed = 31;
    gen.target_routes = 8'000;
    gen.next_hops = 40;
    auto routes = workload::generate_table6(gen);
    routes.push_back({routes[3].prefix, 77});
    router::Router6 looped;
    fill(looped, routes, false);
    router::Router6 loaded;
    fill(loaded, routes, true);
    EXPECT_EQ(loaded.route_count(), looped.route_count());
    EXPECT_EQ(loaded.adjacency_count(), looped.adjacency_count());
    const auto check = [&](netbase::u128 v) {
        const netbase::Ipv6Addr a{v};
        ASSERT_TRUE(same_resolution(loaded.resolve(a), looped.resolve(a)))
            << netbase::to_string(a);
    };
    for (const auto& r : routes) {
        const auto lo = r.prefix.first_address().value();
        const auto hi = r.prefix.last_address().value();
        for (const auto v : {lo, hi, lo - 1, hi + 1}) check(v);
    }
    workload::Xorshift128 rng(37);
    for (int i = 0; i < 100'000; ++i) {
        // Random addresses inside 2000::/8, where the generated table lives.
        netbase::u128 v = (netbase::u128{rng.next()} << 96) | (netbase::u128{rng.next()} << 64) |
                          (netbase::u128{rng.next()} << 32) | rng.next();
        v = (v & ~(netbase::u128{0xFF} << 120)) | (netbase::u128{0x20} << 120);
        check(v);
    }
}

TEST(RouterLoad, WithdrawingEveryRouteReleasesEveryAdjacency)
{
    const auto routes = table_with_duplicates();
    Router4 r;
    fill(r, routes, true);
    EXPECT_GT(r.adjacency_count(), 0u);
    for (const auto& rt : routes) (void)r.remove_route(rt.prefix);
    EXPECT_EQ(r.route_count(), 0u);
    EXPECT_EQ(r.adjacency_count(), 0u);
    EXPECT_EQ(r.resolve(ip("10.1.2.3")), nullptr);
}

TEST(RouterLoad, NonEmptyRouterThrowsAndStaysUnchanged)
{
    Router4 r;
    r.add_route(pfx("10.0.0.0/8"), adj("192.168.0.1", "eth0"));
    // quiescent: single-threaded test — no reader exists.
    const psync::QuiescentSection quiescent;
    EXPECT_THROW(r.load({{pfx("20.0.0.0/8"), 1}}, hop_adjacency<Ipv4Addr>), std::logic_error);
    EXPECT_EQ(r.route_count(), 1u);
    EXPECT_EQ(r.adjacency_count(), 1u);
    ASSERT_NE(r.resolve(ip("10.1.2.3")), nullptr);
    EXPECT_EQ(r.resolve(ip("10.1.2.3"))->interface, "eth0");
    EXPECT_EQ(r.resolve(ip("20.1.2.3")), nullptr);
}

TEST(RouterLoad, AdjacencyTableFullLeavesRouterEmpty)
{
    // 65,536 distinct adjacencies: one more than the 16-bit index space.
    rib::RouteList<Ipv4Addr> routes;
    for (unsigned i = 0; i <= 0xFFFF; ++i)
        routes.push_back({Prefix4{Ipv4Addr{i << 12}, 20}, static_cast<NextHop>(i)});
    const auto distinct = [](NextHop hop) {
        return Adjacency<Ipv4Addr>{Ipv4Addr{0x0A000000u + hop}, "eth0"};
    };
    Router4 r;
    // quiescent: single-threaded test — no reader exists.
    const psync::QuiescentSection quiescent;
    EXPECT_THROW(r.load(routes, distinct), router::AdjacencyTableFull);
    EXPECT_EQ(r.route_count(), 0u);
    EXPECT_EQ(r.adjacency_count(), 0u);
    EXPECT_EQ(r.resolve(Ipv4Addr{5u << 12}), nullptr);

    routes.resize(0xFFFF);  // 65,535 adjacencies fit exactly
    r.load(routes, distinct);
    EXPECT_EQ(r.route_count(), 0xFFFFu);
    EXPECT_EQ(r.adjacency_count(), 0xFFFFu);
    ASSERT_NE(r.resolve(Ipv4Addr{5u << 12}), nullptr);
    EXPECT_EQ(r.resolve(Ipv4Addr{5u << 12})->gateway, Ipv4Addr{0x0A000005u});
}
