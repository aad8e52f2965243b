// Tests for FIB compaction (Poptrie::compact): after a compaction pass the
// table must resolve exactly like the RIB, the auditor must see the
// canonical DFS bump layout (AuditOptions::expect_compacted), incremental
// updates must keep working on the compacted pools, and the buddy
// allocators must come out at least as dense as the churned ones. The
// online case — compaction under readers that are never stopped — runs
// under TSan and ASan in CI (ctest -L compact).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "analysis/audit.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "router/router.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using analysis::AuditOptions;
using poptrie::Config;
using poptrie::Poptrie4;
using poptrie::Poptrie6;
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

void expect_compacted_audit(const Poptrie4& pt, const rib::RadixTrie<Ipv4Addr>& rib)
{
    AuditOptions opt;
    opt.expect_compacted = true;
    const auto report = analysis::audit(pt, rib, opt);
    EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace

TEST(PoptrieCompact, FreshBuildSurvivesCompaction)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    for (const unsigned db : {0u, 12u, 16u, 18u}) {
        auto rib = load(corner_case_table());
        Config cfg;
        cfg.direct_bits = db;
        Poptrie4 pt{rib, cfg};
        pt.compact();
        expect_compacted_audit(pt, rib);
        EXPECT_EQ(boundary_and_random_mismatches(
                      rib, corner_case_table(),
                      [&](Ipv4Addr a) { return pt.lookup(a); }, 20'000, db + 1),
                  0u)
            << "direct_bits=" << db;
    }
}

TEST(PoptrieCompact, EmptyTable)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    rib::RadixTrie<Ipv4Addr> rib;
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};
    pt.compact();
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("1.2.3.4")), kNoRoute);
    expect_compacted_audit(pt, rib);
    // Still updatable afterwards.
    pt.apply(rib, pfx("10.0.0.0/8"), 7);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.2.3")), 7);
    POPTRIE_AUDIT_ASSERT(pt, rib);
}

TEST(PoptrieCompact, ChurnedTableCompactsToEquivalentDenseLayout)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    workload::TableGenConfig gen;
    gen.seed = 17;
    gen.target_routes = 20'000;
    gen.next_hops = 31;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);

    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};

    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 10'000;
    ucfg.next_hops = 31;
    for (const auto& ev : workload::make_update_feed(routes, ucfg))
        pt.apply(rib, ev.prefix, ev.next_hop);
    pt.drain();

    const auto before = pt.stats();
    pt.compact();
    const auto after = pt.stats();

    expect_compacted_audit(pt, rib);
    expect_equivalent(rib, pt, 200'000, 3);

    // Compaction reorders, it does not shrink: the structure (and therefore
    // the buddy `used` accounting) is unchanged. The layout's density bound:
    // each run pays < its own block size in alignment padding, so the bump
    // extent is under twice the live slots — no matter how scattered the
    // churned pools were.
    EXPECT_EQ(after.internal_nodes, before.internal_nodes);
    EXPECT_EQ(after.leaves, before.leaves);
    EXPECT_EQ(after.node_pool_used, before.node_pool_used);
    EXPECT_EQ(after.leaf_pool_used, before.leaf_pool_used);
    EXPECT_LE(after.node_high_water, 2 * after.node_pool_used);
    EXPECT_LE(after.leaf_high_water, 2 * after.leaf_pool_used);
}

TEST(PoptrieCompact, CompactionIsIdempotent)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    workload::TableGenConfig gen;
    gen.seed = 23;
    gen.target_routes = 5'000;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};

    pt.compact();
    const auto first = pt.stats();
    pt.compact();
    const auto second = pt.stats();
    expect_compacted_audit(pt, rib);
    expect_equivalent(rib, pt, 50'000, 5);
    EXPECT_EQ(first.node_high_water, second.node_high_water);
    EXPECT_EQ(first.leaf_high_water, second.leaf_high_water);
}

TEST(PoptrieCompact, UpdatesKeepWorkingAfterCompaction)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    workload::TableGenConfig gen;
    gen.seed = 31;
    gen.target_routes = 10'000;
    gen.next_hops = 19;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};

    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 4'000;
    ucfg.next_hops = 19;
    const auto feed = workload::make_update_feed(routes, ucfg);
    const std::size_t half = feed.size() / 2;

    for (std::size_t i = 0; i < half; ++i) pt.apply(rib, feed[i].prefix, feed[i].next_hop);
    pt.compact();
    expect_compacted_audit(pt, rib);
    // Second half of the churn lands on the compacted pools.
    for (std::size_t i = half; i < feed.size(); ++i)
        pt.apply(rib, feed[i].prefix, feed[i].next_hop);
    pt.drain();
    POPTRIE_AUDIT_ASSERT(pt, rib);
    expect_equivalent(rib, pt, 200'000, 7);
}

TEST(PoptrieCompact, WithdrawAllThenCompactReleasesStructure)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto routes = corner_case_table();
    auto rib = load(routes);
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};
    for (const auto& r : routes) pt.apply(rib, r.prefix, kNoRoute);
    pt.compact();
    expect_compacted_audit(pt, rib);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.32.5.193")), kNoRoute);
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("0.0.0.0")), kNoRoute);
}

TEST(PoptrieCompact, Ipv6ChurnCompactEquivalence)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    workload::TableGen6Config gen;
    gen.seed = 9;
    const auto routes = workload::generate_table6(gen);
    rib::RadixTrie<netbase::Ipv6Addr> rib;
    rib.insert_all(routes);
    Config cfg;
    cfg.direct_bits = 16;
    Poptrie6 pt{rib, cfg};

    // Address-family-generic churn: withdraw a third, then compact.
    workload::Xorshift128 rng(41);
    for (std::size_t i = 0; i < routes.size(); ++i)
        if (rng.next() % 3 == 0) pt.apply(rib, routes[i].prefix, kNoRoute);
    pt.drain();
    pt.compact();

    AuditOptions opt;
    opt.expect_compacted = true;
    const auto report = analysis::audit(pt, rib, opt);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(PoptrieCompact, RouterCompactFib)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    router::Router4 rt;
    const router::Adjacency<Ipv4Addr> gw1{*netbase::parse_ipv4("192.0.2.1"), "eth0"};
    const router::Adjacency<Ipv4Addr> gw2{*netbase::parse_ipv4("192.0.2.2"), "eth1"};
    rt.add_route(pfx("10.0.0.0/8"), gw1);
    rt.add_route(pfx("10.1.0.0/16"), gw2);
    rt.add_route(pfx("172.16.0.0/12"), gw2);
    ASSERT_TRUE(rt.remove_route(pfx("172.16.0.0/12")));
    rt.compact_fib();
    const auto* a = rt.resolve(*netbase::parse_ipv4("10.1.2.3"));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(*a, gw2);
    const auto* b = rt.resolve(*netbase::parse_ipv4("10.2.0.1"));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*b, gw1);
    EXPECT_EQ(rt.resolve(*netbase::parse_ipv4("172.17.0.1")), nullptr);
    EXPECT_EQ(rt.resolve(*netbase::parse_ipv4("8.8.8.8")), nullptr);
}

// The deployment shape lpmd --compact-every uses: reader threads forward
// guarded lookup_batch bursts and scalar lookups the whole time, never
// joined, while the writer applies an update feed and compacts between
// updates. Each compaction publishes a fresh pool set under the readers and
// retires the old one through EBR. TSan verifies no lookup races the swap or
// the reclamation; the audit verifies each pass's layout; the final memory
// check proves no retired set leaks. With Config::leaf_dict each pass
// re-encodes leaf runs as tagged 8-bit codes, so readers also decode (and
// prefetch) tagged runs while the writer drops and re-encodes them.
namespace {

void online_compaction_under_live_readers(bool leaf_dict)
{
    workload::TableGenConfig gen;
    gen.seed = 77;
    gen.target_routes = 15'000;
    gen.next_hops = 23;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);

    Config cfg;
    cfg.direct_bits = 16;
    cfg.leaf_dict = leaf_dict;
    Poptrie4 pt{rib, cfg};

    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 3'000;
    ucfg.next_hops = 23;
    const auto feed = workload::make_update_feed(routes, ucfg);
    constexpr std::size_t kCompactEvery = 1'000;

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> invalid{0};
    std::vector<std::jthread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&, r] {
            auto slot = pt.register_reader();
            workload::Xorshift128 rng(r + 1);
            std::vector<std::uint32_t> keys(256);
            std::vector<rib::NextHop> hops(keys.size());
            while (!stop.load(std::memory_order_relaxed)) {
                for (auto& k : keys) k = rng.next();
                std::size_t bad = 0;
                {
                    const psync::EbrDomain::Guard g{slot};
                    pt.lookup_batch<true>(keys.data(), hops.data(), keys.size());
                    for (int i = 0; i < 16; ++i)
                        bad += pt.lookup(Ipv4Addr{rng.next()}) > 23 ? 1 : 0;
                }
                for (const auto h : hops) bad += h > 23 ? 1 : 0;
                invalid.fetch_add(bad, std::memory_order_relaxed);
                served.fetch_add(keys.size() + 16, std::memory_order_relaxed);
            }
        });
    }

    // writer: this thread is the only updater; the readers only look up.
    const psync::EbrWriterSection writer;
    std::size_t compactions = 0;
    for (std::size_t i = 0; i < feed.size(); ++i) {
        pt.apply(rib, feed[i].prefix, feed[i].next_hop);
        if ((i + 1) % kCompactEvery != 0) continue;
        pt.compact();
        ++compactions;
        if (leaf_dict) {
            EXPECT_GT(pt.stats().leaf8_slots, 0u) << "compaction did not dict-code";
        }
        AuditOptions opt;
        opt.random_probes = 512;
        opt.max_boundary_routes = 0;
        opt.expect_compacted = true;
        const auto report = analysis::audit(pt, rib, opt);
        ASSERT_TRUE(report.ok()) << "compaction " << compactions << "\n" << report.summary();
    }
    // Let the readers serve on the last set before stopping them.
    const std::size_t served_at_last_compaction = served.load();
    while (served.load() == served_at_last_compaction) std::this_thread::yield();
    stop = true;
    readers.clear();

    EXPECT_GE(compactions, 3u);
    EXPECT_EQ(invalid.load(), 0u);
    expect_equivalent(rib, pt, 100'000, 9);

    // Every retired set and run is reclaimed: what stays mapped is one pool
    // set's arrays (Stats::allocated_bytes counts whole elements, so the
    // mapped bytes exceed it by less than one element per array).
    pt.drain();
    EXPECT_EQ(analysis::AuditAccess::ebr(pt).pending(), 0u);
    const std::size_t mapped = pt.memory_report().bytes_reserved;
    const std::size_t one_set = pt.stats().allocated_bytes;
    EXPECT_GE(mapped, one_set);
    EXPECT_LT(mapped - one_set, 5 * sizeof(Poptrie4::Node));
}

}  // namespace

TEST(PoptrieCompactConcurrent, OnlineCompactionUnderLiveReaders)
{
    online_compaction_under_live_readers(false);
    online_compaction_under_live_readers(true);
}
