// Tests for FIB compaction (Poptrie::compact), the compile run over the
// live FIB: after a compaction pass the table must resolve exactly like the
// RIB and pass the full audit, and its layout must meet one of two
// byte-identity oracles (analysis::layout_difference): (a) compacting a
// fresh compile, or compacting twice, changes nothing; (b) with route
// aggregation off, a compacted FIB is the compile of its RIB. Incremental
// updates must keep working on the compacted pools. The online case —
// compaction under readers that are never stopped — runs under TSan and
// ASan in CI (ctest -L compact).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
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
using analysis::layout_difference;
using analysis::Layout;
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

template <class Addr>
void expect_audit_clean(const poptrie::Poptrie<Addr>& pt, const rib::RadixTrie<Addr>& rib)
{
    const auto report = analysis::audit(pt, rib);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// Oracle (a): compacts a fresh compile twice; each pass must pass the full
// audit and leave the compile's layout byte-identical.
template <class Addr>
void compact_expecting_the_compile(poptrie::Poptrie<Addr>& pt, const rib::RadixTrie<Addr>& rib)
{
    const Layout compiled{pt};
    for (const char* pass : {"first compact()", "second compact()"}) {
        pt.compact();
        expect_audit_clean(pt, rib);
        EXPECT_EQ(layout_difference(Layout{pt}, compiled), "") << pass;
    }
}

// Oracle (b): a compacted FIB without route aggregation passes the full
// audit and is byte-identical to the compile of its RIB.
template <class Addr>
void expect_the_compile_of_the_rib(const poptrie::Poptrie<Addr>& pt,
                                   const rib::RadixTrie<Addr>& rib)
{
    ASSERT_FALSE(pt.config().route_aggregation);
    expect_audit_clean(pt, rib);
    const poptrie::Poptrie<Addr> compiled{rib, pt.config()};
    EXPECT_EQ(layout_difference(Layout{pt}, Layout{compiled}), "");
}

// Oracle (a)'s second pass for a compacted churned FIB under route
// aggregation, which no compile reproduces: the full audit, then one more
// compact() must change nothing.
template <class Addr>
void expect_recompaction_changes_nothing(poptrie::Poptrie<Addr>& pt,
                                         const rib::RadixTrie<Addr>& rib)
{
    expect_audit_clean(pt, rib);
    const Layout compacted{pt};
    pt.compact();
    EXPECT_EQ(layout_difference(Layout{pt}, compacted), "");
}

// A buddy pool that has only ever allocated — a compile's, so compact()'s
// too — holds at most one free block per order.
constexpr std::size_t kMaxUnchurnedFreeBlocks = 32;

// The default-config tests run on both leaf layouts: the paper's 16-bit runs,
// which the compile and compact() place in the leaf buddy pool, and the
// dictionary-coded runs they write to the code array.
constexpr bool kLeafLayouts[] = {false, true};

const char* layout_name(bool leaf_dict)
{
    return leaf_dict ? "dictionary-coded leaves" : "16-bit leaves";
}

}  // namespace

TEST(PoptrieCompact, FreshBuildSurvivesCompaction)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    for (const bool dict : kLeafLayouts) {
        SCOPED_TRACE(layout_name(dict));
        for (const unsigned db : {0u, 12u, 16u, 18u}) {
            auto rib = load(corner_case_table());
            Config cfg;
            cfg.direct_bits = db;
            cfg.leaf_dict = dict;
            Poptrie4 pt{rib, cfg};
            compact_expecting_the_compile(pt, rib);
            EXPECT_EQ(pt.stats().leaf8_slots, dict ? pt.stats().leaves : 0u)
                << "direct_bits=" << db;
            EXPECT_EQ(boundary_and_random_mismatches(
                          rib, corner_case_table(),
                          [&](Ipv4Addr a) { return pt.lookup(a); }, 20'000, db + 1),
                      0u)
                << "direct_bits=" << db;
        }
    }
}

TEST(PoptrieCompact, EmptyTable)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    for (const bool dict : kLeafLayouts) {
        SCOPED_TRACE(layout_name(dict));
        rib::RadixTrie<Ipv4Addr> rib;
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        Poptrie4 pt{rib, cfg};
        compact_expecting_the_compile(pt, rib);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("1.2.3.4")), kNoRoute);
        // Still updatable afterwards.
        pt.apply(rib, pfx("10.0.0.0/8"), 7);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.2.3")), 7);
        POPTRIE_AUDIT_ASSERT(pt, rib);
    }
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

    for (const bool dict : kLeafLayouts) {
        SCOPED_TRACE(layout_name(dict));
        auto rib = load(routes);
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        cfg.route_aggregation = false;
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

        expect_the_compile_of_the_rib(pt, rib);
        expect_equivalent(rib, pt, 200'000, 3);

        // Compaction reorders, it does not shrink: the structure is
        // unchanged, except that coded leaves fold every childless
        // direct-slot root, the updater's nodes included. The layout is the
        // compile's, no matter how scattered the churned pools were: each
        // run pays < its own block size in buddy rounding, so the extent is
        // under twice the live slots, and no run was ever freed.
        EXPECT_EQ(after.internal_nodes + after.folded_roots,
                  before.internal_nodes + before.folded_roots);
        EXPECT_EQ(after.leaves, before.leaves);
        EXPECT_LE(after.node_high_water, 2 * after.node_pool_used);
        EXPECT_GT(before.node_free_blocks, kMaxUnchurnedFreeBlocks);
        EXPECT_LE(after.node_free_blocks, kMaxUnchurnedFreeBlocks);
        EXPECT_LE(after.leaf_free_blocks, kMaxUnchurnedFreeBlocks);
        if (dict) {
            // Every leaf run, 16-bit ones the churn wrote included, is coded
            // back to back: the leaf pool is left empty.
            EXPECT_GT(before.leaf_pool_used, 0u);
            EXPECT_EQ(after.leaf8_slots, after.leaves);
            EXPECT_EQ(after.leaf_pool_used, 0u);
            EXPECT_EQ(after.leaf_high_water, 0u);
            EXPECT_GT(after.folded_roots, before.folded_roots);
            EXPECT_LT(after.node_pool_used, before.node_pool_used);
        } else {
            EXPECT_EQ(after.folded_roots, 0u);
            EXPECT_EQ(after.node_pool_used, before.node_pool_used);
            EXPECT_EQ(after.leaf_pool_used, before.leaf_pool_used);
            EXPECT_LE(after.leaf_high_water, 2 * after.leaf_pool_used);
        }
    }
}

TEST(PoptrieCompact, CompactionIsIdempotent)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    workload::TableGenConfig gen;
    gen.seed = 23;
    gen.target_routes = 5'000;
    const auto routes = workload::generate_table(gen);
    for (const bool dict : kLeafLayouts) {
        SCOPED_TRACE(layout_name(dict));
        auto rib = load(routes);
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        Poptrie4 pt{rib, cfg};

        compact_expecting_the_compile(pt, rib);
        const auto first = pt.stats();
        pt.compact();
        const auto second = pt.stats();
        expect_audit_clean(pt, rib);
        expect_equivalent(rib, pt, 50'000, 5);
        EXPECT_EQ(first.node_high_water, second.node_high_water);
        EXPECT_EQ(first.leaf_high_water, second.leaf_high_water);
        EXPECT_EQ(first.leaf8_slots, second.leaf8_slots);
        EXPECT_EQ(first.leaf_dict_entries, second.leaf_dict_entries);
        // The 16-bit layout's runs sit in the leaf pool; coded runs leave it
        // empty.
        EXPECT_EQ(second.leaf_high_water == 0, dict);
    }
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
    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 4'000;
    ucfg.next_hops = 19;
    const auto feed = workload::make_update_feed(routes, ucfg);
    const std::size_t half = feed.size() / 2;

    for (const bool dict : kLeafLayouts) {
        SCOPED_TRACE(layout_name(dict));
        auto rib = load(routes);
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        cfg.route_aggregation = false;
        Poptrie4 pt{rib, cfg};

        for (std::size_t i = 0; i < half; ++i) pt.apply(rib, feed[i].prefix, feed[i].next_hop);
        pt.compact();
        expect_the_compile_of_the_rib(pt, rib);
        // Second half of the churn lands on the compacted pools: with 16-bit
        // leaves, on the leaf buddy allocator compact() placed them with.
        for (std::size_t i = half; i < feed.size(); ++i)
            pt.apply(rib, feed[i].prefix, feed[i].next_hop);
        pt.drain();
        POPTRIE_AUDIT_ASSERT(pt, rib);
        expect_equivalent(rib, pt, 200'000, 7);
    }
}

TEST(PoptrieCompact, WithdrawAllThenCompactReleasesStructure)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    const auto routes = corner_case_table();
    for (const bool dict : kLeafLayouts) {
        SCOPED_TRACE(layout_name(dict));
        auto rib = load(routes);
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        cfg.route_aggregation = false;
        Poptrie4 pt{rib, cfg};
        for (const auto& r : routes) pt.apply(rib, r.prefix, kNoRoute);
        pt.compact();
        // The compile of an empty RIB: nothing of the table is left.
        expect_the_compile_of_the_rib(pt, rib);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.32.5.193")), kNoRoute);
        EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("0.0.0.0")), kNoRoute);
    }
}

TEST(PoptrieCompact, Ipv6ChurnCompactEquivalence)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    workload::TableGen6Config gen;
    gen.seed = 9;
    const auto routes = workload::generate_table6(gen);
    for (const bool dict : kLeafLayouts) {
        SCOPED_TRACE(layout_name(dict));
        rib::RadixTrie<netbase::Ipv6Addr> rib;
        rib.insert_all(routes);
        Config cfg;
        cfg.direct_bits = 16;
        cfg.leaf_dict = dict;
        cfg.route_aggregation = false;
        Poptrie6 pt{rib, cfg};

        // Address-family-generic churn: withdraw a third, then compact.
        workload::Xorshift128 rng(41);
        for (std::size_t i = 0; i < routes.size(); ++i)
            if (rng.next() % 3 == 0) pt.apply(rib, routes[i].prefix, kNoRoute);
        pt.drain();
        pt.compact();
        EXPECT_EQ(pt.stats().leaf8_slots, dict ? pt.stats().leaves : 0u);
        expect_the_compile_of_the_rib(pt, rib);
    }
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

// compact()'s byte-identity oracles over the configuration grid: both
// families, s in {0, 16, 18}, leafvec on and off, dictionary-coded leaves on
// and off, route aggregation on and off, and leaf values that fit the
// 256-entry dictionary (31 next hops) or overflow it, so that the compile
// and compact() fall back to 16-bit runs (400).
namespace {

struct GridCase {
    Config cfg;
    unsigned hops = 0;
    std::string name;
};

std::vector<GridCase> oracle_grid()
{
    std::vector<GridCase> grid;
    for (const unsigned s : {0u, 16u, 18u})
        for (const bool leafvec : {true, false})
            for (const bool dict : {true, false})
                for (const bool agg : {true, false})
                    for (const unsigned hops : {31u, 400u}) {
                        GridCase c;
                        c.cfg.direct_bits = s;
                        c.cfg.leaf_compression = leafvec;
                        c.cfg.leaf_dict = dict;
                        c.cfg.route_aggregation = agg;
                        c.hops = hops;
                        c.name = "s=" + std::to_string(s) + (leafvec ? " leafvec" : " basic") +
                                 (dict ? " dict" : " 16-bit") + (agg ? " agg" : " raw") +
                                 " hops=" + std::to_string(hops);
                        grid.push_back(c);
                    }
    return grid;
}

template <class Addr>
rib::RouteList<Addr> grid_table(unsigned hops)
{
    if constexpr (Addr::kWidth == 32) {
        workload::TableGenConfig gen;
        gen.seed = 61;
        gen.target_routes = 3'000;
        gen.next_hops = hops;
        return workload::generate_table(gen);
    } else {
        workload::TableGen6Config gen;
        gen.seed = 62;
        gen.target_routes = 1'000;
        gen.next_hops = hops;
        return workload::generate_table6(gen);
    }
}

// Address-family-generic churn over `routes`: withdrawals, next-hop
// changes and new more-specific prefixes up to six bits below a route.
template <class Addr>
void churn(poptrie::Poptrie<Addr>& pt, rib::RadixTrie<Addr>& rib,
           const rib::RouteList<Addr>& routes, unsigned hops)
{
    workload::Xorshift128 rng(71);
    const auto hop = [&] { return static_cast<rib::NextHop>(rng.next() % hops + 1); };
    for (const auto& r : routes) {
        switch (rng.next() % 5) {
        case 0:
            pt.apply(rib, r.prefix, kNoRoute);
            break;
        case 1:
            pt.apply(rib, r.prefix, hop());
            break;
        case 2: {
            auto p = r.prefix;
            for (auto bits = rng.next() % 6 + 1; bits != 0 && p.length() < Addr::kWidth; --bits)
                p = p.child(rng.next() & 1);
            pt.apply(rib, p, hop());
            break;
        }
        default:
            break;
        }
    }
    pt.drain();
}

template <class Addr>
void compacting_a_compile_changes_nothing()
{
    for (const auto& c : oracle_grid()) {
        SCOPED_TRACE(c.name);
        rib::RadixTrie<Addr> rib;
        rib.insert_all(grid_table<Addr>(c.hops));
        poptrie::Poptrie<Addr> pt{rib, c.cfg};
        const auto st = pt.stats();
        EXPECT_EQ(st.leaf8_slots, c.cfg.leaf_dict && c.hops <= 256 ? st.leaves : 0u);
        compact_expecting_the_compile(pt, rib);
    }
}

template <class Addr>
void compacted_churn_is_the_compile_of_its_rib()
{
    for (const auto& c : oracle_grid()) {
        SCOPED_TRACE(c.name);
        const auto routes = grid_table<Addr>(c.hops);
        rib::RadixTrie<Addr> rib;
        rib.insert_all(routes);
        poptrie::Poptrie<Addr> pt{rib, c.cfg};
        churn(pt, rib, routes, c.hops);
        pt.compact();
        if (c.cfg.route_aggregation)
            expect_recompaction_changes_nothing(pt, rib);
        else
            expect_the_compile_of_the_rib(pt, rib);
    }
}

}  // namespace

TEST(PoptrieCompactOracle, CompactingACompileChangesNothing)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    compacting_a_compile_changes_nothing<Ipv4Addr>();
    compacting_a_compile_changes_nothing<netbase::Ipv6Addr>();
}

// With route aggregation off, the updater's structure is the compile's, so
// compacting after churn must give the compile of the final RIB byte for
// byte. An aggregated compile merges what the updater keeps apart, so there
// the compacted churn must only be a fixed point of compact().
TEST(PoptrieCompactOracle, CompactedChurnIsTheCompileOfItsRib)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    compacted_churn_is_the_compile_of_its_rib<Ipv4Addr>();
    compacted_churn_is_the_compile_of_its_rib<netbase::Ipv6Addr>();
}

// The deployment shape lpmd --compact-every uses: reader threads forward
// guarded lookup_batch bursts and scalar lookups the whole time, never
// joined, while the writer applies an update feed and compacts between
// updates. Each compaction publishes a fresh pool set under the readers and
// retires the old one through EBR. TSan verifies no lookup races the swap or
// the reclamation; the audit and a second compact() that must change nothing
// verify each pass's layout; the final memory check proves no retired set
// leaks. With Config::leaf_dict each pass
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
        const auto report = analysis::audit(pt, rib, opt);
        ASSERT_TRUE(report.ok()) << "compaction " << compactions << "\n" << report.summary();
        const Layout compacted{pt};
        pt.compact();
        ASSERT_EQ(layout_difference(Layout{pt}, compacted), "")
            << "compaction " << compactions;
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
