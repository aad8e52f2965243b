// tests/test_scale.cpp — the million-route scale-out contracts (ctest label
// `scale`):
//   * golden-hash determinism of the scaled generators: the output is a pure
//     function of the config — same seed, same FIB, byte-for-byte, across
//     platforms and standard libraries (the hashes below were captured from
//     two independent runs and pin the cross-platform contract);
//   * compressed-leaf (Config::leaf_dict) lookup equivalence against basic
//     mode, through compact(), post-compact churn, recompaction, and a
//     snapshot round trip;
//   * the 32-bit pool/slot-index audit: an allocator past 2^31 slots is a
//     netbase::StructuralLimit, never UB or a silently-wrapped size.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc/buddy_allocator.hpp"
#include "netbase/structural_limit.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/tablegen.hpp"
#include "workload/trafficgen.hpp"
#include "workload/xorshift.hpp"

namespace {

using netbase::Ipv4Addr;
using Rib4 = rib::RadixTrie<Ipv4Addr>;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) { return (h ^ v) * 0x100000001B3ull; }

std::uint64_t hash_routes(const rib::RouteList<Ipv4Addr>& routes)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const auto& r : routes) {
        h = fnv(h, r.prefix.bits());
        h = fnv(h, r.prefix.length());
        h = fnv(h, r.next_hop);
    }
    return h;
}

std::uint64_t hash_routes6(const rib::RouteList<netbase::Ipv6Addr>& routes)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const auto& r : routes) {
        h = fnv(h, static_cast<std::uint64_t>(r.prefix.bits() >> 64));
        h = fnv(h, static_cast<std::uint64_t>(r.prefix.bits()));
        h = fnv(h, r.prefix.length());
        h = fnv(h, r.next_hop);
    }
    return h;
}

}  // namespace

// --- generator determinism -------------------------------------------------

TEST(ScaleGen, GoldenHashIpv4)
{
    workload::ScaledTableConfig cfg;
    cfg.seed = 42;
    cfg.target_routes = 100'000;
    cfg.next_hops = 100;
    const auto routes = workload::generate_scaled_table(cfg);
    ASSERT_EQ(routes.size(), 100'000u);
    EXPECT_EQ(hash_routes(routes), 0x22c9f675e9078530ull);
    // Same config again: byte-identical, not merely equal-sized.
    EXPECT_EQ(hash_routes(workload::generate_scaled_table(cfg)), 0x22c9f675e9078530ull);
}

TEST(ScaleGen, GoldenHashIpv6)
{
    workload::ScaledTable6Config cfg;
    cfg.seed = 42;
    cfg.target_routes = 50'000;
    cfg.next_hops = 100;
    const auto routes = workload::generate_scaled_table6(cfg);
    ASSERT_EQ(routes.size(), 50'000u);
    EXPECT_EQ(hash_routes6(routes), 0x3a4d0acab3fa47c5ull);
    EXPECT_EQ(hash_routes6(workload::generate_scaled_table6(cfg)), 0x3a4d0acab3fa47c5ull);
}

TEST(ScaleGen, GoldenHashTrace)
{
    workload::ScaledTableConfig cfg;
    cfg.seed = 42;
    cfg.target_routes = 200'000;
    cfg.next_hops = 100;
    const auto routes = workload::generate_scaled_table(cfg);
    workload::ScaledTraceConfig tc;
    tc.seed = 9;
    tc.packets = 1'000'000;
    const auto trace = workload::make_scaled_trace(routes, tc);
    ASSERT_EQ(trace.size(), 1'000'000u);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const auto a : trace) h = fnv(h, a);
    EXPECT_EQ(h, 0x355a301ec8de9bb9ull);
}

TEST(ScaleGen, SeedChangesOutput)
{
    workload::ScaledTableConfig a;
    a.target_routes = 20'000;
    auto b = a;
    b.seed = a.seed + 1;
    EXPECT_NE(hash_routes(workload::generate_scaled_table(a)),
              hash_routes(workload::generate_scaled_table(b)));
}

TEST(ScaleGen, ExactTargetAndDefaultRoute)
{
    workload::ScaledTableConfig cfg;
    cfg.target_routes = 30'000;
    const auto routes = workload::generate_scaled_table(cfg);
    ASSERT_EQ(routes.size(), 30'000u);
    EXPECT_EQ(routes.front().prefix.length(), 0u);  // default-route anchor
}

TEST(ScaleGen, InfeasibleTargetIsStructuralLimit)
{
    // ~20M is the modeled IPv4 ceiling; 1e9 routes cannot fit the per-length
    // capacity caps and must be a clean rejection, not an endless loop.
    workload::ScaledTableConfig cfg;
    cfg.target_routes = 1'000'000'000;
    EXPECT_THROW((void)workload::generate_scaled_table(cfg), netbase::StructuralLimit);
}

// --- compressed-leaf vs basic equivalence ----------------------------------

namespace {

/// Builds basic and dict FIBs from the same 60k-route scaled table and
/// cross-checks every probe pattern the bench uses. Returns the pair for
/// further abuse.
struct DictPair {
    Rib4 rib;
    std::unique_ptr<poptrie::Poptrie4> basic;
    std::unique_ptr<poptrie::Poptrie4> dict;
};

DictPair make_pair_compacted(std::size_t n_routes)
{
    DictPair p;
    workload::ScaledTableConfig cfg;
    cfg.seed = 7;
    cfg.target_routes = n_routes;
    cfg.next_hops = 100;
    p.rib.insert_all(workload::generate_scaled_table(cfg));
    // quiescent: single-threaded test — no reader exists to wait for.
    const psync::QuiescentSection quiescent;
    poptrie::Config pc;
    pc.direct_bits = 18;
    pc.leaf_dict = false;
    p.basic = std::make_unique<poptrie::Poptrie4>(p.rib, pc);
    p.basic->compact();
    pc.leaf_dict = true;
    p.dict = std::make_unique<poptrie::Poptrie4>(p.rib, pc);
    p.dict->compact();
    return p;
}

void expect_equivalent(const DictPair& p, std::uint64_t seed, std::size_t probes)
{
    workload::Xorshift128 rng(seed);
    for (std::size_t i = 0; i < probes; ++i) {
        const std::uint32_t a = rng.next();
        const auto want = p.rib.lookup(Ipv4Addr{a});
        ASSERT_EQ(p.basic->lookup(Ipv4Addr{a}), want) << "basic diverged at " << a;
        ASSERT_EQ(p.dict->lookup(Ipv4Addr{a}), want) << "dict diverged at " << a;
    }
}

}  // namespace

TEST(ScaleDict, CompactedEquivalence)
{
    const auto p = make_pair_compacted(60'000);
    // The dictionary must actually be engaged, or this test proves nothing.
    const auto st = p.dict->stats();
    ASSERT_GT(st.leaf8_slots, 0u);
    ASSERT_GT(st.leaf_dict_entries, 0u);
    ASSERT_LE(st.leaf_dict_entries, 256u);
    EXPECT_LT(st.memory_bytes, p.basic->stats().memory_bytes);
    expect_equivalent(p, 0xABCD, 200'000);
}

TEST(ScaleDict, ChurnAndRecompactEquivalence)
{
    auto p = make_pair_compacted(60'000);
    // Post-compact churn: updates allocate plain 16-bit runs next to the
    // dict-coded ones; both modes must keep agreeing with the RIB oracle.
    workload::Xorshift128 rng(99);
    // quiescent: single-threaded test — no reader exists to wait for.
    const psync::QuiescentSection quiescent;
    for (int i = 0; i < 4'000; ++i) {
        const std::uint32_t bits = rng.next() & netbase::high_mask<std::uint32_t>(24);
        const netbase::Prefix4 pfx{Ipv4Addr{bits}, 24};
        const auto hop = static_cast<rib::NextHop>(1 + rng.next() % 100);
        // apply() inserts into the RIB itself; the second call sees the
        // route already present and recompiles to the same state.
        p.basic->apply(p.rib, pfx, hop);
        p.dict->apply(p.rib, pfx, hop);
    }
    p.basic->drain();
    p.dict->drain();
    expect_equivalent(p, 0x1234, 100'000);
    // Recompaction re-encodes the churned table from scratch.
    p.basic->compact();
    p.dict->compact();
    expect_equivalent(p, 0x5678, 100'000);
}

TEST(ScaleDict, SnapshotRoundTripEquivalence)
{
    const auto p = make_pair_compacted(60'000);
    snapshot::Image basic_img, dict_img;
    {
        // quiescent: single-threaded test — no reader exists to wait for.
        const psync::QuiescentSection quiescent;
        basic_img = snapshot::serialize(*p.basic);
        dict_img = snapshot::serialize(*p.dict);
    }
    const auto basic_fib =
        snapshot::SnapshotFib<Ipv4Addr>::load_buffer(basic_img.data(), basic_img.size());
    const auto dict_fib =
        snapshot::SnapshotFib<Ipv4Addr>::load_buffer(dict_img.data(), dict_img.size());
    EXPECT_FALSE(basic_fib.config().leaf_dict);
    EXPECT_TRUE(dict_fib.config().leaf_dict);
    EXPECT_GT(dict_fib.header().leaf8_count, 0u);
    EXPECT_LT(dict_img.size(), basic_img.size());
    workload::Xorshift128 rng(0x9E37);
    for (std::size_t i = 0; i < 200'000; ++i) {
        const std::uint32_t a = rng.next();
        const auto want = p.rib.lookup(Ipv4Addr{a});
        ASSERT_EQ(basic_fib.lookup(Ipv4Addr{a}), want) << "snapshot basic diverged at " << a;
        ASSERT_EQ(dict_fib.lookup(Ipv4Addr{a}), want) << "snapshot dict diverged at " << a;
    }
}

// --- 32-bit index audit (satellite: clean StructuralLimit, never wrap) -----

TEST(ScaleLimits, BuddyCtorRejectsOverCapacity)
{
    using alloc::BuddyAllocator;
    EXPECT_NO_THROW(BuddyAllocator{BuddyAllocator::kMaxCapacity});
    EXPECT_THROW(BuddyAllocator{BuddyAllocator::kMaxCapacity + 1},
                 netbase::StructuralLimit);
}
