// tests/test_batch_pipeline.cpp — the batch lookup kernels
// (poptrie/lookup_pipelined.ipp + poptrie/lanes.hpp; DESIGN.md §12).
//
// The contract under test: every batch kernel — the interleaved pipelined
// walk, and the AVX-512 kernel where the CPU has it — returns bit-identical
// results to the scalar walk on every table shape and burst size, and a
// SnapshotFib serves the AVX-512 kernel exactly when the CPU has it.
//
// The kernel tests run over SnapshotFib4::view(), the only structure the
// plain-load kernels are sound over. LaneDispatch prints one
// `batch-kernel avx512: exercised|skipped (...)` line, so a runner without
// AVX-512 shows an explicit skip in the CI log instead of silence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dataplane/engines.hpp"
#include "helpers.hpp"
#include "poptrie/lanes.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/route.hpp"
#include "router/router.hpp"
#include "snapshot/snapshot.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/xorshift.hpp"

namespace {

using netbase::Ipv4Addr;
using poptrie::Poptrie4;
using rib::NextHop;
namespace lanes = poptrie::lanes;

struct Kernel {
    const char* name;
    void (*run)(const lanes::View4&, const std::uint32_t*, NextHop*, std::size_t);
};

/// The kernels this CPU can run: always the pipelined walk, plus AVX-512.
std::vector<Kernel> usable_kernels()
{
    std::vector<Kernel> v{{"pipelined", [](const lanes::View4& view, const std::uint32_t* keys,
                                           NextHop* out, std::size_t n) {
                               poptrie::batch::lookup_batch_pipelined(view, keys, out, n);
                           }}};
    if (lanes::has_avx512()) v.push_back({"avx512", lanes::run_avx512});
    return v;
}

/// The read-only image of `fib` the plain-load kernels walk.
snapshot::SnapshotFib4 image_of(const Poptrie4& fib)
{
    // quiescent: single-threaded test, no readers or writer exist.
    const psync::QuiescentSection q;
    const auto image = snapshot::serialize(fib);
    return snapshot::SnapshotFib4::load_buffer(image.data(), image.size());
}

/// Keys that exercise every structural corner of corner_case_table():
/// direct-step leaves, deep /32 chains, defaults, boundary addresses.
std::vector<std::uint32_t> probe_keys(const rib::RouteList<Ipv4Addr>& routes,
                                      std::size_t n_random, std::uint64_t seed = 99)
{
    std::vector<std::uint32_t> keys;
    for (const auto& r : routes) {
        const auto lo = r.prefix.first_address().value();
        const auto hi = r.prefix.last_address().value();
        keys.push_back(lo);
        keys.push_back(hi);
        keys.push_back(lo - 1);
        keys.push_back(hi + 1);
    }
    workload::Xorshift128 rng(seed);
    for (std::size_t i = 0; i < n_random; ++i) keys.push_back(rng.next());
    return keys;
}

std::vector<std::uint32_t> random_keys(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint32_t> keys;
    workload::Xorshift128 rng(seed);
    for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.next());
    return keys;
}

/// Runs every usable kernel over `keys` against `fib`'s image and compares
/// every result with the scalar lookup() (itself validated against the
/// radix oracle by test_poptrie_lookup).
void expect_kernels_match_scalar(const Poptrie4& fib, const std::vector<std::uint32_t>& keys)
{
    const auto snap = image_of(fib);
    for (const Kernel& k : usable_kernels()) {
        std::vector<NextHop> got(keys.size() + 1, 0xBEEF);
        k.run(snap.view(), keys.data(), got.data(), keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]}))
                << "kernel " << k.name << " key #" << i << " = " << keys[i];
        EXPECT_EQ(got[keys.size()], 0xBEEF) << k.name << " wrote past n";
    }
}

poptrie::Config cfg_default()
{
    return {};
}
poptrie::Config cfg_no_direct()
{
    poptrie::Config c;
    c.direct_bits = 0;
    return c;
}
poptrie::Config cfg_basic()
{
    poptrie::Config c;
    c.leaf_compression = false;
    c.route_aggregation = false;
    return c;
}

TEST(BatchPipeline, AllPathsMatchScalarOnCornerTable)
{
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const auto keys = probe_keys(routes, 4096);
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), cfg_basic()})
        expect_kernels_match_scalar(Poptrie4(rib, cfg), keys);
}

TEST(BatchPipeline, AllPathsMatchScalarOnGeneratedTable)
{
    workload::TableGenConfig tcfg;
    tcfg.target_routes = 20'000;
    tcfg.igp_routes = 2'000;
    const auto rib = testhelpers::load(workload::generate_table(tcfg));
    expect_kernels_match_scalar(Poptrie4(rib), random_keys(8192, 7));
}

TEST(BatchPipeline, KernelsMatchScalarOnDictCodedImage)
{
    // Config::leaf_dict engages at compact(): the kernels must decode the
    // tagged 8-bit leaf runs exactly like the scalar walk.
    workload::TableGenConfig tcfg;
    tcfg.target_routes = 20'000;
    tcfg.next_hops = 16;
    const auto routes = workload::generate_table(tcfg);
    const auto rib = testhelpers::load(routes);
    poptrie::Config cfg;
    cfg.leaf_dict = true;
    Poptrie4 fib(rib, cfg);
    {
        // quiescent: single-threaded test, no readers exist.
        const psync::QuiescentSection q;
        fib.compact();
    }
    ASSERT_GT(image_of(fib).leaf8_count(), 0u) << "table did not dict-code";
    expect_kernels_match_scalar(fib, probe_keys(routes, 4096));
}

TEST(BatchPipeline, BurstSizesIncludingEmptyAndNonMultiples)
{
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const auto all_keys = probe_keys(routes, 64);
    // 0, 1, lane-width-1, lane-width, +1, odd primes, and a long burst:
    // retirement and tail handling off-by-ones live at these sizes.
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{8}, std::size_t{9},
                                std::size_t{13}, std::size_t{31}, std::size_t{32},
                                std::size_t{33}, std::size_t{100}}) {
        ASSERT_LE(n, all_keys.size());
        const std::vector<std::uint32_t> keys(all_keys.begin(),
                                              all_keys.begin() + static_cast<long>(n));
        expect_kernels_match_scalar(fib, keys);
    }
}

TEST(BatchPipeline, EmptyTableEveryPath)
{
    // An empty FIB has an *empty node pool* under direct pointing — the
    // AVX-512 kernel must not gather through retired/inactive lanes (masked
    // gathers), or this test faults.
    for (const auto& cfg : {cfg_default(), cfg_no_direct()}) {
        const auto snap = image_of(Poptrie4(cfg));
        const auto keys = random_keys(256, 3);
        for (const Kernel& k : usable_kernels()) {
            std::vector<NextHop> got(keys.size(), 7);
            k.run(snap.view(), keys.data(), got.data(), keys.size());
            for (const NextHop h : got) ASSERT_EQ(h, rib::kNoRoute) << k.name;
        }
    }
}

TEST(BatchPipeline, AllDefaultRouteTable)
{
    rib::RouteList<Ipv4Addr> routes{{*netbase::parse_prefix4("0.0.0.0/0"), 42}};
    const auto rib = testhelpers::load(routes);
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), cfg_basic()}) {
        const auto snap = image_of(Poptrie4(rib, cfg));
        const auto keys = random_keys(333, 5);
        for (const Kernel& k : usable_kernels()) {
            std::vector<NextHop> got(keys.size(), 0);
            k.run(snap.view(), keys.data(), got.data(), keys.size());
            for (const NextHop h : got) ASSERT_EQ(h, 42) << k.name;
        }
    }
}

TEST(BatchPipeline, OutOfOrderLaneRetirement)
{
    // One burst whose lanes retire at maximally different depths: lane 0
    // walks to a /32 chain, lane 1 resolves at the direct step, alternating.
    // The interleave/SIMD state machines must keep retired lanes retired
    // while deep lanes continue.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const std::uint32_t deep = netbase::parse_prefix4("10.32.5.193/32")->first_address().value();
    const std::uint32_t shallow = netbase::parse_prefix4("200.0.0.0/30")->first_address().value();
    const std::uint32_t direct_leaf = 0x30303030;  // 48.x: default route via direct slot
    std::vector<std::uint32_t> keys;
    for (int i = 0; i < 32; ++i)
        keys.push_back(i % 2 == 0 ? deep : (i % 4 == 1 ? shallow : direct_leaf));
    expect_kernels_match_scalar(fib, keys);
}

TEST(BatchPipeline, PoptrieLookupBatchBurstWidths)
{
    // The churn-safe Poptrie::lookup_batch (AtomicView) serves whatever burst
    // the dataplane hands it: calls of 8, 16, 32 and a ragged 13 keys must
    // all agree with the scalar path.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const auto keys = probe_keys(routes, 500);
    // reader: single-threaded test, no concurrent updater exists.
    const psync::EbrReadSection section;
    for (const std::size_t width : {std::size_t{8}, std::size_t{16}, std::size_t{32},
                                    std::size_t{13}}) {
        std::vector<NextHop> got(keys.size());
        for (std::size_t i = 0; i < keys.size(); i += width)
            fib.lookup_batch<true>(keys.data() + i, got.data() + i,
                                   std::min(width, keys.size() - i));
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]})) << "width " << width;
    }
}

TEST(BatchPipeline, SnapshotFibServesEveryUsablePath)
{
    // The served kernel is AVX-512 exactly when the CPU has it, and it
    // answers like the scalar walk.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const auto snap = image_of(fib);
    EXPECT_EQ(snap.batch_kernel(), lanes::has_avx512() ? "avx512" : "pipelined");
    const auto keys = probe_keys(routes, 1024);
    std::vector<NextHop> got(keys.size());
    snap.lookup_batch(keys.data(), got.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]}))
            << "snapshot kernel " << snap.batch_kernel() << " key " << keys[i];
}

TEST(BatchPipeline, SnapshotEngineMatchesPoptrieEngine)
{
    // The two serving engines — the live trie under EBR, and its image read
    // only — must forward every burst identically.
    const auto routes = testhelpers::corner_case_table();
    router::Router4 router;
    for (const auto& r : routes)
        router.add_route(r.prefix,
                         {netbase::Ipv4Addr{0x0A000000u + r.next_hop}, "eth0"});
    const auto keys = probe_keys(routes, 512);
    std::vector<NextHop> want(keys.size());
    {
        dataplane::PoptrieEngine base(router);
        auto reader = base.make_reader();
        const dataplane::EbrReader::Guard guard(reader);
        base.lookup_batch(keys.data(), want.data(), keys.size());
    }
    const auto snap = image_of(router.fib());
    dataplane::SnapshotEngine eng(snap);
    auto reader = eng.make_reader();
    const dataplane::NullReader::Guard guard(reader);
    std::vector<NextHop> got(keys.size());
    eng.lookup_batch(keys.data(), got.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) ASSERT_EQ(got[i], want[i]);
}

TEST(LaneDispatch, CompiledPathsExercisedOrExplicitlySkipped)
{
    // The run-log contract for CI's pipeline step: the AVX-512 kernel is
    // either exercised (equivalence checked here) or skipped with the reason.
    if (!lanes::has_avx512()) {
        std::printf("batch-kernel avx512: skipped (cpu lacks avx512vpopcntdq)\n");
        return;
    }
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const auto snap = image_of(fib);
    const auto keys = probe_keys(routes, 256);
    std::vector<NextHop> got(keys.size());
    lanes::run_avx512(snap.view(), keys.data(), got.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]})) << "key " << keys[i];
    std::printf("batch-kernel avx512: exercised\n");
}

}  // namespace
