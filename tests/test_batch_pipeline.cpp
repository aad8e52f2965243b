// tests/test_batch_pipeline.cpp — the batch lookup walk
// (poptrie/lookup_pipelined.ipp; DESIGN.md §12).
//
// The contract under test: the refill walk returns bit-identical results to
// the scalar walk on every table shape and burst size, through both views
// that serve it — the live trie's Poptrie::lookup_batch (AtomicView) and a
// SnapshotFib image (PlainView). The edges worth a case of their own are the
// 256-key chunk boundary, runs of equal keys (coalesced: only the first key
// of a run walks), bursts whose pending list is empty, and bursts where
// every key walks from the root.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/engines.hpp"
#include "helpers.hpp"
#include "netbase/bits.hpp"
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

/// The read-only image of `fib`.
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

/// The two views the batch walk serves through.
enum class Path { kLive, kImage };

const char* name(Path p)
{
    return p == Path::kLive ? "live trie" : "image view";
}

/// One batch call over `keys` through `path`; fails the test if the walk
/// writes past `n`.
std::vector<NextHop> run_batch(Path path, const Poptrie4& fib,
                               const snapshot::SnapshotFib4& snap,
                               const std::vector<std::uint32_t>& keys)
{
    std::vector<NextHop> got(keys.size() + 1, 0xBEEF);
    if (path == Path::kLive) {
        // reader: single-threaded test, no concurrent updater exists.
        const psync::EbrReadSection section;
        if (fib.config().leaf_compression)
            fib.lookup_batch<true>(keys.data(), got.data(), keys.size());
        else
            fib.lookup_batch<false>(keys.data(), got.data(), keys.size());
    } else {
        poptrie::batch::lookup_batch_pipelined(snap.view(), keys.data(), got.data(),
                                               keys.size());
    }
    EXPECT_EQ(got.back(), 0xBEEF) << name(path) << " wrote past n";
    got.pop_back();
    return got;
}

/// Runs the batch walk over `keys` through both views and compares every
/// result with the scalar lookup() (itself validated against the radix
/// oracle by test_poptrie_lookup).
void expect_batch_matches_scalar(const Poptrie4& fib, const std::vector<std::uint32_t>& keys)
{
    const auto snap = image_of(fib);
    for (const Path path : {Path::kLive, Path::kImage}) {
        const auto got = run_batch(path, fib, snap, keys);
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]}))
                << name(path) << " key #" << i << " = " << keys[i];
    }
}

/// How the direct step of an image treats a key: the slot's top two bits
/// (0 or 1: a node index, 2: a next hop, 3: a folded run).
template <class View>
unsigned direct_kind(const View& v, typename View::value_type key)
{
    return v.direct_slot(static_cast<std::size_t>(netbase::extract(key, 0, v.direct_bits))) >> 30;
}
constexpr unsigned kNextHopSlot = 2;
constexpr unsigned kFoldedSlot = 3;

/// Does `key` resolve at the direct step of `fib`'s image, with no folded
/// run to decode?
bool resolves_at_direct_step(const snapshot::SnapshotFib4& snap, std::uint32_t key)
{
    return snap.view().direct_bits != 0 && direct_kind(snap.view(), key) == kNextHopSlot;
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
/// `c` with the paper's 16-bit leaves in place of the default dictionary
/// codes: a fresh compile then holds 16-bit runs only.
poptrie::Config plain_leaves(poptrie::Config c)
{
    c.leaf_dict = false;
    return c;
}
/// The paper's basic structure, with its 16-bit leaves.
poptrie::Config cfg_basic()
{
    poptrie::Config c;
    c.leaf_compression = false;
    c.route_aggregation = false;
    c.leaf_dict = false;
    return c;
}

TEST(BatchPipeline, AllPathsMatchScalarOnCornerTable)
{
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const auto keys = probe_keys(routes, 4096);
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), plain_leaves(cfg_default()),
                            plain_leaves(cfg_no_direct()), cfg_basic()})
        expect_batch_matches_scalar(Poptrie4(rib, cfg), keys);
}

TEST(BatchPipeline, AllPathsMatchScalarOnGeneratedTable)
{
    workload::TableGenConfig tcfg;
    tcfg.target_routes = 20'000;
    tcfg.igp_routes = 2'000;
    const auto rib = testhelpers::load(workload::generate_table(tcfg));
    for (const auto& cfg : {cfg_default(), plain_leaves(cfg_default())})
        expect_batch_matches_scalar(Poptrie4(rib, cfg), random_keys(8192, 7));
}

TEST(BatchPipeline, KernelsMatchScalarOnDictCodedImage)
{
    // The compile and compact() code the leaf runs (Config::leaf_dict, the
    // default): both views must decode the tagged 8-bit leaf runs (and
    // prefetch them) exactly like the scalar walk, in either layout.
    workload::TableGenConfig tcfg;
    tcfg.target_routes = 20'000;
    tcfg.next_hops = 16;
    const auto routes = workload::generate_table(tcfg);
    const auto rib = testhelpers::load(routes);
    Poptrie4 fib(rib);
    ASSERT_GT(image_of(fib).header().leaf8_count, 0u) << "table did not dict-code";
    expect_batch_matches_scalar(fib, probe_keys(routes, 4096));
    {
        // quiescent: single-threaded test, no readers exist.
        const psync::QuiescentSection q;
        fib.compact();
    }
    expect_batch_matches_scalar(fib, probe_keys(routes, 4096));
}

TEST(BatchPipeline, BurstSizesIncludingEmptyAndNonMultiples)
{
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const auto all_keys = probe_keys(routes, 1000);
    // 0, 1, small odd sizes, sizes around the direct pass's prefetch
    // distance and around the 256-key chunk: window fill, drain, the
    // prefetch preamble's end and chunk-boundary off-by-ones live at these
    // sizes. With direct pointing off every key walks from the root.
    constexpr std::size_t ahead = poptrie::batch::kDirectAhead;
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), plain_leaves(cfg_default()),
                            plain_leaves(cfg_no_direct())}) {
        const Poptrie4 fib(rib, cfg);
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{13},
              std::size_t{31}, std::size_t{32}, std::size_t{33}, ahead - 1, ahead, ahead + 1,
              std::size_t{100}, std::size_t{255}, std::size_t{256}, std::size_t{257},
              std::size_t{511}, std::size_t{513}, std::size_t{1000}}) {
            ASSERT_LE(n, all_keys.size());
            const std::vector<std::uint32_t> keys(all_keys.begin(),
                                                  all_keys.begin() + static_cast<long>(n));
            expect_batch_matches_scalar(fib, keys);
        }
    }
}

TEST(BatchPipeline, RunsOfEqualKeys)
{
    // Only the first key of a run walks; the rest copy its hop. Runs that
    // end at a trie node and at a direct leaf, a run across the 255/256
    // chunk boundary, and a burst of one key repeated.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const std::uint32_t deep = netbase::parse_prefix4("10.32.5.193/32")->first_address().value();
    const std::uint32_t direct_leaf = 0x30303030;  // 48.x: default route via direct slot
    const auto filler = random_keys(600, 11);
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), plain_leaves(cfg_default()),
                            plain_leaves(cfg_no_direct())}) {
        const Poptrie4 fib(rib, cfg);
        if (cfg.direct_bits != 0) {
            const auto snap = image_of(fib);
            ASSERT_FALSE(resolves_at_direct_step(snap, deep));
            ASSERT_TRUE(resolves_at_direct_step(snap, direct_leaf));
        }
        std::vector<std::uint32_t> mixed;
        for (int r = 0; r < 20; ++r) {
            mixed.insert(mixed.end(), static_cast<std::size_t>(r % 5 + 1), deep);
            mixed.push_back(filler[static_cast<std::size_t>(r)]);
            mixed.insert(mixed.end(), static_cast<std::size_t>(r % 3 + 2), direct_leaf);
        }
        expect_batch_matches_scalar(fib, mixed);

        for (const std::uint32_t key : {deep, direct_leaf}) {
            std::vector<std::uint32_t> straddle(filler.begin(), filler.begin() + 520);
            std::fill(straddle.begin() + 250, straddle.begin() + 262, key);
            expect_batch_matches_scalar(fib, straddle);
            expect_batch_matches_scalar(fib, std::vector<std::uint32_t>(256, key));
            expect_batch_matches_scalar(fib, std::vector<std::uint32_t>(300, key));
        }
    }
}

TEST(BatchPipeline, BurstResolvedAtDirectStep)
{
    // Every key resolves at the direct step: the pending list stays empty
    // and the window never fills.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const auto snap = image_of(fib);
    std::vector<std::uint32_t> keys;
    for (const std::uint32_t key : random_keys(4000, 13))
        if (resolves_at_direct_step(snap, key)) keys.push_back(key);
    ASSERT_GE(keys.size(), 600u);
    keys.resize(600);
    expect_batch_matches_scalar(fib, keys);
}

TEST(BatchPipeline, EmptyTableEveryPath)
{
    // An empty FIB has an *empty node pool* under direct pointing: no walk
    // may touch it.
    for (const auto& cfg : {cfg_default(), cfg_no_direct()}) {
        const Poptrie4 fib(cfg);
        const auto snap = image_of(fib);
        const auto keys = random_keys(256, 3);
        for (const Path path : {Path::kLive, Path::kImage})
            for (const NextHop h : run_batch(path, fib, snap, keys))
                ASSERT_EQ(h, rib::kNoRoute) << name(path);
    }
}

TEST(BatchPipeline, AllDefaultRouteTable)
{
    rib::RouteList<Ipv4Addr> routes{{*netbase::parse_prefix4("0.0.0.0/0"), 42}};
    const auto rib = testhelpers::load(routes);
    for (const auto& cfg : {cfg_default(), cfg_no_direct(), cfg_basic()}) {
        const Poptrie4 fib(rib, cfg);
        const auto snap = image_of(fib);
        const auto keys = random_keys(333, 5);
        for (const Path path : {Path::kLive, Path::kImage})
            for (const NextHop h : run_batch(path, fib, snap, keys))
                ASSERT_EQ(h, 42) << name(path);
    }
}

TEST(BatchPipeline, OutOfOrderLaneRetirement)
{
    // One burst whose lookups retire at maximally different depths: key 0
    // walks to a /32 chain, key 1 resolves at the direct step, alternating.
    // The window must refill retired slots while deep walks continue.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const std::uint32_t deep = netbase::parse_prefix4("10.32.5.193/32")->first_address().value();
    const std::uint32_t shallow = netbase::parse_prefix4("200.0.0.0/30")->first_address().value();
    const std::uint32_t direct_leaf = 0x30303030;  // 48.x: default route via direct slot
    std::vector<std::uint32_t> keys;
    for (int i = 0; i < 32; ++i)
        keys.push_back(i % 2 == 0 ? deep : (i % 4 == 1 ? shallow : direct_leaf));
    expect_batch_matches_scalar(fib, keys);
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
    // SnapshotFib::lookup_batch, the image engine's serving call, answers
    // like the scalar walk.
    const auto routes = testhelpers::corner_case_table();
    const auto rib = testhelpers::load(routes);
    const Poptrie4 fib(rib);
    const auto snap = image_of(fib);
    const auto keys = probe_keys(routes, 1024);
    std::vector<NextHop> got(keys.size());
    snap.lookup_batch(keys.data(), got.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(got[i], fib.lookup(Ipv4Addr{keys[i]})) << "key " << keys[i];
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

/// Bursts that mix every way a lookup ends — a direct next hop, a folded
/// run, a node walk, a miss — with runs of equal keys, through both views,
/// against the scalar walk and the RIB. Requires each kind to occur (a
/// folded run only when `folds`).
template <class Addr>
void expect_mixed_bursts_match(const poptrie::Poptrie<Addr>& fib, const rib::RadixTrie<Addr>& rib,
                               bool folds, const std::string& what)
{
    using V = typename Addr::value_type;
    SCOPED_TRACE(what);
    snapshot::Image image;
    {
        // writer: single-threaded test, no other thread touches the FIB.
        const psync::EbrWriterSection writer;
        image = snapshot::serialize(fib);
    }
    const auto snap = snapshot::SnapshotFib<Addr>::load_buffer(image.data(), image.size());
    const auto& view = snap.view();

    // Sort keys — every route's edges and their neighbours, then random
    // ones — by how their lookup ends: next hop, folded, node, miss.
    std::vector<V> by_kind[4];
    const auto sort_key = [&](V key) {
        const unsigned kind = rib.lookup(Addr{key}) == rib::kNoRoute ? 3
                              : direct_kind(view, key) == kNextHopSlot ? 0
                              : direct_kind(view, key) == kFoldedSlot  ? 1
                                                                       : 2;
        if (by_kind[kind].size() < 2000) by_kind[kind].push_back(key);
    };
    for (const auto& r : rib.routes()) {
        const V lo = r.prefix.first_address().value();
        const V hi = r.prefix.last_address().value();
        for (const V key : {lo, hi, static_cast<V>(lo - 1), static_cast<V>(hi + 1)}) sort_key(key);
    }
    workload::Xorshift128 rng(41);
    for (int i = 0; i < 200'000; ++i) {
        V key = rng.next();
        if constexpr (sizeof(V) > 4) key = (static_cast<V>(rng.next64()) << 64) | rng.next64();
        sort_key(key);
    }
    EXPECT_FALSE(by_kind[0].empty());
    EXPECT_EQ(by_kind[1].empty(), !folds);
    EXPECT_FALSE(by_kind[2].empty());
    EXPECT_FALSE(by_kind[3].empty());

    // Round-robin over the kinds, every fifth key repeated into a run.
    std::vector<V> keys;
    for (std::size_t i = 0; keys.size() < 3000; ++i) {
        const auto& bucket = by_kind[i % 4];
        if (bucket.empty()) continue;
        const V key = bucket[(i / 4) % bucket.size()];
        keys.insert(keys.end(), i % 5 == 0 ? 2 + i % 4 : 1, key);
    }
    for (const std::size_t n : {std::size_t{31}, std::size_t{256}, std::size_t{300}, keys.size()}) {
        std::vector<NextHop> live(n), imaged(n);
        {
            // reader: single-threaded test, no concurrent updater exists.
            const psync::EbrReadSection section;
            fib.template lookup_batch<true>(keys.data(), live.data(), n);
        }
        poptrie::batch::lookup_batch_pipelined(view, keys.data(), imaged.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto want = rib.lookup(Addr{keys[i]});
            ASSERT_EQ(fib.lookup(Addr{keys[i]}), want) << "scalar, key #" << i;
            ASSERT_EQ(live[i], want) << "live trie, key #" << i << " of " << n;
            ASSERT_EQ(imaged[i], want) << "image view, key #" << i << " of " << n;
        }
    }
}

}  // namespace

TEST(BatchPipeline, FoldedRunsInMixedBursts)
{
    // Config::leaf_dict folds childless direct-slot roots into runs of the
    // code array; the batch walk resolves them in a pass of their own. Five
    // FIBs: fresh, churned until some folded roots are rebuilt as nodes,
    // compacted (folded again), IPv6 at s = 18, and 16-bit leaves, where
    // nothing folds. The table has no default route, so some keys miss.
    workload::TableGenConfig tcfg;
    tcfg.target_routes = 20'000;
    tcfg.igp_routes = 2'000;
    tcfg.next_hops = 24;
    auto routes = workload::generate_table(tcfg);
    std::erase_if(routes, [](const auto& r) { return r.prefix.length() == 0; });
    auto rib = testhelpers::load(routes);
    {
        Poptrie4 fib(rib);
        const std::size_t compiled = fib.stats().folded_roots;
        ASSERT_GT(compiled, 0u);
        expect_mixed_bursts_match(fib, rib, true, "fresh");
        // writer: single-threaded test, this thread is the only writer.
        const psync::EbrWriterSection writer;
        for (std::size_t i = 0; i < routes.size(); i += 3)
            fib.apply(rib, routes[i].prefix, static_cast<NextHop>(routes[i].next_hop % 23 + 1));
        const std::size_t churned = fib.stats().folded_roots;
        ASSERT_GT(churned, 0u);
        ASSERT_LT(churned, compiled);
        expect_mixed_bursts_match(fib, rib, true, "churned");
        fib.compact();
        ASSERT_GT(fib.stats().folded_roots, churned);
        expect_mixed_bursts_match(fib, rib, true, "compacted");
    }
    expect_mixed_bursts_match(Poptrie4(rib, plain_leaves(cfg_default())), rib, false,
                              "16-bit leaves");

    workload::TableGen6Config gen6;
    gen6.seed = 42;
    gen6.target_routes = 3'000;
    auto routes6 = workload::generate_table6(gen6);
    std::erase_if(routes6, [](const auto& r) { return r.prefix.length() == 0; });
    // A /16 answers four direct slots; /20s in blocks of their own are
    // childless roots at s = 18, which fold.
    routes6.push_back({{netbase::Ipv6Addr{netbase::Ipv6Addr::value_type{0xB000u} << 112}, 16}, 9});
    for (unsigned i = 0; i < 64; ++i)
        routes6.push_back({{netbase::Ipv6Addr{static_cast<netbase::Ipv6Addr::value_type>(
                                                  0xA000u + 4 * i)
                                              << 112},
                            20},
                           static_cast<NextHop>(1 + i % 5)});
    rib::RadixTrie<netbase::Ipv6Addr> rib6;
    rib6.insert_all(routes6);
    const poptrie::Poptrie6 fib6(rib6);
    ASSERT_EQ(fib6.config().direct_bits, 18u);
    expect_mixed_bursts_match(fib6, rib6, true, "ipv6 s=18");
}
