// Tests for the reserve-and-commit arena and its pool container, and for the
// two contracts it gives the FIB: the pools grow in place under live readers
// (their storage never moves), and running out of memory is a clean
// std::bad_alloc that leaves the published FIB serving.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/arena.hpp"
#include "analysis/audit.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "router/router.hpp"
#include "workload/xorshift.hpp"

using alloc::Arena;
using alloc::ArenaVector;
using alloc::Backing;
using netbase::Ipv4Addr;
using poptrie::Poptrie4;

TEST(Arena, MapsZeroedUsableMemory)
{
    Arena arena;
    auto block = arena.map(100 * sizeof(std::uint64_t));
    ASSERT_NE(block.ptr, nullptr);
    EXPECT_GE(block.committed, 100 * sizeof(std::uint64_t));
    auto* p = static_cast<std::uint64_t*>(block.ptr);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(p[i], 0u);
    p[0] = 0xDEADBEEF;  // writable
    EXPECT_EQ(arena.report().bytes_reserved, block.committed);
    arena.unmap(block);
    EXPECT_EQ(arena.report().bytes_reserved, 0u);
}

TEST(Arena, ReportTracksWeakestLiveBacking)
{
    Arena arena;
    auto a = arena.map(1 << 16);
    auto b = arena.map(1 << 16);
    const auto report = arena.report();
    // Two live blocks: the aggregate backing can be no stronger than either.
    EXPECT_LE(static_cast<int>(report.backing),
              static_cast<int>(std::min(a.backing, b.backing)));
    EXPECT_EQ(report.bytes_reserved, a.committed + b.committed);
    EXPECT_GT(report.page_size, 0u);
    arena.unmap(a);
    arena.unmap(b);
}

TEST(Arena, BackingNamesAreStable)
{
    EXPECT_STREQ(alloc::backing_name(Backing::kFileMapped), "file-mapped");
    EXPECT_STREQ(alloc::backing_name(Backing::kNormalPages), "normal-pages");
    EXPECT_STREQ(alloc::backing_name(Backing::kThpAdvised), "thp-advised");
}

TEST(Arena, ThpStatusIsNonEmpty)
{
    // "always", "madvise", "never", or "unavailable" — never an empty string
    // (provenance stamps this verbatim).
    EXPECT_FALSE(alloc::thp_status().empty());
}

TEST(ArenaVector, ResizeZeroFillsAndPreservesContents)
{
    Arena arena;
    ArenaVector<std::uint32_t> v{&arena, 1 << 20};
    EXPECT_TRUE(v.empty());
    v.resize(10);
    for (std::size_t i = 0; i < 10; ++i) {
        ASSERT_EQ(v[i], 0u);
        v[i] = static_cast<std::uint32_t>(i + 1);
    }
    v.resize(1'000'000);  // commits a second step
    for (std::size_t i = 0; i < 10; ++i) ASSERT_EQ(v[i], i + 1);
    for (std::size_t i = 10; i < 1'000'000; ++i) ASSERT_EQ(v[i], 0u);
    EXPECT_EQ(v.size(), 1'000'000u);
    EXPECT_GE(v.capacity(), v.size());

    // Shrink keeps storage; regrow within capacity re-zeroes the tail.
    v.resize(5);
    v.resize(20);
    for (std::size_t i = 5; i < 20; ++i) ASSERT_EQ(v[i], 0u);
}

TEST(ArenaVector, AssignAndMove)
{
    Arena arena;
    ArenaVector<std::uint16_t> v{&arena, 4096};
    v.assign(1000, 42);
    ASSERT_EQ(v.size(), 1000u);
    for (const auto x : v) ASSERT_EQ(x, 42);

    ArenaVector<std::uint16_t> w{std::move(v)};
    EXPECT_EQ(w.size(), 1000u);
    EXPECT_EQ(w[999], 42);
    EXPECT_EQ(v.size(), 0u);  // NOLINT(bugprone-use-after-move): defined state

    ArenaVector<std::uint16_t> z{&arena, 4096};
    z.resize(3);
    z = std::move(w);
    EXPECT_EQ(z.size(), 1000u);
    EXPECT_EQ(z[0], 42);
    EXPECT_EQ(arena.report().bytes_reserved, z.capacity() * sizeof(std::uint16_t));
}

// The reservation is address space: nothing is committed until the vector
// grows, each growth commits whole kCommitStep steps in place, and data()
// stays put from the first element to the last step.
TEST(ArenaVector, StorageNeverMovesAndCommitsInSteps)
{
    Arena arena;
    constexpr std::size_t kPerStep = alloc::kCommitStep / sizeof(std::uint64_t);
    ArenaVector<std::uint64_t> v{&arena, 8 * kPerStep};
    EXPECT_EQ(v.max_size(), 8 * kPerStep);
    EXPECT_EQ(arena.report().bytes_reserved, 0u);

    v.resize(1);
    const std::uint64_t* const base = v.data();
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(arena.report().bytes_reserved, alloc::kCommitStep);
    v[0] = 7;
    for (std::size_t steps = 2; steps <= 6; ++steps) {
        const std::size_t old = v.size();
        const std::size_t n = steps * kPerStep - kPerStep / 2;  // inside step `steps`
        v.resize(n);
        ASSERT_EQ(v.data(), base) << "storage moved at " << steps << " steps";
        EXPECT_EQ(arena.report().bytes_reserved, steps * alloc::kCommitStep);
        EXPECT_EQ(v.capacity(), steps * kPerStep);
        for (std::size_t i = old; i < n; i += 4093) ASSERT_EQ(v[i], 0u);
        ASSERT_EQ(v[n - 1], 0u);
        v[n - 1] = steps;
    }
    EXPECT_EQ(v[0], 7u);
    EXPECT_EQ(v[2 * kPerStep - kPerStep / 2 - 1], 2u);

    // Past the reservation: refused, and nothing changes.
    const std::size_t size = v.size();
    EXPECT_THROW(v.resize(v.max_size() + 1), std::length_error);
    EXPECT_EQ(v.size(), size);
    EXPECT_EQ(v.data(), base);
    EXPECT_EQ(arena.report().bytes_reserved, 6 * alloc::kCommitStep);
}

// --- the FIB on top of it --------------------------------------------------

namespace {

constexpr rib::NextHop kHops = 16;

/// Route i of the growth test: one /32 in the i-th /18 block, at a scattered
/// offset. Under direct pointing (s = 18) each one builds a chain of three
/// nodes (the /18, /24 and /30 levels) carrying six leaf slots.
std::uint32_t route_addr(std::uint32_t i)
{
    return (i << 14) | ((i * 2654435761u) >> 18);
}

rib::NextHop route_hop(std::uint32_t i) { return static_cast<rib::NextHop>(1 + i % kHops); }

}  // namespace

// The writer grows both pools of an empty Config{} trie, the node pool past
// eight commit steps, while four readers keep looking up through scalar and
// batch walks. Every hop a reader sees must be one the table can hold; after
// the readers stop, the trie must match its RIB and audit clean. A pool that
// moved its storage on growth would leave the readers on unmapped memory.
TEST(ArenaPoptrie, PoolsGrowUnderLiveReaders)
{
    constexpr std::size_t kNodesPerStep = alloc::kCommitStep / sizeof(Poptrie4::Node);
    constexpr std::size_t kLeavesPerStep = alloc::kCommitStep / sizeof(rib::NextHop);
    constexpr std::uint32_t kRoutes = 240'000;

    rib::RadixTrie<Ipv4Addr> rib;
    Poptrie4 pt{poptrie::Config{}};
    const auto& pools = analysis::AuditAccess::pools(pt);
    const Poptrie4::Node* const nodes = pools.nodes.data();
    const rib::NextHop* const leaves = pools.leaves.data();
    ASSERT_LT(pt.stats().node_high_water, kNodesPerStep);
    ASSERT_LT(pt.stats().leaf_high_water, kLeavesPerStep);

    std::atomic<bool> stop{false};
    std::atomic<std::uint32_t> inserted{0};
    std::atomic<std::uint64_t> lookups{0};
    std::atomic<std::uint64_t> invalid{0};
    std::vector<std::jthread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&, r] {
            auto slot = pt.register_reader();
            workload::Xorshift128 rng(100 + r);
            std::vector<std::uint32_t> keys(256);
            std::vector<rib::NextHop> hops(keys.size());
            while (!stop.load(std::memory_order_relaxed)) {
                // Half the keys hit routes already inserted (deep walks), the
                // rest land anywhere.
                const std::uint32_t n = inserted.load(std::memory_order_relaxed);
                for (std::size_t i = 0; i < keys.size(); ++i)
                    keys[i] = (i % 2 == 0 && n != 0) ? route_addr(rng.next() % n) : rng.next();
                std::uint64_t bad = 0;
                {
                    const psync::EbrDomain::Guard g{slot};
                    pt.lookup_batch<true>(keys.data(), hops.data(), keys.size());
                    for (std::size_t i = 0; i < 32; ++i)
                        bad += pt.lookup(Ipv4Addr{keys[i]}) > kHops ? 1 : 0;
                }
                for (const auto h : hops) bad += h > kHops ? 1 : 0;
                invalid.fetch_add(bad, std::memory_order_relaxed);
                lookups.fetch_add(keys.size() + 32, std::memory_order_relaxed);
            }
        });
    }

    for (std::uint32_t i = 0; i < kRoutes; ++i) {
        pt.apply(rib, netbase::Prefix4{Ipv4Addr{route_addr(i)}, 32}, route_hop(i));
        inserted.store(i + 1, std::memory_order_relaxed);
    }
    stop = true;
    readers.clear();

    EXPECT_GT(lookups.load(), 0u);
    EXPECT_EQ(invalid.load(), 0u);
    const auto st = pt.stats();
    EXPECT_GE(st.node_high_water, 8 * kNodesPerStep);
    EXPECT_GT(st.leaf_high_water, kLeavesPerStep);
    EXPECT_EQ(pools.nodes.data(), nodes) << "the node pool moved";
    EXPECT_EQ(pools.leaves.data(), leaves) << "the leaf pool moved";

    {
        // writer: the readers have joined; only this thread is left.
        const psync::EbrWriterSection writer;
        pt.drain();
    }
    workload::Xorshift128 rng(7);
    for (std::uint32_t i = 0; i < 200'000; ++i) {
        // Alternate random keys with neighbours of a route inside its /30.
        const std::uint32_t a =
            i % 2 == 0 ? rng.next() : route_addr(rng.next() % kRoutes) ^ (i & 3);
        ASSERT_EQ(pt.lookup(Ipv4Addr{a}), rib.lookup(Ipv4Addr{a})) << "at " << a;
    }
    const auto report = analysis::audit(pt, rib);
    EXPECT_TRUE(report.ok()) << report.summary();
}

namespace {

/// This process's VmData or VmSize (/proc/self/status), in bytes.
std::size_t vm_bytes(const std::string& field)
{
    std::ifstream status("/proc/self/status");
    std::string key;
    std::size_t kib = 0;
    while (status >> key) {
        if (key == field + ":") {
            status >> kib;
            return kib * 1024;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

/// Lowers `resource` to `room` bytes above what the process uses now.
bool lower_limit(int resource, const std::string& usage_field, std::size_t room)
{
    rlimit lowered{};
    if (getrlimit(resource, &lowered) != 0) return false;
    lowered.rlim_cur = vm_bytes(usage_field) + room;
    return lowered.rlim_cur > room && setrlimit(resource, &lowered) == 0;
}

/// Death-test child: lowers `resource` to `slack` bytes above what the
/// process uses (RLIMIT_DATA: a commit is refused; RLIMIT_AS: a reservation
/// is) and checks that Router::load throws std::bad_alloc and leaves the
/// router empty; then that Poptrie::compact does the same with
/// `compact_slack` and leaves the FIB it would have replaced serving, its
/// layout and Stats unchanged (analysis::layout_difference). Then
/// it doubles the load's room until the load fits, and each refusal on the
/// way must leave the router empty too. The slacks are chosen so that only
/// the arenas' mmap/mprotect calls are ever refused, never a heap
/// allocation (which a sanitizer's allocator reports as a fatal error
/// instead of throwing). Exits with the number of the first failed check,
/// 0 when all hold.
[[noreturn]] void out_of_memory_child(int resource, const char* usage_field, std::size_t slack,
                                      std::size_t compact_slack)
{
    rib::RouteList<Ipv4Addr> routes;
    rib::RadixTrie<Ipv4Addr> rib;
    for (std::uint32_t i = 0; i < 2000; ++i) {
        const netbase::Prefix4 p{Ipv4Addr{route_addr(i * 97)}, 24 + i % 9};
        routes.push_back({p, route_hop(i)});
        rib.insert(p, route_hop(i));
    }
    Poptrie4 pt{rib};
    router::Router4 router;
    const auto adjacency_of = [](rib::NextHop hop) {
        return router::Adjacency<Ipv4Addr>{Ipv4Addr{0x0A000000u + hop}, "eth0"};
    };
    rlimit saved{};
    if (getrlimit(resource, &saved) != 0) std::_Exit(10);
    // Loads the table with `room` bytes to spare; true when it fit.
    const auto load_with = [&](std::size_t room) {
        if (!lower_limit(resource, usage_field, room)) std::_Exit(11);
        bool threw = false;
        try {
            // quiescent: this child has no other thread.
            const psync::QuiescentSection quiescent;
            router.load(routes, adjacency_of);
        } catch (const std::bad_alloc&) {
            threw = true;
        }
        if (setrlimit(resource, &saved) != 0) std::_Exit(12);
        if (threw && (router.route_count() != 0 ||
                      router.lookup_index(Ipv4Addr{route_addr(97)}) != rib::kNoRoute))
            std::_Exit(2);
        return !threw;
    };

    if (load_with(slack)) std::_Exit(1);

    const analysis::Layout published{pt};
    if (!lower_limit(resource, usage_field, compact_slack)) std::_Exit(11);
    bool threw = false;
    try {
        // writer: this child has no other thread.
        const psync::EbrWriterSection writer;
        pt.compact();
    } catch (const std::bad_alloc&) {
        threw = true;
    }
    if (setrlimit(resource, &saved) != 0) std::_Exit(12);
    if (!threw) std::_Exit(3);
    for (const auto& r : routes) {
        const Ipv4Addr a = r.prefix.first_address();
        if (pt.lookup(a) != rib.lookup(a)) std::_Exit(4);
    }
    if (!analysis::audit(pt, rib).ok()) std::_Exit(5);
    if (!analysis::layout_difference(analysis::Layout{pt}, published).empty()) std::_Exit(8);

    std::size_t room = slack;
    do {
        room *= 2;
        if (room > (std::size_t{1} << 40)) std::_Exit(6);  // never fitted
    } while (!load_with(room));
    for (const auto& r : routes) {
        const Ipv4Addr a = r.prefix.first_address();
        const auto* adj = router.resolve(a);
        if (adj == nullptr || adj->gateway.value() - 0x0A000000u != rib.lookup(a))
            std::_Exit(7);
    }
    std::_Exit(0);
}

}  // namespace

// Out of memory before publication is a typed error, not an abort: a
// refused commit (RLIMIT_DATA counts committed pages, not reservations) and
// a refused reservation (RLIMIT_AS) each make Router::load and compact()
// throw std::bad_alloc, with the router left empty and the old pool set
// still serving, whether the RIB's storage or the FIB's is refused. Each
// child lowers its own limit, so the test process is untouched.
TEST(ArenaPoptrieDeathTest, OutOfMemoryThrowsAndKeepsTheFibServing)
{
    // Load: 4 MiB is room for the heap the load allocates before its RIB
    // (the adjacency table's 2.6 MB reservation among it) but not for the
    // RIB's first 2 MiB commit on top; at 8 MiB a FIB pool's commit is
    // refused, and 16 MiB fits. Compact: 256 KiB is room for its small heap
    // allocations but not for the direct array's 1 MiB first commit.
    EXPECT_EXIT(out_of_memory_child(RLIMIT_DATA, "VmData", 4 << 20, 256 << 10),
                ::testing::ExitedWithCode(0), "")
        << "refused commit";
    // 1 GiB is far less than the RIB's or any pool's 48 GiB reservation;
    // at 64 GiB the RIB's fits and the FIB's node pool is refused, and
    // 128 GiB fits both.
    EXPECT_EXIT(out_of_memory_child(RLIMIT_AS, "VmSize", std::size_t{1} << 30,
                                    std::size_t{1} << 30),
                ::testing::ExitedWithCode(0), "")
        << "refused reservation";
}
