// Unit and property tests for the buddy allocator substrate.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "alloc/buddy_allocator.hpp"
#include "analysis/audit.hpp"
#include "workload/xorshift.hpp"

using alloc::BuddyAllocator;

TEST(Buddy, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(BuddyAllocator{0}.capacity(), 1u);
    EXPECT_EQ(BuddyAllocator{1}.capacity(), 1u);
    EXPECT_EQ(BuddyAllocator{3}.capacity(), 4u);
    EXPECT_EQ(BuddyAllocator{1000}.capacity(), 1024u);
    EXPECT_EQ(BuddyAllocator{1024}.capacity(), 1024u);
}

TEST(Buddy, AllocateSplitsAndAligns)
{
    BuddyAllocator a{64};
    const auto x = a.allocate(16);
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(*x % 16, 0u);
    const auto y = a.allocate(3);  // rounds to 4
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(*y % 4, 0u);
    EXPECT_EQ(a.used(), 20u);
}

TEST(Buddy, ExhaustionReturnsNullopt)
{
    BuddyAllocator a{8};
    EXPECT_TRUE(a.allocate(8).has_value());
    EXPECT_FALSE(a.allocate(1).has_value());
    EXPECT_FALSE(a.allocate(9).has_value());  // larger than capacity
}

TEST(Buddy, FreeCoalescesBuddies)
{
    BuddyAllocator a{8};
    const auto x = a.allocate(4);
    const auto y = a.allocate(4);
    ASSERT_TRUE(x && y);
    EXPECT_FALSE(a.allocate(8).has_value());
    a.free(*x, 4);
    a.free(*y, 4);
    EXPECT_TRUE(a.all_free());
    EXPECT_TRUE(a.allocate(8).has_value());  // merged back into one block
}

TEST(Buddy, LargestFreeRunTracksFragmentation)
{
    BuddyAllocator a{16};
    EXPECT_EQ(a.largest_free_run(), 16u);
    const auto x = a.allocate(1);
    ASSERT_TRUE(x);
    EXPECT_EQ(a.largest_free_run(), 8u);
    a.free(*x, 1);
    EXPECT_EQ(a.largest_free_run(), 16u);
}

// Property test: random allocate/free interleavings never hand out
// overlapping runs, and freeing everything coalesces back to one block.
TEST(Buddy, PropertyNoOverlapAndFullCoalesce)
{
    workload::Xorshift128 rng(77);
    for (int round = 0; round < 20; ++round) {
        BuddyAllocator a{256};
        // offset -> size of live allocations
        std::map<std::uint32_t, std::uint32_t> live;
        for (int step = 0; step < 2000; ++step) {
            if (live.empty() || (rng.next() & 1)) {
                const std::uint32_t want = 1 + rng.next_below(32);
                const auto got = a.allocate(want);
                if (!got) continue;
                // No overlap with any live allocation.
                const auto rounded = std::bit_ceil(want);
                auto it = live.upper_bound(*got);
                if (it != live.end()) {
                    EXPECT_GE(it->first, *got + rounded);
                }
                if (it != live.begin()) {
                    --it;
                    EXPECT_LE(it->first + std::bit_ceil(it->second), *got);
                }
                live[*got] = want;
            } else {
                auto it = live.begin();
                std::advance(it, rng.next_below(static_cast<std::uint32_t>(live.size())));
                a.free(it->first, it->second);
                live.erase(it);
            }
        }
        for (const auto& [off, size] : live) a.free(off, size);
        EXPECT_TRUE(a.all_free());
        EXPECT_EQ(a.largest_free_run(), 256u);
    }
}

// --- Edge cases driven through the structural auditor ---------------------

TEST(BuddyEdge, DoubleFreeAssertsInDebugAndAuditsDirtyInRelease)
{
    BuddyAllocator a{16};
    const auto x = a.allocate(4);
    const auto y = a.allocate(4);
    const auto z = a.allocate(4);
    ASSERT_TRUE(x && y && z);
    a.free(*x, 4);  // legitimate: buddy (*y) is live, so no coalescing
    EXPECT_DEBUG_DEATH(a.free(*x, 4), "double free");
#ifdef NDEBUG
    // Release build: the double free executed in-process — used_ underflowed
    // while the std::set deduplicated the block, so free+used no longer
    // covers the pool. The auditor must flag it.
    const auto report = analysis::audit_allocator(a);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.summary().find("free-used-capacity-mismatch"), std::string::npos)
        << report.summary();
#else
    // Debug build: the double free died in the forked death-test child; the
    // parent allocator is untouched and must still audit clean.
    EXPECT_TRUE(analysis::audit_allocator(a).ok());
#endif
}

TEST(BuddyEdge, MisalignedFreeAssertsInDebug)
{
    BuddyAllocator a{16};
    const auto x = a.allocate(4);
    ASSERT_TRUE(x);
    EXPECT_DEBUG_DEATH(a.free(*x + 1, 4), "misaligned");
#ifndef NDEBUG
    EXPECT_TRUE(analysis::audit_allocator(a).ok());
#endif
}

TEST(BuddyEdge, ExhaustionGrowthPathStaysAuditClean)
{
    BuddyAllocator a{8};
    std::vector<BuddyAllocator::index_type> held;
    // Exhaust the pool with single-slot allocations.
    while (const auto got = a.allocate(1)) held.push_back(*got);
    EXPECT_EQ(held.size(), 8u);
    EXPECT_EQ(a.largest_free_run(), 0u);
    EXPECT_FALSE(a.allocate(1));
    EXPECT_TRUE(analysis::audit_allocator(a).ok());

    // The allocator never grows (pool sets start at kMaxCapacity): freeing
    // everything must coalesce the exhausted pool back to one block.
    for (const auto off : held) a.free(off, 1);
    EXPECT_TRUE(a.all_free());
    EXPECT_EQ(a.largest_free_run(), 8u);
    EXPECT_EQ(a.free_block_count(), 1u);
    EXPECT_TRUE(analysis::audit_allocator(a).ok());
}

TEST(BuddyEdge, MaxOrderAllocationUsesWholePool)
{
    BuddyAllocator a{64};
    const auto x = a.allocate(64);
    ASSERT_TRUE(x);
    EXPECT_EQ(*x, 0u);
    EXPECT_EQ(a.used(), 64u);
    EXPECT_EQ(a.largest_free_run(), 0u);
    EXPECT_TRUE(analysis::audit_allocator(a).ok());
    // A request one past capacity (even after rounding) must fail cleanly.
    EXPECT_FALSE(a.allocate(65).has_value());
    a.free(*x, 64);
    EXPECT_TRUE(a.all_free());
    EXPECT_TRUE(analysis::audit_allocator(a).ok());
}

// Every returned index is aligned to the rounded (power-of-two) block size,
// for every request size the poptrie node/leaf pools actually use (1..64
// covers one full stride's fan-out).
TEST(BuddyEdge, AlignmentPropertyForAllRequestSizes)
{
    for (BuddyAllocator::index_type count = 1; count <= 64; ++count) {
        BuddyAllocator a{256};
        const auto block = BuddyAllocator::block_size_for(count);
        EXPECT_EQ(block, std::bit_ceil(count));
        std::vector<BuddyAllocator::index_type> held;
        while (const auto got = a.allocate(count)) {
            EXPECT_EQ(*got % block, 0u) << "count=" << count;
            held.push_back(*got);
        }
        EXPECT_EQ(held.size(), 256u / block);
        EXPECT_TRUE(analysis::audit_allocator(a).ok()) << "count=" << count;
        for (const auto off : held) a.free(off, count);
        EXPECT_TRUE(a.all_free());
        EXPECT_EQ(a.largest_free_run(), 256u);
        EXPECT_TRUE(analysis::audit_allocator(a).ok()) << "count=" << count;
    }
}
