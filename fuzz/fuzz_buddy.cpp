// fuzz/fuzz_buddy.cpp — harness 4: buddy-allocator op-sequence invariants.
//
// The buddy allocator is the only mutable shared bookkeeping under Poptrie's
// arrays; a bad coalesce or a mis-aligned split silently hands two live node
// runs the same slots, which is exactly the failure class poptrie-fsck's
// allocator checks exist for. This harness drives an allocator with a
// fuzz-decoded alloc/free sequence while mirroring every live run in a
// shadow model, checking after each op that
//
//   * every allocation is inside the pool, aligned to its rounded size, and
//     disjoint from every other live run (shadow-model cross-check);
//   * used() equals the shadow model's rounded total, and allocate() fails
//     only when the shadow model agrees no aligned block of that size fits
//     (no false negatives: a buddy system must satisfy any request up to
//     largest_free_run());
//   * analysis::audit_allocator finds no structural violation (free-list
//     alignment, coalescing, accounting);
//   * after freeing everything the pool reports all_free().
#include <algorithm>
#include <string>
#include <vector>

#include "alloc/buddy_allocator.hpp"
#include "analysis/audit.hpp"
#include "fuzz/common.hpp"

namespace {

constexpr const char* kHarness = "fuzz_buddy";

struct LiveRun {
    std::uint32_t offset;
    std::uint32_t count;    // as requested
    std::uint32_t rounded;  // as occupied
};

void check_state(const alloc::BuddyAllocator& pool, const std::vector<LiveRun>& live,
                 const char* when)
{
    const auto report = analysis::audit_allocator(pool);
    if (!report.ok()) fuzz::fail(kHarness, when, report.summary());
    std::uint64_t total = 0;
    for (const auto& run : live) total += run.rounded;
    if (total != pool.used())
        fuzz::fail(kHarness, "used() drifted from the shadow model",
                   std::string(when) + ": model says " + std::to_string(total) +
                       ", pool says " + std::to_string(pool.used()));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    fuzz::ByteReader in(data, size);
    // Capacity 2^(0..10): small enough that exhaustion is common.
    alloc::BuddyAllocator pool(std::uint32_t{1} << (in.u8() % 11));
    std::vector<LiveRun> live;

    std::size_t ops = 0;
    while (!in.empty() && ops < 512) {
        ++ops;
        const std::uint8_t tag = in.u8();
        switch (tag % 8) {
        case 0:
        case 1:
        case 2: {  // allocate; sizes biased to powers of two and neighbours
            const std::uint8_t s = in.u8();
            std::uint32_t count = (std::uint32_t{1} << (s % 10));
            if ((s & 0x40u) != 0 && count > 1) --count;
            if ((s & 0x80u) != 0) ++count;
            const auto rounded = alloc::BuddyAllocator::block_size_for(count);
            const auto got = pool.allocate(count);
            if (!got) {
                if (pool.largest_free_run() >= rounded)
                    fuzz::fail(kHarness, "allocate refused a satisfiable request",
                               std::to_string(count) + " slots refused with largest free run " +
                                   std::to_string(pool.largest_free_run()));
                break;
            }
            const std::uint32_t offset = *got;
            if (offset % rounded != 0 ||
                std::uint64_t{offset} + rounded > pool.capacity())
                fuzz::fail(kHarness, "misaligned or out-of-bounds allocation",
                           std::to_string(offset) + "+" + std::to_string(rounded) + " of " +
                               std::to_string(pool.capacity()));
            for (const auto& run : live)
                if (offset < run.offset + run.rounded && run.offset < offset + rounded)
                    fuzz::fail(kHarness, "allocation overlaps a live run",
                               std::to_string(offset) + "+" + std::to_string(rounded) +
                                   " vs live " + std::to_string(run.offset) + "+" +
                                   std::to_string(run.rounded));
            live.push_back({offset, count, rounded});
            break;
        }
        case 3:
        case 4:
        case 5: {  // free one live run, fuzz-chosen
            if (live.empty()) break;
            const std::size_t i = in.u8() % live.size();
            pool.free(live[i].offset, live[i].count);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            break;
        }
        default:  // audit checkpoint (tags 6 and 7)
            check_state(pool, live, "mid-sequence audit");
            break;
        }
    }

    check_state(pool, live, "end-of-sequence audit");
    for (const auto& run : live) pool.free(run.offset, run.count);
    live.clear();
    check_state(pool, live, "post-teardown audit");
    if (!pool.all_free())
        fuzz::fail(kHarness, "pool not all_free after freeing every run",
                   std::to_string(pool.used()) + " slots still marked used");
    return 0;
}
