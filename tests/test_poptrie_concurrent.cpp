// Concurrency test for the §3.5 lock-free contract: reader threads doing
// lookups under EBR guards while one writer applies a continuous update
// feed. Every observed result must be a next hop that is plausible for the
// address — i.e. either the pre-update or post-update resolution — and the
// structure must never crash or read freed memory (run under TSan/ASan in CI
// for full effect; even without sanitizers, a publication bug makes this
// test return garbage next hops).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <unordered_set>

#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using poptrie::Config;
using poptrie::Poptrie4;

TEST(PoptrieConcurrent, ReadersSeeOnlyValidNextHops)
{
    // writer: this thread replays the feed alone; readers run in jthreads
    // under their own EbrDomain::Guard.
    const psync::EbrWriterSection writer;
    workload::TableGenConfig gen;
    gen.seed = 55;
    gen.target_routes = 30'000;
    gen.next_hops = 23;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);

    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};

    // The set of next hops that can legitimately appear at any time.
    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 4'000;
    ucfg.next_hops = 23;
    const auto feed = workload::make_update_feed(routes, ucfg);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> invalid{0};
    std::atomic<std::uint64_t> reads{0};

    std::vector<std::jthread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
            auto slot = pt.register_reader();
            workload::Xorshift128 rng(1000 + r);
            while (!stop.load(std::memory_order_relaxed)) {
                const psync::EbrDomain::Guard g{slot};
                for (int i = 0; i < 512; ++i) {
                    const auto nh = pt.lookup(Ipv4Addr{rng.next()});
                    // Valid next hops are 0 (miss) or 1..23 (generator and
                    // feed both draw from 1..next_hops).
                    if (nh > 23) invalid.fetch_add(1, std::memory_order_relaxed);
                }
                reads.fetch_add(512, std::memory_order_relaxed);
            }
        });
    }

    for (const auto& ev : feed) pt.apply(rib, ev.prefix, ev.next_hop);
    // Let readers observe the final state for a moment.
    while (reads.load() < 1'000'000) std::this_thread::yield();
    stop = true;
    readers.clear();
    pt.drain();

    EXPECT_EQ(invalid.load(), 0u);

    // Post-quiesce: exact equivalence with the updated RIB.
    workload::Xorshift128 rng(9);
    for (int i = 0; i < 200'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(pt.lookup(a), rib.lookup(a));
    }
}

TEST(PoptrieConcurrent, ReclamationMakesProgressUnderReaders)
{
    // writer: this thread churns one prefix alone; the reader jthread holds
    // its own EbrDomain::Guard.
    const psync::EbrWriterSection writer;
    rib::RadixTrie<Ipv4Addr> rib;
    Config cfg;
    cfg.direct_bits = 0;
    Poptrie4 pt{rib, cfg};
    std::atomic<bool> stop{false};
    // Guards the reader has completed. A reader preempted inside a guard
    // holds the epoch back for as long as it is off the CPU, which on a
    // loaded host can outlast thousands of applies; the writer waits on
    // this heartbeat every kApplies applies, so each stretch of churn ends
    // with a guard begun after it started, and everything retired before
    // that guard is reclaimable by construction.
    std::atomic<std::uint64_t> guards{0};
    std::jthread reader([&] {
        auto slot = pt.register_reader();
        workload::Xorshift128 rng(4);
        while (!stop.load(std::memory_order_relaxed)) {
            {
                const psync::EbrDomain::Guard g{slot};
                for (int i = 0; i < 128; ++i) (void)pt.lookup(Ipv4Addr{rng.next()});
            }
            guards.fetch_add(1, std::memory_order_release);
        }
    });
    // Churn one prefix. Each update replaces the /24's four-slot leaf run
    // and retires the old one, so if grace periods never elapsed the leaf
    // pool's high water would climb to 80k slots. Reclamation behind the
    // reader keeps both pools far below that: between heartbeats at most
    // kApplies updates' runs wait for a grace period.
    constexpr int kApplies = 500;
    const auto p = *netbase::parse_prefix4("10.1.2.0/24");
    for (int i = 0; i < 20'000; ++i) {
        if (i % kApplies == 0) {
            // Two more completed guards: the second began after this wait.
            const std::uint64_t target = guards.load(std::memory_order_acquire) + 2;
            while (guards.load(std::memory_order_acquire) < target) std::this_thread::yield();
        }
        pt.apply(rib, p, static_cast<NextHop>(1 + (i % 9)));
    }
    stop = true;
    reader = {};
    const auto st = pt.stats();
    EXPECT_LT(st.node_high_water, 20'000u);
    EXPECT_LT(st.leaf_high_water, 20'000u);
    pt.drain();
    EXPECT_EQ(pt.lookup(*netbase::parse_ipv4("10.1.2.77")),
              static_cast<NextHop>(1 + (19'999 % 9)));
}
