// Tests for the dataplane subsystem: the SPSC ring primitive, the worker
// pool scaffolding, the Dataplane pipeline end-to-end (counter conservation
// and agreement with direct lookups), and forwarding under live route churn
// (the §3.5 concurrency contract; run under TSan by the tsan CI leg).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dataplane/churn.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/engines.hpp"
#include "dataplane/worker_pool.hpp"
#include "sync/annotations.hpp"
#include "sync/counters.hpp"
#include "sync/spsc_ring.hpp"
#include "workload/tablegen.hpp"
#include "workload/xorshift.hpp"

namespace {

using netbase::Ipv4Addr;

// --- SPSC ring -----------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(psync::SpscRing<int>(1).capacity(), 2u);
    EXPECT_EQ(psync::SpscRing<int>(2).capacity(), 2u);
    EXPECT_EQ(psync::SpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(psync::SpscRing<int>(1000).capacity(), 1024u);
    EXPECT_EQ(psync::SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRing, FullAndEmptySingleThread)
{
    psync::SpscRing<int> ring(4);
    // One thread legitimately plays both SPSC roles when nothing runs
    // concurrently; the tokens make that claim visible to the analysis.
    const psync::SpscProducerToken producer{ring};
    const psync::SpscConsumerToken consumer{ring};
    EXPECT_TRUE(ring.empty());
    int v = 0;
    EXPECT_FALSE(ring.try_pop(v));  // empty pop fails
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_FALSE(ring.try_push(99));  // full push fails
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.try_pop(v));
        EXPECT_EQ(v, i);  // FIFO
    }
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.try_pop(v));
}

TEST(SpscRing, BatchPushAcceptsPartially)
{
    psync::SpscRing<int> ring(8);
    const psync::SpscProducerToken producer{ring};  // single-threaded test
    const psync::SpscConsumerToken consumer{ring};
    std::vector<int> in(6);
    std::iota(in.begin(), in.end(), 0);
    EXPECT_EQ(ring.push(in.data(), in.size()), 6u);
    EXPECT_EQ(ring.push(in.data(), in.size()), 2u);  // only 2 slots left
    EXPECT_EQ(ring.push(in.data(), in.size()), 0u);  // full

    std::vector<int> out(16, -1);
    EXPECT_EQ(ring.pop(out.data(), out.size()), 8u);  // batch pop drains all
    const std::vector<int> expect{0, 1, 2, 3, 4, 5, 0, 1};
    EXPECT_EQ(std::vector<int>(out.begin(), out.begin() + 8), expect);
    EXPECT_EQ(ring.pop(out.data(), out.size()), 0u);
}

TEST(SpscRing, WraparoundPreservesFifo)
{
    // A tiny ring cycled far past its capacity: every element must come out
    // exactly once, in order, across many index wraps.
    psync::SpscRing<std::uint32_t> ring(4);
    const psync::SpscProducerToken producer{ring};  // single-threaded test
    const psync::SpscConsumerToken consumer{ring};
    std::uint32_t next_in = 0;
    std::uint32_t next_out = 0;
    std::uint32_t buf[3];
    for (int round = 0; round < 1000; ++round) {
        std::uint32_t in[3];
        for (auto& x : in) x = next_in++;
        const std::size_t pushed = ring.push(in, 3);
        next_in -= static_cast<std::uint32_t>(3 - pushed);  // unconsumed retry later
        const std::size_t popped = ring.pop(buf, 3);
        for (std::size_t i = 0; i < popped; ++i) EXPECT_EQ(buf[i], next_out++);
    }
    while (ring.pop(buf, 1) == 1) EXPECT_EQ(buf[0], next_out++);
    EXPECT_EQ(next_in, next_out);

    // Bursts of every length from 0 to capacity, pushed onto every fill
    // level at every start offset, then popped in two bursts: each copy runs
    // up to the buffer's end and on from slot 0 wherever that falls.
    constexpr std::size_t kCap = 8;
    for (std::size_t offset = 0; offset < kCap; ++offset) {
        for (std::size_t fill = 0; fill <= kCap; ++fill) {
            for (std::size_t len = 0; len <= kCap; ++len) {
                psync::SpscRing<std::uint32_t> r(kCap);
                const psync::SpscProducerToken p{r};  // single-threaded test
                const psync::SpscConsumerToken c{r};
                std::uint32_t value = 0;
                for (std::size_t i = 0; i < offset; ++i) {
                    ASSERT_TRUE(r.try_push(value));
                    std::uint32_t out = 0;
                    ASSERT_TRUE(r.try_pop(out));
                }
                std::uint32_t in[2 * kCap];
                for (auto& x : in) x = value++;
                ASSERT_EQ(r.push(in, fill), fill);
                const std::size_t accepted = std::min(len, kCap - fill);
                ASSERT_EQ(r.push(in + fill, len), accepted)
                    << "offset " << offset << " fill " << fill << " len " << len;
                std::uint32_t out[2 * kCap] = {};
                const std::size_t total = fill + accepted;
                const std::size_t head_part = total / 2;
                ASSERT_EQ(r.pop(out, head_part), head_part);
                ASSERT_EQ(r.pop(out + head_part, 2 * kCap), total - head_part);
                for (std::size_t i = 0; i < total; ++i)
                    ASSERT_EQ(out[i], in[i])
                        << "offset " << offset << " fill " << fill << " len " << len;
                ASSERT_TRUE(r.empty());
            }
        }
    }
}

TEST(SpscRing, CrossThreadTransferIntegrity)
{
    // One producer, one consumer, small ring: every value arrives exactly
    // once, in order. Under TSan this also checks the acquire/release pairing
    // on head_/tail_.
    psync::SpscRing<std::uint64_t> ring(64);
    constexpr std::uint64_t kCount = 200'000;
    std::thread producer([&] {
        const psync::SpscProducerToken token{ring};  // this thread is the one producer
        std::uint64_t next = 0;
        std::uint64_t batch[17];
        while (next < kCount) {
            std::size_t n = 0;
            while (n < 17 && next + n < kCount) {
                batch[n] = next + n;
                ++n;
            }
            next += ring.push(batch, n);
        }
    });
    const psync::SpscConsumerToken consumer{ring};  // main thread is the one consumer
    std::uint64_t expect = 0;
    std::uint64_t out[32];
    while (expect < kCount) {
        const std::size_t n = ring.pop(out, 32);
        for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], expect++);
        if (n == 0) std::this_thread::yield();
    }
    producer.join();
    EXPECT_TRUE(ring.empty());
}

// --- worker pool ---------------------------------------------------------

TEST(WorkerPool, RunsBodyOncePerWorker)
{
    std::vector<psync::EventCounter> hits(4);
    {
        dataplane::WorkerPool pool({.threads = 4}, [&](unsigned w) { hits[w].add(w + 1); });
        pool.join();
        pool.join();  // idempotent
    }
    for (unsigned w = 0; w < 4; ++w) EXPECT_EQ(hits[w].read(), w + 1);
}

TEST(WorkerPool, MultithreadAggregates)
{
    // Moved from test_benchkit.cpp when the measurement loop moved to the
    // shared pool scaffolding.
    const auto lookup = [](std::uint32_t a) { return static_cast<std::uint16_t>(a & 7); };
    const auto r = dataplane::measure_random_multithread(lookup, 50'000, 2, 2);
    EXPECT_GT(r.mlps_mean, 0.0);
    EXPECT_GT(r.checksum, 0u);
}

// --- dataplane pipeline --------------------------------------------------

rib::RouteList<Ipv4Addr> small_table(std::size_t routes)
{
    workload::TableGenConfig tg;
    tg.seed = 5;
    tg.target_routes = routes;
    tg.next_hops = 32;
    return workload::generate_table(tg);
}

TEST(Dataplane, CountsAgreeWithDirectLookups)
{
    const auto routes = small_table(3'000);
    router::Router4 router;
    dataplane::load_routes(router, routes);

    // Fixed address set; what the pipeline forwards must equal what direct
    // lookups resolve (workers only reorder, never change, the resolution).
    std::vector<std::uint32_t> addrs(40'000);
    workload::Xorshift128 rng(77);
    for (auto& a : addrs) a = rng.next();
    std::uint64_t expect_hits = 0;
    for (const auto a : addrs)
        expect_hits += (router.lookup_index(Ipv4Addr{a}) != rib::kNoRoute) ? 1 : 0;

    dataplane::DataplaneConfig cfg;
    cfg.workers = 2;
    cfg.burst = 64;
    cfg.ring_capacity = 1 << 16;  // larger than the offered set: no drops
    dataplane::Dataplane<dataplane::PoptrieEngine> dp{dataplane::PoptrieEngine{router},
                                                      cfg};
    dp.start();
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < addrs.size(); i += 128)
        accepted += dp.offer(addrs.data() + i, std::min<std::size_t>(128, addrs.size() - i));
    dp.stop();  // workers drain their rings before exiting

    EXPECT_EQ(accepted, addrs.size());
    const auto s = dp.stats();
    EXPECT_EQ(s.offered, addrs.size());
    EXPECT_EQ(s.ring_drops, 0u);
    EXPECT_EQ(s.forwarded + s.no_route, addrs.size());  // conservation
    EXPECT_EQ(s.forwarded, expect_hits);                // agreement
    EXPECT_GT(s.batches, 0u);
    {
        // quiescent: dp.stop() above joined every worker.
        const psync::QuiescentSection quiescent;
        EXPECT_GT(dp.merged_latency().observed(), 0u);
    }
}

TEST(Dataplane, StopIsFinal)
{
    // A stopped pipeline cannot restart: its workers would see the stop
    // request and exit at once, so start() refuses instead.
    const auto routes = small_table(500);
    router::Router4 router;
    dataplane::load_routes(router, routes);
    dataplane::DataplaneConfig cfg;
    cfg.workers = 1;
    dataplane::Dataplane<dataplane::PoptrieEngine> dp{dataplane::PoptrieEngine{router},
                                                      cfg};
    dp.start();
    dp.start();  // already running: no-op
    dp.stop();
    dp.stop();  // idempotent
    EXPECT_THROW(dp.start(), std::logic_error);
}

TEST(Dataplane, DropsAreCountedWhenRingsStayFull)
{
    const auto routes = small_table(500);
    router::Router4 router;
    dataplane::load_routes(router, routes);
    dataplane::DataplaneConfig cfg;
    cfg.workers = 1;
    cfg.ring_capacity = 16;
    dataplane::Dataplane<dataplane::PoptrieEngine> dp{dataplane::PoptrieEngine{router},
                                                      cfg};
    // Workers never started: the ring fills, then every offer drops.
    std::vector<std::uint32_t> addrs(64, 1);
    (void)dp.offer(addrs.data(), addrs.size());
    const auto s = dp.stats();
    EXPECT_EQ(s.offered, 64u);
    EXPECT_EQ(s.ring_drops, 64u - 16u);
}

/// PoptrieEngine plus validation: every resolved next hop must be kNoRoute
/// or a plausibly-interned adjacency index — a torn or reclaimed-under-foot
/// read would surface as garbage in the full 16-bit range.
class ValidatingEngine {
public:
    using addr_type = Ipv4Addr;
    using key_type = addr_type::value_type;

    ValidatingEngine(router::Router4& router, psync::EventCounter& invalid,
                     rib::NextHop max_index) noexcept
        : inner_(router), invalid_(&invalid), max_index_(max_index)
    {
    }

    [[nodiscard]] std::string_view name() const noexcept { return "validating"; }

    void lookup_batch(const key_type* keys, rib::NextHop* out, std::size_t n) const noexcept
        POPTRIE_REQUIRES_SHARED(psync::cap::ebr)
    {
        inner_.lookup_batch(keys, out, n);
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < n; ++i)
            bad += (out[i] != rib::kNoRoute && out[i] > max_index_) ? 1 : 0;
        if (bad != 0) invalid_->add(bad);
    }

    [[nodiscard]] dataplane::EbrReader make_reader() const { return inner_.make_reader(); }

private:
    dataplane::PoptrieEngine inner_;
    psync::EventCounter* invalid_;
    rib::NextHop max_index_;
};

static_assert(dataplane::LpmEngine<ValidatingEngine>);

TEST(Dataplane, ForwardingStaysValidUnderLiveChurn)
{
    // 4 workers forwarding while the control thread applies a full update
    // feed — the §3.5 end-to-end claim. Run under TSan by the tsan CI leg.
    const auto routes = small_table(2'000);
    poptrie::Config pcfg;
    router::Router4 router{pcfg};
    dataplane::load_routes(router, routes);

    // Adjacency indices are interned: 32 table hops plus the feed's next-hop
    // space (default 419 ids, same adjacency_for mapping) stay far below
    // this; anything above is a corrupt read.
    constexpr rib::NextHop kMaxPlausibleIndex = 2'048;
    psync::EventCounter invalid;

    dataplane::DataplaneConfig cfg;
    cfg.workers = 4;
    cfg.burst = 32;
    dataplane::Dataplane<ValidatingEngine> dp{
        ValidatingEngine{router, invalid, kMaxPlausibleIndex}, cfg};
    dp.start();

    dataplane::ChurnRunner churn{router, routes, dataplane::ChurnConfig{.updates = 3'000}};

    workload::Xorshift128 rng(13);
    std::vector<std::uint32_t> chunk(256);
    while (!churn.finished()) {
        for (auto& a : chunk) a = rng.next();
        (void)dp.offer(chunk.data(), chunk.size());
    }
    churn.stop_and_join();
    dp.stop();
    {
        // writer: churn thread and workers joined above; this thread is the
        // only one left touching the domain.
        const psync::EbrWriterSection writer;
        router.drain();
    }

    EXPECT_EQ(churn.applied(), 3'000u);
    EXPECT_EQ(churn.announcements() + churn.withdrawals(), churn.applied());
    const auto s = dp.stats();
    EXPECT_GT(s.forwarded, 0u);
    EXPECT_EQ(s.forwarded + s.no_route + s.ring_drops, s.offered);
    EXPECT_EQ(invalid.read(), 0u);
}

TEST(ChurnRunner, AppliesWholeFeedAndCounts)
{
    const auto routes = small_table(1'000);
    router::Router4 router;
    dataplane::load_routes(router, routes);
    const auto before = router.route_count();
    dataplane::ChurnRunner churn{router, routes, dataplane::ChurnConfig{.updates = 500}};
    // stop_and_join() requests *early* stop; wait for the feed to complete
    // first (under TSan the thread is slow enough for the flag to win).
    while (!churn.finished()) std::this_thread::yield();
    churn.stop_and_join();
    EXPECT_TRUE(churn.finished());
    EXPECT_EQ(churn.applied(), 500u);
    EXPECT_EQ(churn.announcements() + churn.withdrawals(), 500u);
    EXPECT_GT(churn.announcements(), churn.withdrawals());  // 77.4% / 22.6% mix
    // The table evolved but stayed the same order of magnitude.
    EXPECT_GT(router.route_count(), before / 2);
    // writer: the churn thread joined above; only this thread remains.
    const psync::EbrWriterSection writer;
    router.drain();
}

}  // namespace
