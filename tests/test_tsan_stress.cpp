// TSan-targeted concurrency stress for the §3.5 contract: lock-free readers
// racing a single writer that replays an update feed, with differential
// checks against the RIB oracle. Designed to run under
// -DPOPTRIE_SANITIZE=thread, where the sanitizer proves the absence of data
// races on the publication protocol (release stores of base0/base1/direct
// slots/root, acquire loads in lookup, EBR grace periods); without a
// sanitizer it still verifies linearizable-looking results and exact
// post-quiescence equivalence.
//
// Sizes are deliberately modest — TSan executes ~10x slower — but every
// publication path is exercised: direct-slot swaps, in-place base pointer
// replacement, root replacement (direct_bits == 0), reader registration
// racing reclamation, and EBR-deferred frees under continuous readers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "analysis/audit.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using poptrie::Config;
using poptrie::Poptrie4;

namespace {

/// Spawns `n` reader threads doing guarded lookups until `stop`; each records
/// how many lookups returned a next hop outside [0, max_hop].
class ReaderPool {
public:
    ReaderPool(Poptrie4& pt, int n, NextHop max_hop, std::atomic<bool>& stop)
    {
        for (int r = 0; r < n; ++r) {
            threads_.emplace_back([&pt, max_hop, &stop, this, r] {
                auto slot = pt.register_reader();
                workload::Xorshift128 rng(0xACE1u + static_cast<unsigned>(r));
                while (!stop.load(std::memory_order_relaxed)) {
                    const psync::EbrDomain::Guard g{slot};
                    for (int i = 0; i < 256; ++i) {
                        const auto nh = pt.lookup(Ipv4Addr{rng.next()});
                        if (nh > max_hop) invalid_.fetch_add(1, std::memory_order_relaxed);
                    }
                    lookups_.fetch_add(256, std::memory_order_relaxed);
                }
            });
        }
    }

    /// Joins all reader threads; counters are final afterwards.
    void join() { threads_.clear(); }

    [[nodiscard]] std::size_t invalid() const { return invalid_.load(); }
    [[nodiscard]] std::uint64_t lookups() const { return lookups_.load(); }

private:
    std::vector<std::jthread> threads_;
    std::atomic<std::size_t> invalid_{0};
    std::atomic<std::uint64_t> lookups_{0};
};

}  // namespace

// Readers hammer random lookups while the writer replays a synthetic BGP
// feed. The writer differentially checks the FIB against the RIB after every
// batch (writer-side reads are always safe) and runs the structural auditor
// at the end, with readers still running.
TEST(TsanStress, ReadersVsUpdateFeedWithDifferentialBatches)
{
    // writer: this thread replays the feed alone; every reader runs in a
    // ReaderPool jthread under its own EbrDomain::Guard.
    const psync::EbrWriterSection writer;
    workload::TableGenConfig gen;
    gen.seed = 21;
    gen.target_routes = 10'000;
    gen.next_hops = 17;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);

    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};

    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 2'000;
    ucfg.next_hops = 17;
    const auto feed = workload::make_update_feed(routes, ucfg);

    std::atomic<bool> stop{false};
    ReaderPool readers(pt, 4, 17, stop);

    workload::Xorshift128 probe_rng(1234);
    std::size_t applied = 0;
    for (const auto& ev : feed) {
        pt.apply(rib, ev.prefix, ev.next_hop);
        if (++applied % 100 == 0) {
            // Differential batch: the updated prefix's span plus random probes.
            for (int i = 0; i < 256; ++i) {
                const Ipv4Addr a{probe_rng.next()};
                ASSERT_EQ(pt.lookup(a), rib.lookup(a)) << "after " << applied << " updates";
            }
        }
    }

    // Structural audit with readers still racing (audit reads writer-side
    // state only, plus lookups, which are reader-safe by contract).
    analysis::AuditOptions aopt;
    aopt.random_probes = 1'024;
    aopt.max_boundary_routes = 0;
    const auto report = analysis::audit(pt, rib, aopt);
    EXPECT_TRUE(report.ok()) << report.summary();

    stop = true;
    readers.join();
    EXPECT_GT(readers.lookups(), 0u);
    EXPECT_EQ(readers.invalid(), 0u);
    pt.drain();
    analysis::audit_or_abort(pt, rib);
}

// direct_bits == 0 pins the §3.5 atomic swap on the root index itself: every
// shape-changing update republishes root_, which readers pick up with an
// acquire load. This is the path a missing atomic on root_ breaks first.
TEST(TsanStress, RootRepublicationUnderReaders)
{
    // writer: this thread applies all updates; readers live in ReaderPool.
    const psync::EbrWriterSection writer;
    const auto routes = corner_case_table();
    auto rib = load(routes);
    Config cfg;
    cfg.direct_bits = 0;
    Poptrie4 pt{rib, cfg};

    std::atomic<bool> stop{false};
    ReaderPool readers(pt, 3, 202, stop);  // hops installed below are 1..202

    // Alternately install and withdraw prefixes at several depths so the
    // root node's shape keeps changing (leaf <-> internal transitions).
    const auto p8 = *netbase::parse_prefix4("99.0.0.0/8");
    const auto p20 = *netbase::parse_prefix4("99.1.16.0/20");
    const auto p32 = *netbase::parse_prefix4("99.1.16.77/32");
    for (int i = 0; i < 3'000; ++i) {
        const auto hop = static_cast<NextHop>(1 + (i % 200));
        pt.apply(rib, p8, hop);
        pt.apply(rib, p20, static_cast<NextHop>(hop + 1));
        pt.apply(rib, p32, static_cast<NextHop>(hop + 2));
        if (i % 3 == 0) {
            pt.apply(rib, p32, rib::kNoRoute);
            pt.apply(rib, p20, rib::kNoRoute);
            pt.apply(rib, p8, rib::kNoRoute);
        }
    }
    stop = true;
    readers.join();
    EXPECT_EQ(readers.invalid(), 0u);
    pt.drain();
    analysis::audit_or_abort(pt, rib);
}

// Reader registration racing updates and reclamation: register_reader() takes
// the domain mutex while min_active_epoch() scans under the same mutex; this
// test makes those paths actually interleave.
TEST(TsanStress, ReaderRegistrationRacesReclamation)
{
    // writer: this thread applies all updates; churner threads only ever
    // hold read-side guards.
    const psync::EbrWriterSection writer;
    workload::TableGenConfig gen;
    gen.seed = 33;
    gen.target_routes = 2'000;
    gen.next_hops = 9;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);

    Config cfg;
    cfg.direct_bits = 12;
    Poptrie4 pt{rib, cfg};

    std::atomic<bool> stop{false};
    std::vector<std::jthread> churners;
    for (int t = 0; t < 3; ++t) {
        churners.emplace_back([&pt, &stop, t] {
            workload::Xorshift128 rng(500 + static_cast<unsigned>(t));
            while (!stop.load(std::memory_order_relaxed)) {
                // A short-lived reader per iteration: registration and a few
                // guarded lookups, racing the writer's scan.
                auto slot = pt.register_reader();
                const psync::EbrDomain::Guard g{slot};
                for (int i = 0; i < 64; ++i) (void)pt.lookup(Ipv4Addr{rng.next()});
            }
        });
    }

    const auto p = *netbase::parse_prefix4("10.20.0.0/16");
    for (int i = 0; i < 4'000; ++i)
        pt.apply(rib, p, static_cast<NextHop>(1 + (i % 7)));
    stop = true;
    churners.clear();
    pt.drain();
    analysis::audit_or_abort(pt, rib);
}
