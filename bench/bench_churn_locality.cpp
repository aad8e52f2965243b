// bench/bench_churn_locality.cpp — the cache-locality lifecycle of one FIB.
//
// The paper's lookup numbers (Table 5) are measured on freshly built tables,
// whose DFS-ordered pools are what makes "the whole FIB fits in cache" true
// in the strong sense: a lookup's node chain is contiguous. A long §3.5
// churn feed preserves correctness and compactness but scatters the hot
// subtrees across the pools in allocation order, so this bench measures the
// four points of the lifecycle on the SAME final RIB:
//
//   fresh      the initial build, before any update (baseline context)
//   churned    after the update feed (default 1M events, §4.9-style mix)
//   compacted  after one Poptrie::compact() pass
//   rebuilt    a from-scratch build of the final RIB (the locality ceiling)
//
// plus the buddy fragmentation counters at each point and the wall time of
// the compaction pass itself. The headline gate is compact_vs_rebuild:
// compacted throughput as a fraction of the full rebuild's (the issue's
// acceptance bar is >= 0.97 on a quiet machine). Emits poptrie-bench/1
// records for benchctl (suite component: churn_locality).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "benchkit/cli.hpp"
#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "benchkit/runner.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

namespace {

struct PhaseResult {
    const char* phase;
    benchkit::RateResult rate;
    poptrie::Stats stats;
};

PhaseResult measure_phase(const char* phase, const poptrie::Poptrie4& pt,
                          std::size_t lookups, unsigned trials, std::uint64_t seed)
{
    PhaseResult r;
    r.phase = phase;
    r.rate = benchkit::measure_random(
        [&pt](std::uint32_t a) { return pt.lookup(netbase::Ipv4Addr{a}); }, lookups,
        trials, seed);
    r.stats = pt.stats();
    std::printf("%-10s %8.2f Mlps (±%.2f)   node hw=%zu free_blocks=%zu | "
                "leaf hw=%zu free_blocks=%zu\n",
                phase, r.rate.mlps_mean, r.rate.mlps_std, r.stats.node_high_water,
                r.stats.node_free_blocks, r.stats.leaf_high_water,
                r.stats.leaf_free_blocks);
    return r;
}

void emit_phase(benchkit::JsonRecords& json, const PhaseResult& r)
{
    json.begin_record();
    json.field("tool", std::string_view{"bench_churn_locality"});
    json.field("phase", std::string_view{r.phase});
    json.field("mlps", r.rate.mlps_mean);
    json.field("mlps_std", r.rate.mlps_std);
    json.field("node_high_water", std::uint64_t{r.stats.node_high_water});
    json.field("leaf_high_water", std::uint64_t{r.stats.leaf_high_water});
    json.field("node_free_blocks", std::uint64_t{r.stats.node_free_blocks});
    json.field("leaf_free_blocks", std::uint64_t{r.stats.leaf_free_blocks});
    json.field("node_pool_used", std::uint64_t{r.stats.node_pool_used});
    json.field("leaf_pool_used", std::uint64_t{r.stats.leaf_pool_used});
    benchkit::stamp_provenance(json);
}

}  // namespace

int main(int argc, char** argv)
{
    const benchkit::Args args(argc, argv);
    if (args.handle_help(
            "bench_churn_locality",
            "  --routes=N        synthetic table size (default 150000)\n"
            "  --updates=N       churn feed length (default 1000000)\n"
            "  --lookups=N       lookups per trial (default 2097152)\n"
            "  --trials=N        timed trials per phase (default 5)\n"
            "  --direct-bits=N   direct pointing bits (default 18)\n"
            "  --seed=S          table/feed/probe seed (default 1)\n"
            "  --json-out=FILE   write poptrie-bench/1 records to FILE"))
        return 0;

    const std::size_t n_routes = args.get_u64("routes", 150'000);
    const std::size_t n_updates = args.get_u64("updates", 1'000'000);
    const std::size_t lookups = args.get_u64("lookups", std::size_t{1} << 21);
    const auto trials = static_cast<unsigned>(args.get_u64("trials", 5));
    const std::uint64_t seed = args.seed(1);

    poptrie::Config cfg;
    cfg.direct_bits = static_cast<unsigned>(args.get_u64("direct-bits", 18));

    // Table-5-style synthetic table (§4.6 generator), then the §4.9-shaped
    // update feed against it; withdrawals and re-announcements of new
    // prefixes scatter the pools the way a long BGP session would.
    workload::TableGenConfig gen;
    gen.seed = seed;
    gen.target_routes = n_routes;
    const auto routes = workload::generate_table(gen);
    rib::RadixTrie<netbase::Ipv4Addr> rib;
    rib.insert_all(routes);

    std::printf("# churn locality: %zu routes, %zu updates, %zu lookups x %u trials, "
                "direct_bits=%u\n",
                routes.size(), n_updates, lookups, trials, cfg.direct_bits);

    auto pt = std::make_unique<poptrie::Poptrie4>(rib, cfg);
    benchkit::note_arena_backing(
        alloc::backing_name(pt->memory_report().backing));

    const auto fresh = measure_phase("fresh", *pt, lookups, trials, seed + 100);

    // quiescent: single-threaded bench — no reader thread ever exists, so
    // the drain and the storage-moving compact() below are safe.
    const psync::QuiescentSection quiescent;
    workload::UpdateFeedConfig ucfg;
    ucfg.seed = seed + 11;
    ucfg.updates = n_updates;
    const auto feed = workload::make_update_feed(routes, ucfg);
    for (const auto& ev : feed) pt->apply(rib, ev.prefix, ev.next_hop);
    pt->drain();

    const auto churned = measure_phase("churned", *pt, lookups, trials, seed + 100);

    const auto c0 = std::chrono::steady_clock::now();
    pt->compact();
    const double compact_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - c0)
            .count();

    const auto compacted = measure_phase("compacted", *pt, lookups, trials, seed + 100);

    const poptrie::Poptrie4 rebuilt_pt{rib, cfg};
    const auto rebuilt = measure_phase("rebuilt", rebuilt_pt, lookups, trials, seed + 100);

    // churned/compacted/rebuilt resolve the same RIB with the same probe
    // stream, so identical checksums double as a cheap equivalence check
    // (fresh may differ: the feed changed the RIB after it was measured).
    if (compacted.rate.checksum != churned.rate.checksum ||
        compacted.rate.checksum != rebuilt.rate.checksum) {
        std::fprintf(stderr,
                     "bench_churn_locality: checksum divergence across phases "
                     "(churned=%llx compacted=%llx rebuilt=%llx)\n",
                     static_cast<unsigned long long>(churned.rate.checksum),
                     static_cast<unsigned long long>(compacted.rate.checksum),
                     static_cast<unsigned long long>(rebuilt.rate.checksum));
        return 1;
    }

    const double compact_vs_rebuild =
        rebuilt.rate.mlps_mean > 0 ? compacted.rate.mlps_mean / rebuilt.rate.mlps_mean : 0;
    const double churn_slowdown =
        fresh.rate.mlps_mean > 0 ? churned.rate.mlps_mean / fresh.rate.mlps_mean : 0;
    std::printf("compact    %.1f ms, compacted/rebuilt = %.3f, churned/fresh = %.3f\n",
                compact_ms, compact_vs_rebuild, churn_slowdown);
    std::printf("# checksum %016llx\n",
                static_cast<unsigned long long>(compacted.rate.checksum));

    if (!args.json_out().empty()) {
        benchkit::JsonRecords json;
        for (const auto* r : {&fresh, &churned, &compacted, &rebuilt}) emit_phase(json, *r);
        json.begin_record();
        json.field("tool", std::string_view{"bench_churn_locality"});
        json.field("phase", std::string_view{"summary"});
        json.field("routes", std::uint64_t{routes.size()});
        json.field("updates", std::uint64_t{n_updates});
        json.field("compact_ms", compact_ms);
        json.field("compact_vs_rebuild", compact_vs_rebuild);
        json.field("churn_slowdown", churn_slowdown);
        benchkit::stamp_provenance(json);
        if (!json.write_file(args.json_out())) {
            std::fprintf(stderr, "bench_churn_locality: cannot write %s\n",
                         args.json_out().c_str());
            return 2;
        }
    }
    return 0;
}
