// §4.9 — update performance: (a) replay of an hour-scale BGP update feed
// against a full table (per-update latency, replaced objects per update),
// (b) randomized full-route insertion time, both on Poptrie18 with the
// lock-free incremental updater.
#include <algorithm>
#include <chrono>

#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "common.hpp"

using namespace bench;

int main(int argc, char** argv)
{
    const benchkit::Args args(argc, argv);
    if (args.handle_help("bench_update",
                         "  --updates=N   feed length (default 23446)\n"
                         "  --no-insert   skip the full-route insertion phase"))
        return 0;
    const auto n_updates = args.get_u64("updates", 23'446);  // the paper's hour of linx-p52

    std::printf("Section 4.9: incremental update performance (Poptrie18)\n");
    std::printf("# paper: 23,446 updates in 58.90 ms => 2.51 us/update; per update\n"
                "# 0.041 top-level slots, 6.05 leaves, 0.48 inodes replaced; full-route\n"
                "# randomized insertion 5.10 us/prefix (Tier1-A), 4.57 (Tier1-B)\n\n");
    benchkit::JsonRecords json;

    // (a) update feed on an RV-linx-p52-like table.
    {
        const auto specs = workload::routeviews_specs();
        const auto spec = *std::find_if(specs.begin(), specs.end(), [](const auto& s) {
            return s.name == "RV-linx-p52";
        });
        auto d = load_dataset(spec);
        poptrie::Config cfg;
        cfg.direct_bits = 18;
        poptrie::Poptrie4 pt{d.rib, cfg};

        workload::UpdateFeedConfig ucfg;
        ucfg.updates = n_updates;
        ucfg.next_hops = spec.config.next_hops;
        const auto feed = workload::make_update_feed(d.routes, ucfg);

        const auto t0 = std::chrono::steady_clock::now();
        for (const auto& ev : feed) pt.apply(d.rib, ev.prefix, ev.next_hop);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const auto& c = pt.update_counters();
        const auto per = [&](std::uint64_t v) {
            return static_cast<double>(v) / static_cast<double>(c.updates);
        };
        const double us_per_update = ms * 1000.0 / static_cast<double>(feed.size());
        std::printf("update feed on %s: %zu updates (%.1f%% announce)\n", d.name.c_str(),
                    feed.size(), 100.0 * ucfg.announce_fraction);
        std::printf("  total %.2f ms => %.2f us/update (paper: 58.90 ms, 2.51 us)\n", ms,
                    us_per_update);
        std::printf("  replaced per update: %.3f top-level slots (paper 0.041),"
                    " %.2f leaves (paper 6.05), %.2f inodes (paper 0.48)\n\n",
                    per(c.direct_stores), per(c.leaves_allocated), per(c.nodes_allocated));
        json.begin_record();
        json.field("bench", std::string_view{"update"});
        json.field("phase", std::string_view{"feed"});
        json.field("dataset", d.name);
        json.field("updates", std::uint64_t{feed.size()});
        json.field("us_per_update", us_per_update);
        json.field("leaves_per_update", per(c.leaves_allocated));
        json.field("inodes_per_update", per(c.nodes_allocated));
        benchkit::stamp_provenance(json);
    }

    // (b) randomized full-route insertion.
    if (!args.has("no-insert")) {
        for (const auto& spec : {workload::real_tier1_a(), workload::real_tier1_b()}) {
            auto routes = workload::make_table(spec);
            workload::Xorshift128 rng(args.seed(3));
            for (std::size_t i = routes.size(); i > 1; --i)
                std::swap(routes[i - 1],
                          routes[rng.next_below(static_cast<std::uint32_t>(i))]);

            rib::RadixTrie<Ipv4Addr> rib;
            poptrie::Config cfg;
            cfg.direct_bits = 18;
            poptrie::Poptrie4 pt{rib, cfg};
            const auto t0 = std::chrono::steady_clock::now();
            for (const auto& r : routes) pt.apply(rib, r.prefix, r.next_hop);
            const double secs =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
            const double us_per_prefix = secs * 1e6 / static_cast<double>(routes.size());
            std::printf("full-route randomized insertion on %s: %zu prefixes in %.2f s"
                        " => %.2f us/prefix\n",
                        spec.name.c_str(), routes.size(), secs, us_per_prefix);
            json.begin_record();
            json.field("bench", std::string_view{"update"});
            json.field("phase", std::string_view{"insert"});
            json.field("dataset", spec.name);
            json.field("prefixes", std::uint64_t{routes.size()});
            json.field("us_per_prefix", us_per_prefix);
            benchkit::stamp_provenance(json);
        }
    }

    const auto json_path = args.json_out();
    if (!json_path.empty() && !json.write_file(json_path)) {
        std::fprintf(stderr, "bench_update: cannot write %s\n", json_path.c_str());
        return 2;
    }
    return 0;
}
