// bench/bench_snapshot.cpp — the warm-start lifecycle of one FIB image.
//
// A restart that rebuilds the FIB from a RIB dump pays the full §3 build
// cost before the first packet can be answered; a restart that maps a
// snapshot image (DESIGN.md §11) pays only header validation plus page
// faults. This bench puts numbers on that trade on the SAME table:
//
//   live           build + compact, then measure in-memory throughput
//   save           serialize + write + rename (the persist cost)
//   load (map)     open + mmap + validate, then the first probe pass
//                  (page-fault cost) and steady-state throughput
//   load (copy)    the copy-in fallback path, same measurements
//
// The probe-stream checksums must agree across live/map/copy — the bench
// exits non-zero on divergence, so a layout bug cannot produce a plausible
// number. Emits poptrie-bench/1 records for benchctl (suite component:
// snapshot; metric family snap.*).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "benchkit/cli.hpp"
#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "benchkit/runner.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/tablegen.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

struct LoadResult {
    double load_ms = 0;
    double first_pass_ms = 0;
    std::uint64_t first_checksum = 0;
    benchkit::RateResult rate;
    std::string backing;
};

LoadResult measure_load(const std::string& path, snapshot::LoadOptions::Placement placement,
                        const char* phase, std::size_t lookups, unsigned trials,
                        std::uint64_t seed)
{
    LoadResult r;
    snapshot::LoadOptions opt;
    opt.placement = placement;
    const auto t0 = std::chrono::steady_clock::now();
    const auto fib = snapshot::SnapshotFib4::load_file(path, opt);
    r.load_ms = ms_since(t0);
    r.backing = alloc::backing_name(fib.memory_report().backing);

    // First probe pass: on the mapped path this is where the page faults
    // land, i.e. the real "time until the table answers at speed" tail.
    const auto f0 = std::chrono::steady_clock::now();
    const benchkit::RateResult first = benchkit::measure_random(
        [&fib](std::uint32_t a) { return fib.lookup(netbase::Ipv4Addr{a}); }, lookups, 1,
        seed);
    r.first_pass_ms = ms_since(f0);
    r.first_checksum = first.checksum;

    r.rate = benchkit::measure_random(
        [&fib](std::uint32_t a) { return fib.lookup(netbase::Ipv4Addr{a}); }, lookups,
        trials, seed);
    std::printf("%-13s %8.2f Mlps (±%.2f)   load=%.2f ms first_pass=%.2f ms backing=%s\n",
                phase, r.rate.mlps_mean, r.rate.mlps_std, r.load_ms, r.first_pass_ms,
                r.backing.c_str());
    return r;
}

void emit_phase(benchkit::JsonRecords& json, const char* phase, const benchkit::RateResult& rate,
                const LoadResult* load)
{
    json.begin_record();
    json.field("tool", std::string_view{"bench_snapshot"});
    json.field("phase", std::string_view{phase});
    json.field("mlps", rate.mlps_mean);
    json.field("mlps_std", rate.mlps_std);
    if (load != nullptr) {
        json.field("load_ms", load->load_ms);
        json.field("first_pass_ms", load->first_pass_ms);
        json.field("backing", std::string_view{load->backing});
    }
    benchkit::stamp_provenance(json);
}

}  // namespace

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv,
                              {{"routes", K::kU64}, {"image", K::kText},
                               {"direct-bits", K::kU64}});
    if (args.handle_help(
            "bench_snapshot",
            "  --routes=N        synthetic table size (default 150000)\n"
            "  --lookups=N       lookups per trial (default 2097152)\n"
            "  --trials=N        timed trials per phase (default 5)\n"
            "  --direct-bits=N   direct pointing bits (default 18)\n"
            "  --image=FILE      image path (default: under the temp dir)\n"
            "  --seed=S          table/probe seed (default 1)\n"
            "  --json-out=FILE   write poptrie-bench/1 records to FILE"))
        return 0;

    const std::size_t n_routes = args.get_u64("routes", 150'000);
    const std::size_t lookups = args.get_u64("lookups", std::size_t{1} << 21);
    const auto trials = static_cast<unsigned>(args.get_u64("trials", 5));
    const std::uint64_t seed = args.seed(1);
    std::string image = args.get("image", "");
    if (image.empty())
        image = (std::filesystem::temp_directory_path() /
                 ("bench_snapshot_" + std::to_string(::getpid()) + ".img"))
                    .string();

    poptrie::Config cfg;
    cfg.direct_bits = static_cast<unsigned>(args.get_u64("direct-bits", 18));

    workload::TableGenConfig gen;
    gen.seed = seed;
    gen.target_routes = n_routes;
    const auto routes = workload::generate_table(gen);
    rib::RadixTrie<netbase::Ipv4Addr> rib;
    rib.insert_all(routes);

    std::printf("# snapshot lifecycle: %zu routes, %zu lookups x %u trials, "
                "direct_bits=%u, image=%s\n",
                routes.size(), lookups, trials, cfg.direct_bits, image.c_str());

    // quiescent: single-threaded bench — no reader thread ever exists, so
    // compact() and the serialize under save() are safe.
    const psync::QuiescentSection quiescent;
    auto pt = std::make_unique<poptrie::Poptrie4>(rib, cfg);
    pt->compact();
    benchkit::note_arena_backing(alloc::backing_name(pt->memory_report().backing));

    const auto live = benchkit::measure_random(
        [&pt](std::uint32_t a) { return pt->lookup(netbase::Ipv4Addr{a}); }, lookups, trials,
        seed + 100);
    std::printf("%-13s %8.2f Mlps (±%.2f)\n", "live", live.mlps_mean, live.mlps_std);

    const auto s0 = std::chrono::steady_clock::now();
    snapshot::save(*pt, image);
    const double save_ms = ms_since(s0);
    const auto image_bytes = std::filesystem::file_size(image);
    std::printf("%-13s %8.2f ms   (%zu bytes)\n", "save", save_ms,
                static_cast<std::size_t>(image_bytes));

    const auto mapped = measure_load(image, snapshot::LoadOptions::Placement::kAuto,
                                     "snapshot-map", lookups, trials, seed + 100);
    const auto copied = measure_load(image, snapshot::LoadOptions::Placement::kCopy,
                                     "snapshot-copy", lookups, trials, seed + 100);
    std::filesystem::remove(image);

    // All three measure the same table with the same probe stream: any
    // checksum disagreement means the image did not round-trip. (The first
    // probe pass runs one trial, so it checks map-vs-copy, not vs steady.)
    if (mapped.first_checksum != copied.first_checksum ||
        mapped.rate.checksum != live.checksum || copied.rate.checksum != live.checksum) {
        std::fprintf(stderr,
                     "bench_snapshot: checksum divergence (live=%llx map=%llx copy=%llx)\n",
                     static_cast<unsigned long long>(live.checksum),
                     static_cast<unsigned long long>(mapped.rate.checksum),
                     static_cast<unsigned long long>(copied.rate.checksum));
        return 1;
    }

    const double snapshot_vs_live =
        live.mlps_mean > 0 ? mapped.rate.mlps_mean / live.mlps_mean : 0;
    std::printf("save %.1f ms, load(map) %.2f ms, load(copy) %.2f ms, "
                "snapshot/live = %.3f\n",
                save_ms, mapped.load_ms, copied.load_ms, snapshot_vs_live);
    std::printf("# checksum %016llx\n", static_cast<unsigned long long>(live.checksum));

    if (!args.json_out().empty()) {
        benchkit::JsonRecords json;
        emit_phase(json, "live", live, nullptr);
        emit_phase(json, "snapshot_map", mapped.rate, &mapped);
        emit_phase(json, "snapshot_copy", copied.rate, &copied);
        json.begin_record();
        json.field("tool", std::string_view{"bench_snapshot"});
        json.field("phase", std::string_view{"summary"});
        json.field("routes", std::uint64_t{routes.size()});
        json.field("image_bytes", std::uint64_t{image_bytes});
        json.field("save_ms", save_ms);
        json.field("snapshot_vs_live", snapshot_vs_live);
        benchkit::stamp_provenance(json);
        if (!json.write_file(args.json_out())) {
            std::fprintf(stderr, "bench_snapshot: cannot write %s\n", args.json_out().c_str());
            return 2;
        }
    }
    return 0;
}
