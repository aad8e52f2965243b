// Batch-pipeline benchmark — single-core lookup rate (Mlps) of the scalar
// walk and the refill batch walk across table size, direct-pointing width
// and traffic pattern. This is the Figure-8-style evidence for DESIGN.md §12:
// how much memory-level parallelism the batch walk actually extracts on
// this host, at the window and burst that serve (batch::kWindow lookups in
// flight, 256-key bursts — the Dataplane default).
//
// Both paths read the same SnapshotFib4 image. Every cell is gated on
// checksum equivalence against the scalar walk over the identical key
// stream: a path that returns even one different next hop fails the whole
// run (exit 1). A fast wrong path must never produce a number.
//
// Each path is timed twice: with its bursts back to back, so each burst
// finds the FIB as cached as the last one left it, and in the regime lpmd
// and perfbench serve, where before each burst the bench spins kServedIdle
// on the clock, as an idle open-loop worker polls its ring, and times the
// bursts only.
//
// benchctl runs this as the `pipe.*` family (the served cells as
// `.idle25` rows); the committed baselines pin cell rates inside their
// noise band.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "common.hpp"
#include "snapshot/snapshot.hpp"

using namespace bench;

namespace {

/// Keys per kernel call: the Dataplane's default burst.
constexpr std::size_t kBurst = 256;
/// Key-stream length. A power of two and a multiple of kBurst, so the timed
/// loop never sees a partial burst.
constexpr std::size_t kStream = 1u << 20;
/// The idle gap before each burst of a served cell. perfbench's open loop
/// offers kOpenMlps = 20 Mlps in 256-key bursts to kWorkers = 2 workers, so
/// each worker gets a burst every 25.6 µs.
constexpr std::chrono::microseconds kServedIdle{25};

enum class Kernel { kScalar, kPipelined };

const char* name(Kernel k)
{
    return k == Kernel::kScalar ? "scalar" : "pipelined";
}

std::vector<std::uint32_t> make_stream(std::string_view pattern, const Dataset& d,
                                       std::uint64_t seed)
{
    std::vector<std::uint32_t> keys;
    keys.reserve(kStream);
    if (pattern == "random") {
        workload::Xorshift128 rng(seed);
        for (std::size_t i = 0; i < kStream; ++i) keys.push_back(rng.next());
    } else if (pattern == "repeated") {
        // §4.2's repeated pattern: each random destination issued 16 times.
        workload::Xorshift128 rng(seed);
        while (keys.size() < kStream) {
            const std::uint32_t a = rng.next();
            for (int i = 0; i < 16 && keys.size() < kStream; ++i) keys.push_back(a);
        }
    } else if (pattern == "flows") {
        // Interleaved flows: every packet draws uniformly from a pool of 4096
        // distinct destinations. The working set stays cache-resident like
        // "repeated", but consecutive packets rarely share a destination, so
        // run coalescing never fires and the walks' branches stay
        // unpredictable: the batch walk's cost without a cache miss to hide.
        constexpr std::size_t kFlows = 4096;
        workload::Xorshift128 rng(seed);
        std::vector<std::uint32_t> pool;
        pool.reserve(kFlows);
        for (std::size_t i = 0; i < kFlows; ++i) pool.push_back(rng.next());
        for (std::size_t i = 0; i < kStream; ++i)
            keys.push_back(pool[rng.next() & (kFlows - 1)]);
    } else if (pattern == "trace") {
        workload::TraceConfig tc;
        tc.seed = seed;
        tc.packets = kStream;
        keys = workload::make_real_trace_like(d.rib, tc);
        keys.resize(kStream);
    } else {
        std::fprintf(stderr, "bench_batch_pipeline: unknown pattern '%s'\n",
                     std::string(pattern).c_str());
        std::exit(2);
    }
    return keys;
}

/// One burst through kernel `k`; the scalar kernel is SnapshotFib::lookup.
void run_burst(Kernel k, const snapshot::SnapshotFib4& snap, const std::uint32_t* keys,
               NextHop* out, std::size_t n)
{
    switch (k) {
        case Kernel::kScalar:
            for (std::size_t i = 0; i < n; ++i) out[i] = snap.lookup(Ipv4Addr{keys[i]});
            return;
        case Kernel::kPipelined:
            poptrie::batch::lookup_batch_pipelined(snap.view(), keys, out, n);
            return;
    }
}

/// Order-sensitive fold so a permuted (not just wrong) result also fails.
std::uint64_t fold_checksum(std::uint64_t h, const NextHop* out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) h = h * 1099511628211ULL + out[i];
    return h;
}

std::uint64_t checksum_pass(Kernel k, const snapshot::SnapshotFib4& snap,
                            const std::vector<std::uint32_t>& keys)
{
    std::vector<NextHop> out(kBurst);
    std::uint64_t h = 14695981039346656037ULL;
    for (std::size_t i = 0; i < keys.size(); i += kBurst) {
        run_burst(k, snap, keys.data() + i, out.data(), kBurst);
        h = fold_checksum(h, out.data(), kBurst);
    }
    return h;
}

/// Lookup rate of kernel `k` over `keys` for about `duration` seconds. With
/// `idle` zero the bursts run back to back and the clock is read once per
/// pass over the stream; otherwise each burst follows `idle` of spinning on
/// the clock, and only the bursts are timed.
double timed_mlps(Kernel k, const snapshot::SnapshotFib4& snap,
                  const std::vector<std::uint32_t>& keys, double duration,
                  std::chrono::microseconds idle, ChecksumSink& sink)
{
    using clock = std::chrono::steady_clock;
    std::vector<NextHop> out(kBurst);
    std::uint64_t consumed = 0;
    std::size_t done = 0;
    clock::duration busy{};
    const auto t0 = clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<clock::duration>(
                                   std::chrono::duration<double>(duration));
    for (;;) {
        for (std::size_t i = 0; i < keys.size(); i += kBurst) {
            if (idle.count() == 0) {
                run_burst(k, snap, keys.data() + i, out.data(), kBurst);
                continue;
            }
            const auto due = clock::now() + idle;
            while (clock::now() < due) {
            }
            const auto start = clock::now();
            run_burst(k, snap, keys.data() + i, out.data(), kBurst);
            busy += clock::now() - start;
        }
        consumed += out[0];
        done += keys.size();
        if (clock::now() >= deadline) break;
    }
    if (idle.count() == 0) busy = clock::now() - t0;
    sink.add(consumed);
    return benchkit::to_mlps(done, std::chrono::duration<double>(busy).count());
}

std::vector<std::string> split_list(const std::string& list)
{
    std::vector<std::string> out;
    for (std::size_t pos = 0; pos < list.size();) {
        const auto comma = std::min(list.find(',', pos), list.size());
        out.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv)
{
    using K = benchkit::Flag::Kind;
    const benchkit::Args args(argc, argv,
                              {{"routes-list", K::kText}, {"direct-list", K::kText},
                               {"patterns", K::kText}, {"duration", K::kDouble},
                               {"json", K::kSwitch}});
    if (args.handle_help(
            "bench_batch_pipeline",
            "  --routes-list=L   comma-separated table sizes (default 100000,600000)\n"
            "  --direct-list=L   comma-separated direct-pointing bits (default 18,0;\n"
            "                    0 forces full-depth walks — the latency-bound regime)\n"
            "  --patterns=L      comma-separated from random,repeated,flows,trace\n"
            "                    (default random,repeated,flows,trace)\n"
            "  --duration=S      seconds per cell (default 0.5, --full: 2)\n"
            "  --json            emit a JSON record per cell"))
        return 0;

    const auto routes_list = split_list(args.get("routes-list", "100000,600000"));
    const auto direct_list = split_list(args.get("direct-list", "18,0"));
    const auto patterns =
        split_list(args.get("patterns", "random,repeated,flows,trace"));
    const double duration = args.get_double("duration", args.has("full") ? 2.0 : 0.5);
    const auto seed = args.seed(1);

    std::printf("Batch pipeline: single-core batch-walk lookup rate\n");
    std::printf("# %zu-key bursts over a snapshot image; pipelined window kWindow=%u.\n",
                kBurst, poptrie::batch::kWindow);
    std::printf("# Every cell is checksum-gated against the scalar walk first.\n");
    std::printf("# Idle[us] > 0: spinning before each burst, bursts timed alone.\n\n");
    print_host_note();

    const Kernel kernels[] = {Kernel::kScalar, Kernel::kPipelined};
    const std::chrono::microseconds idles[] = {std::chrono::microseconds{0}, kServedIdle};

    benchkit::TablePrinter table({{"Routes", 7},
                                  {"Direct", 6},
                                  {"Pattern", 8, false},
                                  {"Path", 9, false},
                                  {"Idle[us]", 8},
                                  {"Rate[Mlps]", 10},
                                  {"vs scalar", 9}});
    table.print_header();
    benchkit::JsonRecords json;
    ChecksumSink sink;

    for (const auto& routes_str : routes_list) {
        const auto n_routes = std::strtoull(routes_str.c_str(), nullptr, 10);
        workload::TableGenConfig tg;
        tg.seed = seed;
        tg.target_routes = n_routes;
        tg.next_hops = 64;
        const auto d = load_routes("synthetic", workload::generate_table(tg));
        for (const auto& direct_str : direct_list) {
        const auto direct_bits = static_cast<unsigned>(
            std::strtoul(direct_str.c_str(), nullptr, 10));
        poptrie::Config pcfg;
        pcfg.direct_bits = direct_bits;
        const poptrie::Poptrie4 fib{d.rib, pcfg};
        // quiescent: single-threaded bench, no reader or writer exists.
        const psync::QuiescentSection quiescent;
        const auto image = snapshot::serialize(fib);
        const auto snap = snapshot::SnapshotFib4::load_buffer(image.data(), image.size());

        for (const auto& pattern : patterns) {
            const auto keys = make_stream(pattern, d, seed ^ n_routes);
            const std::uint64_t want = checksum_pass(Kernel::kScalar, snap, keys);
            double scalar_mlps[std::size(idles)]{};
            for (const Kernel k : kernels) {
                if (checksum_pass(k, snap, keys) != want) {
                    std::fprintf(stderr,
                                 "bench_batch_pipeline: checksum mismatch: kernel %s "
                                 "routes=%llu direct=%u pattern=%s\n",
                                 name(k), static_cast<unsigned long long>(n_routes),
                                 direct_bits, pattern.c_str());
                    return 1;
                }
                for (std::size_t r = 0; r < std::size(idles); ++r) {
                    const double mlps = timed_mlps(k, snap, keys, duration, idles[r], sink);
                    if (k == Kernel::kScalar) scalar_mlps[r] = mlps;
                    const double speedup = scalar_mlps[r] > 0 ? mlps / scalar_mlps[r] : 0;
                    const auto idle_us = static_cast<std::uint64_t>(idles[r].count());
                    table.print_row({std::to_string(n_routes), std::to_string(direct_bits),
                                     pattern, name(k), std::to_string(idle_us),
                                     benchkit::fmt(mlps, 2), benchkit::fmt(speedup, 2)});
                    json.begin_record();
                    json.field("routes", std::uint64_t{n_routes});
                    json.field("direct_bits", std::uint64_t{direct_bits});
                    json.field("pattern", pattern);
                    json.field("burst", std::uint64_t{kBurst});
                    json.field("idle_us", idle_us);
                    json.field("path", std::string_view{name(k)});
                    json.field("mlps", mlps);
                    json.field("speedup_vs_scalar", speedup);
                    json.field("checksum_ok", true);
                    benchkit::stamp_provenance(json);
                }
            }
        }
        }
    }

    if (args.has("json")) json.write(stdout);
    const auto json_path = args.json_out();
    if (!json_path.empty() && !json.write_file(json_path)) {
        std::fprintf(stderr, "bench_batch_pipeline: cannot write %s\n", json_path.c_str());
        return 2;
    }
    return 0;
}
