// tools/poptrie_fsck.cpp — file-system-check for Poptrie FIBs.
//
// Builds a Poptrie from a generated or loaded routing table, runs the full
// structural audit (analysis/audit.hpp) against the source RIB, optionally
// replays incremental updates re-auditing along the way, and exits non-zero
// on any violation. This is the command-line face of the invariant auditor:
//
//     poptrie_fsck --family 4 --routes 100000 --updates 1000
//     poptrie_fsck --family 6 --updates 1000 --audit-every 100
//     poptrie_fsck --file table.txt --direct-bits 16 --verbose
//
// Exit codes: 0 = clean, 1 = violations found, 2 = usage/input error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc/arena.hpp"
#include "analysis/audit.hpp"
#include "netbase/bits.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/tablegen.hpp"
#include "workload/tableio.hpp"
#include "workload/updatefeed.hpp"
#include "workload/xorshift.hpp"

namespace {

struct FsckOptions {
    int family = 4;
    std::string file;           // load instead of generating when non-empty
    std::size_t routes = 100'000;
    bool routes_set = false;
    std::uint64_t seed = 1;
    std::size_t updates = 0;
    std::size_t audit_every = 0;  // 0: audit only before/after the update run
    poptrie::Config cfg{};
    std::size_t probes = 4096;
    bool verbose = false;
    bool compact = false;  // run compact() after build/churn, check its oracles
    bool stats = false;    // print occupancy + fragmentation counters
    std::string inject_fault;  // "", "leaf", "vector", "direct" or "folded"
    std::string save_image;    // write a snapshot image after all stages
};

void usage(std::FILE* to)
{
    std::fputs(
        "usage: poptrie_fsck [options]\n"
        "  --family 4|6       address family (default 4)\n"
        "  --file PATH        load a table file instead of generating one\n"
        "  --routes N         generated table size (default 100000 / 20440 for v6)\n"
        "  --seed S           generator and probe seed (default 1)\n"
        "  --updates N        apply N incremental updates after the build audit\n"
        "  --audit-every K    full audit every K updates (default: only at the end)\n"
        "  --direct-bits S    direct-pointing bits (default 18)\n"
        "  --basic            disable leaf compression\n"
        "  --no-aggregate     disable route aggregation\n"
        "  --probes N         random differential probes per audit (default 4096)\n"
        "  --compact          run Poptrie::compact() after the build (and after\n"
        "                     the update run); the compacted build must be\n"
        "                     byte-identical to the compile, and with\n"
        "                     --no-aggregate so must the compacted churn\n"
        "  --stats            print pool occupancy and fragmentation counters\n"
        "                     at each stage\n"
        "  --inject-fault K   corrupt the built FIB before auditing (K: leaf,\n"
        "                     vector, direct, folded) -- the audit MUST then\n"
        "                     fail; exercises the detector end to end\n"
        "  --save-image F     write a snapshot image of the final FIB to F\n"
        "                     (after any --updates / --compact stages)\n"
        "  --verify-image F   audit an on-disk snapshot image instead of\n"
        "                     building a FIB: header, checksums, and the full\n"
        "                     structural walk; exit 1 on any violation\n"
        "  --verbose          print every audit's coverage summary\n",
        to);
}

bool parse_size(const std::string& flag, const char* s, std::size_t& out)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0') {
        std::fprintf(stderr, "poptrie_fsck: %s: '%s' is not a number\n", flag.c_str(), s);
        return false;
    }
    out = static_cast<std::size_t>(v);
    return true;
}

/// Runs one audit; returns its violation count and prints per --verbose.
template <class Addr>
std::size_t run_audit(const poptrie::Poptrie<Addr>& pt, const rib::RadixTrie<Addr>& rib,
                      const FsckOptions& opt, const std::string& stage)
{
    analysis::AuditOptions aopt;
    aopt.random_probes = opt.probes;
    aopt.seed = opt.seed ^ 0x5DEECE66Dull;
    const auto report = analysis::audit(pt, rib, aopt);
    if (!report.ok() || opt.verbose) {
        std::fprintf(report.ok() ? stdout : stderr, "[%s] %s", stage.c_str(),
                     report.summary().c_str());
    }
    return report.violation_count();
}

/// compact()'s byte-identity oracle: 1 (and a message) when the compacted
/// layout is not `compiled`, else 0.
template <class Addr>
std::size_t check_layout(const poptrie::Poptrie<Addr>& pt,
                         const analysis::Layout<Addr>& compiled, const std::string& stage)
{
    const std::string diff = analysis::layout_difference(analysis::Layout{pt}, compiled);
    if (diff.empty()) return 0;
    std::fprintf(stderr, "[%s] compacted %s differ from the compile's\n", stage.c_str(),
                 diff.c_str());
    return 1;
}

/// Prints the occupancy + fragmentation view of both pools (--stats): what
/// lpmd reports periodically, at fsck's stage granularity.
template <class Addr>
void print_stats(const poptrie::Poptrie<Addr>& pt, const std::string& stage)
{
    const auto s = pt.stats();
    const auto mem = pt.memory_report();
    std::printf(
        "[%s] inodes=%zu leaves=%zu direct=%zu backing=%s\n"
        "[%s] node pool: used=%zu high_water=%zu free_blocks=%zu largest_free_run=%zu\n"
        "[%s] leaf pool: used=%zu high_water=%zu free_blocks=%zu largest_free_run=%zu\n",
        stage.c_str(), s.internal_nodes, s.leaves, s.direct_slots,
        alloc::backing_name(mem.backing), stage.c_str(), s.node_pool_used,
        s.node_high_water, s.node_free_blocks, s.node_largest_free_run, stage.c_str(),
        s.leaf_pool_used, s.leaf_high_water, s.leaf_free_blocks, s.leaf_largest_free_run);
}

/// Address-family-generic update churn for tables that have no §4.9 feed
/// generator (IPv6): re-announce existing prefixes with fresh next hops,
/// withdraw live ones, and revive withdrawn ones.
template <class Addr>
std::size_t churn_updates(poptrie::Poptrie<Addr>& pt, rib::RadixTrie<Addr>& rib,
                          const rib::RouteList<Addr>& routes, const FsckOptions& opt,
                          std::size_t& violations)
{
    workload::Xorshift128 rng(opt.seed * 2654435761u + 7);
    std::vector<bool> live(routes.size(), true);
    std::size_t applied = 0;
    for (std::size_t i = 0; i < opt.updates; ++i) {
        const std::size_t j = rng.next_below(static_cast<std::uint32_t>(routes.size()));
        if (live[j] && rng.next_below(4) == 0) {
            pt.apply(rib, routes[j].prefix, rib::kNoRoute);
            live[j] = false;
        } else {
            const auto hop = static_cast<rib::NextHop>(1 + rng.next_below(419));
            pt.apply(rib, routes[j].prefix, hop);
            live[j] = true;
        }
        ++applied;
        if (opt.audit_every != 0 && applied % opt.audit_every == 0)
            violations += run_audit(pt, rib, opt,
                                    "update " + std::to_string(applied));
    }
    return applied;
}

/// Indices of every REACHABLE internal node (free-pool slots are invisible to
/// lookups and to the auditor, so corrupting them would prove nothing).
template <class Addr>
std::vector<std::uint32_t> reachable_nodes(const poptrie::Poptrie<Addr>& pt)
{
    const auto& pools = analysis::AuditAccess::pools(pt);
    const auto& nodes = pools.nodes;
    std::vector<std::uint32_t> out;
    std::size_t scan = 0;
    if (pt.config().direct_bits == 0) {
        out.push_back(pools.root);
    } else {
        for (const std::uint32_t v : pools.direct)
            if (!(v & poptrie::Poptrie<Addr>::kDirectLeafBit)) out.push_back(v);
    }
    while (scan < out.size()) {
        const auto& n = nodes[out[scan++]];
        const auto kids = static_cast<unsigned>(netbase::popcount64(n.vector));
        for (unsigned k = 0; k < kids; ++k) out.push_back(n.base1 + k);
    }
    return out;
}

/// Deliberate in-memory corruption (via the auditor's access backdoor) so the
/// detection path can be exercised end to end: a clean run after an injection
/// would mean the auditor is blind to that fault class.
template <class Addr>
bool inject_fault(poptrie::Poptrie<Addr>& pt, const FsckOptions& opt)
{
    auto& pools = analysis::AuditAccess::pools(pt);
    auto& nodes = pools.nodes;
    if (opt.inject_fault == "leaf") {
        // Change a reachable leaf's next hop: lookups over that chunk now
        // disagree with the RIB (and the run may stop being minimal). A
        // dictionary-coded leaf takes the next dictionary entry's code.
        for (const auto idx : reachable_nodes(pt)) {
            const std::uint32_t b0 = nodes[idx].base0;
            if (nodes[idx].leafvec == 0) continue;
            if ((b0 & poptrie::kLeaf8Bit) == 0) {
                auto& slot = pools.leaves[b0];
                slot = static_cast<rib::NextHop>(slot + 7);
                return true;
            }
            if (pools.leaf_dict.size() < 2) continue;
            auto& code = pools.leaves8[b0 & ~poptrie::kLeaf8Bit];
            code = static_cast<std::uint8_t>((code + 1u) % pools.leaf_dict.size());
            return true;
        }
        return false;
    }
    if (opt.inject_fault == "vector") {
        // Flip a child bit in a reachable node: popcount offsets shift for
        // every sibling after it.
        for (const auto idx : reachable_nodes(pt)) {
            if (nodes[idx].vector == 0) continue;
            nodes[idx].vector ^= 1;
            return true;
        }
        return false;
    }
    if (opt.inject_fault == "folded") {
        // Clear bit 0 of a folded run's leafvec: slot 0 of a childless root
        // always starts a run, and the walk now decodes the slots before
        // the second run start against the wrong code.
        for (const std::uint32_t slot : pools.direct) {
            if ((slot >> 30) != 3) continue;  // kDirectLeafBit | kFoldedBit
            std::uint8_t* const at = pools.leaves8.data() + (slot & poptrie::kFoldedOffsetMask);
            std::uint64_t leafvec;
            std::memcpy(&leafvec, at, sizeof leafvec);
            leafvec &= ~std::uint64_t{1};
            std::memcpy(at, &leafvec, sizeof leafvec);
            return true;
        }
        return false;
    }
    if (opt.inject_fault == "direct") {
        // Point a direct slot outside the node pool.
        auto& direct = pools.direct;
        if (direct.empty()) return false;
        direct[direct.size() / 2] = 0x0FFF'FFFFu;
        return true;
    }
    std::fprintf(stderr, "poptrie_fsck: unknown --inject-fault kind '%s'\n",
                 opt.inject_fault.c_str());
    std::exit(2);
}

template <class Addr>
int fsck(const rib::RouteList<Addr>& routes, const FsckOptions& opt)
{
    rib::RadixTrie<Addr> rib;
    rib.insert_all(routes);
    // writer: fsck is single-threaded — this thread is the FIB's only
    // writer for the compact()/drain()/save passes below.
    const psync::EbrWriterSection writer;
    poptrie::Poptrie<Addr> pt{rib, opt.cfg};
    if (opt.verbose) {
        const auto s = pt.stats();
        std::printf("table: %zu routes -> %zu inodes, %zu leaves, %zu direct slots\n",
                    rib.route_count(), s.internal_nodes, s.leaves, s.direct_slots);
    }

    if (!opt.inject_fault.empty() && !inject_fault(pt, opt)) {
        std::fprintf(stderr, "poptrie_fsck: table too small to inject a '%s' fault\n",
                     opt.inject_fault.c_str());
        return 2;
    }

    std::size_t violations = run_audit(pt, rib, opt, "build");
    if (opt.stats) print_stats(pt, "build");

    if (opt.compact && opt.inject_fault.empty()) {
        const analysis::Layout compiled{pt};
        pt.compact();
        violations += run_audit(pt, rib, opt, "compact");
        violations += check_layout(pt, compiled, "compact");
        if (opt.stats) print_stats(pt, "compact");
    }

    if (opt.updates != 0) {
        std::size_t applied = 0;
        if constexpr (Addr::kWidth == 32) {
            workload::UpdateFeedConfig ucfg;
            ucfg.seed = opt.seed + 13;
            ucfg.updates = opt.updates;
            const auto feed = workload::make_update_feed(routes, ucfg);
            for (const auto& ev : feed) {
                pt.apply(rib, ev.prefix, ev.next_hop);
                ++applied;
                if (opt.audit_every != 0 && applied % opt.audit_every == 0)
                    violations += run_audit(pt, rib, opt,
                                            "update " + std::to_string(applied));
            }
        } else {
            applied = churn_updates(pt, rib, routes, opt, violations);
        }
        violations += run_audit(pt, rib, opt, "after " + std::to_string(applied) + " updates");
        pt.drain();
        violations += run_audit(pt, rib, opt, "after drain");
        if (opt.stats) print_stats(pt, "after churn");
        if (opt.compact) {
            pt.compact();
            violations += run_audit(pt, rib, opt, "post-churn compact");
            if (!opt.cfg.route_aggregation)
                violations += check_layout(
                    pt, analysis::Layout{poptrie::Poptrie<Addr>{rib, opt.cfg}},
                    "post-churn compact");
            if (opt.stats) print_stats(pt, "post-churn compact");
        }
    }

    if (!opt.save_image.empty()) {
        // Written even when the audit failed: the e2e tests save a FIB with
        // an injected fault precisely to prove --verify-image catches it.
        snapshot::save(pt, opt.save_image);
        std::printf("poptrie_fsck: image written to %s\n", opt.save_image.c_str());
    }

    if (violations != 0) {
        std::fprintf(stderr, "poptrie_fsck: %zu violation(s)\n", violations);
        return 1;
    }
    std::puts("poptrie_fsck: clean");
    return 0;
}

/// --verify-image for one address family: load (header + checksum validation
/// happen inside the loader), then run the structural walk over the image.
template <class Addr>
int verify_image_family(const std::string& path, const FsckOptions& opt)
{
    const auto fib = snapshot::SnapshotFib<Addr>::load_file(path);
    const auto report = snapshot::verify_image(fib);
    if (!report.ok() || opt.verbose)
        std::fprintf(report.ok() ? stdout : stderr, "%s", report.summary().c_str());
    if (!report.ok()) {
        std::fprintf(stderr, "poptrie_fsck: image '%s' failed verification\n",
                     path.c_str());
        return 1;
    }
    std::printf("poptrie_fsck: image '%s' clean (%llu nodes, %llu leaves, "
                "%llu direct slots)\n",
                path.c_str(), static_cast<unsigned long long>(fib.header().node_count),
                static_cast<unsigned long long>(fib.header().leaf_count),
                static_cast<unsigned long long>(fib.header().direct_count));
    return 0;
}

int verify_image(const std::string& path, const FsckOptions& opt)
{
    try {
        const auto hdr = snapshot::read_header(path);
        if (hdr.family_width == 32) return verify_image_family<netbase::Ipv4Addr>(path, opt);
        if (hdr.family_width == 128)
            return verify_image_family<netbase::Ipv6Addr>(path, opt);
        std::fprintf(stderr, "poptrie_fsck: image '%s' has unknown family width %u\n",
                     path.c_str(), hdr.family_width);
        return 1;
    } catch (const snapshot::ImageError& e) {
        // A structurally invalid image is a verification failure, not a
        // usage error: the whole point of the subcommand is to catch these.
        std::fprintf(stderr, "poptrie_fsck: %s\n", e.what());
        return 1;
    } catch (const snapshot::ImageIoError& e) {
        std::fprintf(stderr, "poptrie_fsck: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "poptrie_fsck: %s\n", e.what());
        return 2;
    }
}

}  // namespace

int main(int argc, char** argv)
{
    FsckOptions opt;
    std::string verify_image_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "poptrie_fsck: %s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--family") {
            opt.family = std::atoi(value());
            if (opt.family != 4 && opt.family != 6) {
                std::fprintf(stderr, "poptrie_fsck: --family must be 4 or 6\n");
                return 2;
            }
        } else if (arg == "--file") {
            opt.file = value();
        } else if (arg == "--routes") {
            if (!parse_size(arg, value(), opt.routes)) return 2;
            opt.routes_set = true;
        } else if (arg == "--seed") {
            std::size_t s = 0;
            if (!parse_size(arg, value(), s)) return 2;
            opt.seed = s;
        } else if (arg == "--updates") {
            if (!parse_size(arg, value(), opt.updates)) return 2;
        } else if (arg == "--audit-every") {
            if (!parse_size(arg, value(), opt.audit_every)) return 2;
        } else if (arg == "--direct-bits") {
            std::size_t s = 0;
            if (!parse_size(arg, value(), s)) return 2;
            // The direct table has 2^s four-byte slots; past 24 bits (64 MiB)
            // a typo would try to allocate the machine away.
            if (s > 24) {
                std::fprintf(stderr, "poptrie_fsck: --direct-bits must be 0..24\n");
                return 2;
            }
            opt.cfg.direct_bits = static_cast<unsigned>(s);
        } else if (arg == "--basic") {
            opt.cfg.leaf_compression = false;
        } else if (arg == "--no-aggregate") {
            opt.cfg.route_aggregation = false;
        } else if (arg == "--probes") {
            if (!parse_size(arg, value(), opt.probes)) return 2;
        } else if (arg == "--compact") {
            opt.compact = true;
        } else if (arg == "--stats") {
            opt.stats = true;
        } else if (arg == "--inject-fault") {
            opt.inject_fault = value();
        } else if (arg == "--save-image") {
            opt.save_image = value();
        } else if (arg == "--verify-image") {
            verify_image_path = value();
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "poptrie_fsck: unknown option %s\n", arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (!verify_image_path.empty()) return verify_image(verify_image_path, opt);

    try {
        if (opt.family == 4) {
            rib::RouteList<netbase::Ipv4Addr> routes;
            if (!opt.file.empty()) {
                routes = workload::load_table4_file(opt.file);
            } else {
                workload::TableGenConfig gen;
                gen.seed = opt.seed;
                gen.target_routes = opt.routes_set ? opt.routes : 100'000;
                routes = workload::generate_table(gen);
            }
            return fsck(routes, opt);
        }
        rib::RouteList<netbase::Ipv6Addr> routes;
        if (!opt.file.empty()) {
            routes = workload::load_table6_file(opt.file);
        } else {
            workload::TableGen6Config gen;
            gen.seed = opt.seed;
            if (opt.routes_set) gen.target_routes = opt.routes;
            routes = workload::generate_table6(gen);
        }
        return fsck(routes, opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "poptrie_fsck: %s\n", e.what());
        return 2;
    }
}
