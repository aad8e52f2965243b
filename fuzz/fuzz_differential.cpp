// fuzz/fuzz_differential.cpp — harness 1: differential longest-prefix-match.
//
// The oracle argument (DESIGN.md §6): the binary radix trie is a direct
// transcription of the LPM definition, so its answer *is* the specification.
// Every other structure in the repository — Poptrie in fuzz-chosen
// configurations (built incrementally, via apply()) and the baselines
// (Patricia, Tree BitMap 16/64, D16R, SAIL, Lulea, DIR-24-8) — must agree
// with it on every address. Seven independent implementations agreeing by
// accident on an address where Poptrie is wrong would require the same
// mis-resolution in structurally unrelated code; a disagreement therefore
// localizes a real bug with high probability. On top of the lookup oracle,
// the structural auditor (analysis/audit.hpp) cross-checks Poptrie's
// internals after the op replay, so corruption that happens not to flip any
// probed lookup still fails the run.
//
// Input layout: [config byte][family byte][route ops...][trailing bytes =
// extra probe addresses]. Ops are decoded by fuzz::decode_ops (see
// common.hpp); the RIB and the Poptrie are updated op by op, exercising the
// §3.5 incremental-update path, then the baselines and a second Poptrie,
// compiled in one pass the way Router::load serves a table, are built from
// the final route set.
//
// Bit 0 of the family byte picks the address family; the other bits are
// ignored. After the scalar probes, the live EBR-guarded lookup_batch walk
// replays the whole probe set against the radix oracle. (The same walk over
// restored images runs in fuzz_snapshot_roundtrip.)
//
// Config-byte bit 0x20 selects Config::leaf_dict. The compiled Poptrie then
// codes its leaf runs straight from the compile and, with direct pointing
// and leafvec, folds its childless direct-slot roots into runs of the code
// array; the incrementally built one writes 16-bit runs and nodes, so after
// the scalar and batch probes it is compacted at a quiescent point (which
// codes and folds them) and the probe set replays, scalar and batch, over
// the dict-coded layout.
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "baselines/dir24.hpp"
#include "baselines/dxr.hpp"
#include "baselines/lulea.hpp"
#include "baselines/sail.hpp"
#include "baselines/treebitmap.hpp"
#include "fuzz/common.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/patricia.hpp"
#include "rib/radix_trie.hpp"
#include "sync/annotations.hpp"

namespace {

constexpr const char* kHarness = "fuzz_differential";

template <class Addr>
void mismatch(const std::string& structure, Addr addr, rib::NextHop got,
              rib::NextHop want)
{
    fuzz::fail(kHarness, "lookup disagreement",
               structure + " at " + netbase::to_string(addr) + ": got " +
                   std::to_string(got) + ", radix oracle says " + std::to_string(want));
}

/// Replays `probes` through the live EBR-guarded lookup_batch walk: it must
/// reproduce the oracle answers the scalar probe loop already pinned.
template <class Addr, class Poptrie>
void check_batch(const Poptrie& pt, bool leaf_compression, const rib::RadixTrie<Addr>& oracle,
                 const std::vector<typename Addr::value_type>& probes, const char* label)
{
    std::vector<rib::NextHop> got(probes.size());
    {
        // reader: single-threaded harness — the claim marks the EBR
        // capability lookup_batch requires; there is no concurrent updater.
        const psync::EbrReadSection reader;
        if (leaf_compression)
            pt.template lookup_batch<true>(probes.data(), got.data(), probes.size());
        else
            pt.template lookup_batch<false>(probes.data(), got.data(), probes.size());
    }
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const Addr a{probes[i]};
        if (const auto want = oracle.lookup(a); got[i] != want) mismatch(label, a, got[i], want);
    }
}

/// The oracle's routes compiled in one pass: under config bit 0x20 its leaf
/// runs are dictionary-coded from the compile. It must answer like the
/// oracle, scalar and batch, and pass the audit.
template <class Addr>
void check_compiled(const rib::RadixTrie<Addr>& oracle, const poptrie::Config& cfg,
                    const std::vector<typename Addr::value_type>& probes)
{
    const poptrie::Poptrie<Addr> compiled{oracle, cfg};
    for (const auto key : probes) {
        const Addr a{key};
        if (const auto got = compiled.lookup(a), want = oracle.lookup(a); got != want)
            mismatch("poptrie[compiled]", a, got, want);
    }
    check_batch(compiled, cfg.leaf_compression, oracle, probes, "lookup_batch[compiled]");
    analysis::AuditOptions aopt;
    aopt.random_probes = 512;
    const auto report = analysis::audit(compiled, oracle, aopt);
    if (!report.ok())
        fuzz::fail(kHarness, "poptrie-fsck audit failure on the compiled table",
                   report.summary());
}

void run_ipv4(fuzz::ByteReader& in, const poptrie::Config& cfg)
{
    using Addr = netbase::Ipv4Addr;
    const auto ops = fuzz::decode_ops<Addr>(in);

    rib::RadixTrie<Addr> oracle;
    poptrie::Poptrie<Addr> pt{cfg};
    for (const auto& op : ops) pt.apply(oracle, op.prefix, op.next_hop);

    const auto routes = oracle.routes();
    rib::PatriciaTrie<Addr> patricia;
    patricia.insert_all(routes);
    const baselines::TreeBitmap16 tbm16{oracle};
    const baselines::TreeBitmap64 tbm64{oracle};
    // The range/chunk-encoded baselines have documented structural limits
    // (§4.8); the decoder keeps next hops inside their 15-bit payload, and
    // the tables here are far below their chunk-count ceilings, so a
    // StructuralLimit out of these constructors is itself a finding — let it
    // propagate and abort the run.
    const baselines::Dxr d16r{oracle, {.direct_bits = 16}};
    const baselines::Sail sail{oracle};
    const baselines::Lulea lulea{oracle};
    const baselines::Dir24 dir24{oracle};

    std::vector<Addr::value_type> probes;
    fuzz::boundary_probes(routes, probes);
    while (in.remaining() >= 4) probes.push_back(in.u32());
    probes.push_back(0);
    probes.push_back(~Addr::value_type{0});

    for (const auto key : probes) {
        const Addr a{key};
        const auto want = oracle.lookup(a);
        if (const auto got = pt.lookup(a); got != want) mismatch("poptrie", a, got, want);
        if (const auto got = patricia.lookup(a); got != want) mismatch("patricia", a, got, want);
        if (const auto got = tbm16.lookup(a); got != want) mismatch("treebitmap16", a, got, want);
        if (const auto got = tbm64.lookup(a); got != want) mismatch("treebitmap64", a, got, want);
        if (const auto got = d16r.lookup(a); got != want) mismatch("d16r", a, got, want);
        if (const auto got = sail.lookup(a); got != want) mismatch("sail", a, got, want);
        if (const auto got = lulea.lookup(a); got != want) mismatch("lulea", a, got, want);
        if (const auto got = dir24.lookup(a); got != want) mismatch("dir24", a, got, want);
    }

    check_batch(pt, cfg.leaf_compression, oracle, probes, "lookup_batch");
    check_compiled(oracle, cfg, probes);

    // The incrementally built table holds 16-bit runs: compact it at a
    // quiescent point and replay the whole probe set over the re-laid-out
    // (now dict-coded) structure, so the auditor below walks tagged runs
    // that compact() coded.
    if (cfg.leaf_dict) {
        {
            // quiescent: single-threaded harness — no reader exists.
            const psync::QuiescentSection quiescent;
            pt.compact();
        }
        for (const auto key : probes) {
            const Addr a{key};
            const auto want = oracle.lookup(a);
            if (const auto got = pt.lookup(a); got != want)
                mismatch("poptrie[dict-compacted]", a, got, want);
        }
        check_batch(pt, cfg.leaf_compression, oracle, probes, "lookup_batch[dict-compacted]");
    }

    analysis::AuditOptions aopt;
    aopt.random_probes = 512;  // the heavy probing already happened above
    const auto report = analysis::audit(pt, oracle, aopt);
    if (!report.ok()) fuzz::fail(kHarness, "poptrie-fsck audit failure", report.summary());
}

void run_ipv6(fuzz::ByteReader& in, const poptrie::Config& cfg)
{
    using Addr = netbase::Ipv6Addr;
    const auto ops = fuzz::decode_ops<Addr>(in);

    rib::RadixTrie<Addr> oracle;
    poptrie::Poptrie<Addr> pt{cfg};
    for (const auto& op : ops) pt.apply(oracle, op.prefix, op.next_hop);

    const auto routes = oracle.routes();
    rib::PatriciaTrie<Addr> patricia;
    patricia.insert_all(routes);
    const baselines::TreeBitmap<Addr, 6> tbm6{oracle};
    const baselines::Dxr6 dxr6{oracle};

    std::vector<Addr::value_type> probes;
    fuzz::boundary_probes(routes, probes);
    while (in.remaining() >= 16) probes.push_back(in.u128v());
    probes.push_back(0);
    probes.push_back(~Addr::value_type{0});

    for (const auto key : probes) {
        const Addr a{key};
        const auto want = oracle.lookup(a);
        if (const auto got = pt.lookup(a); got != want) mismatch("poptrie6", a, got, want);
        if (const auto got = patricia.lookup(a); got != want)
            mismatch("patricia6", a, got, want);
        if (const auto got = tbm6.lookup(a); got != want) mismatch("treebitmap6", a, got, want);
        if (const auto got = dxr6.lookup(a); got != want) mismatch("dxr6", a, got, want);
    }

    check_batch(pt, cfg.leaf_compression, oracle, probes, "lookup_batch6");
    check_compiled(oracle, cfg, probes);

    // Same dict-compacted replay as the IPv4 leg.
    if (cfg.leaf_dict) {
        {
            // quiescent: single-threaded harness — no reader exists.
            const psync::QuiescentSection quiescent;
            pt.compact();
        }
        for (const auto key : probes) {
            const Addr a{key};
            const auto want = oracle.lookup(a);
            if (const auto got = pt.lookup(a); got != want)
                mismatch("poptrie6[dict-compacted]", a, got, want);
        }
        check_batch(pt, cfg.leaf_compression, oracle, probes, "lookup_batch6[dict-compacted]");
    }

    analysis::AuditOptions aopt;
    aopt.random_probes = 512;
    const auto report = analysis::audit(pt, oracle, aopt);
    if (!report.ok()) fuzz::fail(kHarness, "poptrie-fsck audit failure", report.summary());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    fuzz::ByteReader in(data, size);
    const auto cfg = fuzz::decode_config(in.u8());
    const bool v6 = (in.u8() & 1u) != 0;
    if (v6)
        run_ipv6(in, cfg);
    else
        run_ipv4(in, cfg);
    return 0;
}
