// fuzz/fuzz_update_rebuild.cpp — harness 2: incremental update ≡ full rebuild.
//
// §3.5's claim is that apply() patches the live FIB into a state that answers
// every lookup exactly like a FIB compiled from scratch from the updated RIB
// (when route aggregation is on, the *arrays* may differ — the incrementally
// updated table is allowed to be less tightly compressed — but the lookup
// relation must be identical). This harness replays a fuzz-decoded op
// sequence into one Poptrie via apply() and, at fuzz-chosen checkpoints,
// rebuilds a second Poptrie from the same RIB with the same configuration,
// then compares the two over every route boundary and a set of fuzz-chosen
// addresses. The structural auditor runs on both tables at every
// checkpoint, so allocator/EBR corruption shows up even when the lookup
// relation still holds, and under config bit 0x20 (Config::leaf_dict) the
// rebuilt table's leaf runs are dictionary-coded straight from the compile,
// its childless direct-slot roots folded. With sel bit 3 the updated table
// starts as a compile too: the first half of the ops is loaded into the RIB
// and compiled in one pass, the way Router::load serves a table, and only
// the rest goes through apply(), which rebuilds every folded slot it
// touches as a node or a next hop; compactions at checkpoints fold the
// childless roots again. With route aggregation off, a compacted table must
// also be byte-identical to the rebuilt one (analysis::layout_difference):
// compact() is the compile run over the live FIB.
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "fuzz/common.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"

namespace {

constexpr const char* kHarness = "fuzz_update_rebuild";

template <class Addr>
void check_equivalent(const poptrie::Poptrie<Addr>& incremental,
                      const rib::RadixTrie<Addr>& rib, const poptrie::Config& cfg,
                      std::vector<typename Addr::value_type> probes, std::size_t at_op,
                      bool compacted)
{
    const poptrie::Poptrie<Addr> rebuilt{rib, cfg};
    fuzz::boundary_probes(rib.routes(), probes);
    probes.push_back(0);
    probes.push_back(~typename Addr::value_type{0});
    for (const auto key : probes) {
        const Addr a{key};
        const auto inc = incremental.lookup(a);
        const auto full = rebuilt.lookup(a);
        const auto want = rib.lookup(a);
        if (inc != full || inc != want)
            fuzz::fail(kHarness, "incremental/rebuild divergence",
                       "after op " + std::to_string(at_op) + " at " + netbase::to_string(a) +
                           ": incremental=" + std::to_string(inc) +
                           " rebuilt=" + std::to_string(full) +
                           " rib=" + std::to_string(want));
    }
    analysis::AuditOptions aopt;
    aopt.random_probes = 256;
    const auto rebuilt_report = analysis::audit(rebuilt, rib, aopt);
    if (!rebuilt_report.ok())
        fuzz::fail(kHarness, "audit failure on the rebuilt table",
                   "after op " + std::to_string(at_op) + "\n" + rebuilt_report.summary());
    const auto report = analysis::audit(incremental, rib, aopt);
    if (!report.ok())
        fuzz::fail(kHarness, "audit failure on incrementally updated table",
                   "after op " + std::to_string(at_op) + "\n" + report.summary());
    if (compacted && !cfg.route_aggregation) {
        const std::string diff = analysis::layout_difference(analysis::Layout{incremental},
                                                             analysis::Layout{rebuilt});
        if (!diff.empty())
            fuzz::fail(kHarness, "compacted/rebuilt layout divergence",
                       "after op " + std::to_string(at_op) + ": " + diff + " differ");
    }
}

template <class Addr>
void run(fuzz::ByteReader& in, const poptrie::Config& cfg, unsigned checkpoint_mask,
         bool compact_at_checkpoints, bool compile_first)
{
    const auto ops = fuzz::decode_ops<Addr>(in);

    std::vector<typename Addr::value_type> extra_probes;
    while (in.remaining() >= sizeof(typename Addr::value_type))
        extra_probes.push_back(fuzz::read_key<Addr>(in));

    // quiescent: the fuzz harness is single-threaded — no reader thread
    // exists, so the checkpoint compact()/drain() passes are safe.
    const psync::QuiescentSection quiescent;
    rib::RadixTrie<Addr> rib;
    const std::size_t loaded = compile_first ? ops.size() / 2 : 0;
    for (std::size_t k = 0; k < loaded; ++k) {
        if (ops[k].next_hop == rib::kNoRoute)
            static_cast<void>(rib.erase(ops[k].prefix));
        else
            rib.insert(ops[k].prefix, ops[k].next_hop);
    }
    poptrie::Poptrie<Addr> pt{rib, cfg};
    if (compile_first) check_equivalent(pt, rib, cfg, extra_probes, loaded, false);
    std::size_t i = loaded;
    while (i < ops.size()) {
        pt.apply(rib, ops[i].prefix, ops[i].next_hop);
        ++i;
        // Checkpoint cadence is fuzz-chosen (a power-of-two mask): some
        // inputs compare after every op, others only at the end, so both
        // "fresh damage" and "accumulated drift" schedules are explored.
        // With sel bit 6 set, every checkpoint is preceded by a compaction
        // pass, so apply()-on-compacted-pools and compact()-on-churned-pools
        // are both fuzzed; without aggregation the compacted layout must then
        // be the rebuild's.
        if ((i & checkpoint_mask) == 0) {
            if (compact_at_checkpoints) pt.compact();
            check_equivalent(pt, rib, cfg, extra_probes, i, compact_at_checkpoints);
        }
    }
    if (compact_at_checkpoints) pt.compact();
    check_equivalent(pt, rib, cfg, extra_probes, i, compact_at_checkpoints);
    pt.drain();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    fuzz::ByteReader in(data, size);
    const auto cfg = fuzz::decode_config(in.u8());
    const std::uint8_t sel = in.u8();
    const unsigned checkpoint_mask = (1u << (sel & 0x7u)) - 1;  // 0,1,3,...,127
    const bool compact = (sel & 0x40u) != 0;
    const bool compile_first = (sel & 0x08u) != 0;
    if ((sel & 0x80u) != 0)
        run<netbase::Ipv6Addr>(in, cfg, checkpoint_mask, compact, compile_first);
    else
        run<netbase::Ipv4Addr>(in, cfg, checkpoint_mask, compact, compile_first);
    return 0;
}
