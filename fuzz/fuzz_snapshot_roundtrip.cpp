// fuzz/fuzz_snapshot_roundtrip.cpp — harness 6: save/load image equivalence.
//
// The snapshot contract (DESIGN.md §11) is twofold. First, round-trip
// fidelity: serialize → load must yield a FIB that answers every lookup
// exactly like the live trie it was taken from (and the RIB oracle), for
// any op sequence, any configuration, compacted or not, both address
// families — and the loaded image must pass the structural verifier.
// Second, corruption rejection: every byte of the image is covered by a
// checksum (header or payload), so a single bit flip at ANY fuzz-chosen
// offset must make the loader throw ImageError rather than serve a mangled
// table. This harness checks both properties on every input. And the image
// is dense — only the reachable runs, packed in DFS pre-order — so it is a
// function of the reachable FIB alone: when compact() runs without the
// dictionary re-encoding, the image before it and after it must be equal.
// The compile codes leaf runs with compact()'s coder, so a table compiled
// from the final RIB saves the same image before and after compact() in
// every configuration.
//
// The restored batch check drives the batch walk over the image's view(), so
// a walk that disagrees with the scalar walk on any fuzz-grown (or
// dict-coded, or folded) image is a finding. Under config bit 0x20 with
// direct pointing, compiled and compacted FIBs carry folded runs (format
// v5), which the packer must place and the verifier must walk.
#include <string>
#include <vector>

#include "fuzz/common.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/radix_trie.hpp"
#include "snapshot/snapshot.hpp"

namespace {

constexpr const char* kHarness = "fuzz_snapshot_roundtrip";

template <class Addr>
void run(fuzz::ByteReader& in, const poptrie::Config& cfg, bool compact,
         std::uint32_t flip_sel)
{
    const auto ops = fuzz::decode_ops<Addr>(in);
    std::vector<typename Addr::value_type> probes;
    while (in.remaining() >= sizeof(typename Addr::value_type))
        probes.push_back(fuzz::read_key<Addr>(in));

    // quiescent: the fuzz harness is single-threaded — no reader thread
    // exists, so drain/compact/serialize are safe.
    const psync::QuiescentSection quiescent;
    rib::RadixTrie<Addr> rib;
    poptrie::Poptrie<Addr> pt{cfg};
    for (const auto& op : ops) pt.apply(rib, op.prefix, op.next_hop);
    pt.drain();
    {
        poptrie::Poptrie<Addr> compiled{rib, cfg};
        const auto before = snapshot::serialize(compiled);
        compiled.compact();
        if (before != snapshot::serialize(compiled))
            fuzz::fail(kHarness, "compaction changed a compiled FIB's image",
                       std::to_string(before.size()) + " bytes before compact()");
    }
    snapshot::Image uncompacted;
    if (compact) {
        if (!cfg.leaf_dict) uncompacted = snapshot::serialize(pt);
        pt.compact();
    }

    const auto img = snapshot::serialize(pt);
    if (!uncompacted.empty() && uncompacted != img)
        fuzz::fail(kHarness, "compaction changed the dense image",
                   std::to_string(uncompacted.size()) + " bytes before compact(), " +
                       std::to_string(img.size()) + " after");
    const auto fib = snapshot::SnapshotFib<Addr>::load_buffer(img.data(), img.size());

    fuzz::boundary_probes(rib.routes(), probes);
    probes.push_back(0);
    probes.push_back(~typename Addr::value_type{0});
    for (const auto key : probes) {
        const Addr a{key};
        const auto restored = fib.lookup(a);
        const auto live = pt.lookup(a);
        const auto want = rib.lookup(a);
        if (restored != live || restored != want)
            fuzz::fail(kHarness, "snapshot round-trip divergence",
                       "at " + netbase::to_string(a) + ": restored=" +
                           std::to_string(restored) + " live=" + std::to_string(live) +
                           " rib=" + std::to_string(want));
    }

    // The restored batch walk must agree with the restored scalar path.
    std::vector<rib::NextHop> batch(probes.size());
    poptrie::batch::lookup_batch_pipelined(fib.view(), probes.data(), batch.data(),
                                           probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (batch[i] != fib.lookup(Addr{probes[i]}))
            fuzz::fail(kHarness, "restored batch/scalar divergence",
                       "at " + netbase::to_string(Addr{probes[i]}));
    }

    const auto vr = snapshot::verify_image(fib);
    if (!vr.ok())
        fuzz::fail(kHarness, "verify_image failure on round-tripped image", vr.summary());

    // Corruption rejection: flip one fuzz-chosen bit anywhere in the image.
    auto corrupted = img;
    const std::size_t off = static_cast<std::size_t>(flip_sel) % corrupted.size();
    corrupted[off] ^= static_cast<std::uint8_t>(1u << (flip_sel >> 29));
    bool rejected = false;
    try {
        static_cast<void>(snapshot::SnapshotFib<Addr>::load_buffer(corrupted.data(),
                                                                   corrupted.size()));
    } catch (const snapshot::ImageError&) {
        rejected = true;
    }
    if (!rejected)
        fuzz::fail(kHarness, "corrupted image accepted",
                   "bit " + std::to_string(flip_sel >> 29) + " flipped at byte " +
                       std::to_string(off) + " of " + std::to_string(corrupted.size()));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    fuzz::ByteReader in(data, size);
    const auto cfg = fuzz::decode_config(in.u8());
    const std::uint8_t sel = in.u8();
    const std::uint32_t flip_sel = in.u32();
    const bool compact = (sel & 0x40u) != 0;
    if ((sel & 0x80u) != 0)
        run<netbase::Ipv6Addr>(in, cfg, compact, flip_sel);
    else
        run<netbase::Ipv4Addr>(in, cfg, compact, flip_sel);
    return 0;
}
