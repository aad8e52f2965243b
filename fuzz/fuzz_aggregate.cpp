// fuzz/fuzz_aggregate.cpp — harness 5: route aggregation preserves semantics.
//
// §3's route aggregation merges identical-next-hop sibling subtrees and
// drops redundant routes before the FIB is compiled. The correctness
// contract is purely observational: for EVERY address, LPM over the
// aggregated route set equals LPM over the original set. Fuzz-decoded route
// sets are the adversarial case generator here — duplicates, sibling floods
// and deep nesting are exactly the shapes the merge logic walks.
//
// Checks per execution:
//   * aggregate() output answers every probe like the original trie
//     (probes: boundaries of ORIGINAL routes, boundaries of AGGREGATED
//     routes — the new merge points — plus fuzz-chosen addresses);
//   * aggregation never grows the route count;
//   * aggregation is idempotent: aggregating the aggregated set changes
//     nothing (a canonical form, or the merge missed something);
//   * a Poptrie built with cfg.route_aggregation on equals one built with it
//     off, probe for probe (the in-build aggregation path);
//   * the in-build aggregation compiles the very FIB that the aggregated
//     route set compiles to without it: same stats, same image payload;
//   * RadixTrie::insert_all over the announcements (duplicates included,
//     in fuzz order) leaves the routes and node count of an insert() loop.
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "fuzz/common.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/aggregate.hpp"
#include "rib/radix_trie.hpp"
#include "snapshot/snapshot.hpp"

namespace {

constexpr const char* kHarness = "fuzz_aggregate";

auto stat_fields(const poptrie::Stats& s)
{
    return std::array{s.internal_nodes,        s.leaves,           s.direct_slots,
                      s.memory_bytes,          s.allocated_bytes,  s.node_pool_used,
                      s.leaf_pool_used,        s.node_free_blocks, s.leaf_free_blocks,
                      s.node_largest_free_run, s.leaf_largest_free_run,
                      s.node_high_water,       s.leaf_high_water};
}

template <class Addr>
std::uint64_t payload_checksum(const poptrie::Poptrie<Addr>& pt)
{
    // writer: single-threaded harness — no other thread touches the FIB.
    const psync::EbrWriterSection writer;
    const auto img = snapshot::serialize(pt);
    snapshot::ImageHeader h;
    std::memcpy(&h, img.data(), sizeof h);
    return h.payload_checksum;
}

template <class Addr>
void run(fuzz::ByteReader& in, unsigned direct_bits)
{
    const auto ops = fuzz::decode_ops<Addr>(in);
    rib::RadixTrie<Addr> original;
    rib::RouteList<Addr> announced;
    for (const auto& op : ops) {
        if (op.next_hop == rib::kNoRoute) {
            original.erase(op.prefix);
        } else {
            original.insert(op.prefix, op.next_hop);
            announced.push_back({op.prefix, op.next_hop});
        }
    }

    rib::RadixTrie<Addr> looped;
    for (const auto& r : announced) looped.insert(r.prefix, r.next_hop);
    rib::RadixTrie<Addr> bulk;
    bulk.insert_all(announced);
    if (bulk.routes() != looped.routes() || bulk.node_count() != looped.node_count())
        fuzz::fail(kHarness, "insert_all differs from an insert loop",
                   std::to_string(bulk.route_count()) + " routes / " +
                       std::to_string(bulk.node_count()) + " nodes vs " +
                       std::to_string(looped.route_count()) + " / " +
                       std::to_string(looped.node_count()));

    const auto aggregated_routes = rib::aggregate_routes(original);
    if (aggregated_routes.size() > original.route_count())
        fuzz::fail(kHarness, "aggregation grew the table",
                   std::to_string(original.route_count()) + " -> " +
                       std::to_string(aggregated_routes.size()) + " routes");
    rib::RadixTrie<Addr> aggregated;
    aggregated.insert_all(aggregated_routes);

    const auto again = rib::aggregate_routes(aggregated);
    if (again != aggregated_routes)
        fuzz::fail(kHarness, "aggregation not idempotent",
                   std::to_string(aggregated_routes.size()) + " routes re-aggregate to " +
                       std::to_string(again.size()));

    poptrie::Config cfg_raw;
    cfg_raw.direct_bits = direct_bits;
    cfg_raw.route_aggregation = false;
    poptrie::Config cfg_agg = cfg_raw;
    cfg_agg.route_aggregation = true;
    const poptrie::Poptrie<Addr> pt_raw{original, cfg_raw};
    const poptrie::Poptrie<Addr> pt_agg{original, cfg_agg};
    const poptrie::Poptrie<Addr> pt_of_aggregated{aggregated, cfg_raw};
    if (stat_fields(pt_agg.stats()) != stat_fields(pt_of_aggregated.stats()) ||
        payload_checksum(pt_agg) != payload_checksum(pt_of_aggregated))
        fuzz::fail(kHarness, "in-build aggregation compiles another FIB",
                   "than the aggregated route set: " +
                       std::to_string(pt_agg.stats().internal_nodes) + " vs " +
                       std::to_string(pt_of_aggregated.stats().internal_nodes) + " inodes");

    std::vector<typename Addr::value_type> probes;
    fuzz::boundary_probes(original.routes(), probes);
    fuzz::boundary_probes(aggregated_routes, probes);
    while (in.remaining() >= sizeof(typename Addr::value_type))
        probes.push_back(fuzz::read_key<Addr>(in));
    probes.push_back(0);
    probes.push_back(~typename Addr::value_type{0});

    for (const auto key : probes) {
        const Addr a{key};
        const auto want = original.lookup(a);
        if (const auto got = aggregated.lookup(a); got != want)
            fuzz::fail(kHarness, "aggregated FIB diverges from the unaggregated one",
                       netbase::to_string(a) + ": aggregated=" + std::to_string(got) +
                           " original=" + std::to_string(want));
        if (const auto got = pt_agg.lookup(a); got != want)
            fuzz::fail(kHarness, "poptrie(route_aggregation=on) diverges",
                       netbase::to_string(a) + ": got " + std::to_string(got) + ", want " +
                           std::to_string(want));
        if (const auto got = pt_raw.lookup(a); got != want)
            fuzz::fail(kHarness, "poptrie(route_aggregation=off) diverges",
                       netbase::to_string(a) + ": got " + std::to_string(got) + ", want " +
                           std::to_string(want));
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    fuzz::ByteReader in(data, size);
    const std::uint8_t sel = in.u8();
    constexpr unsigned direct_choices[] = {0, 6, 16, 18};
    const unsigned direct_bits = direct_choices[sel & 0x3u];
    if ((sel & 0x80u) != 0)
        run<netbase::Ipv6Addr>(in, direct_bits);
    else
        run<netbase::Ipv4Addr>(in, direct_bits);
    return 0;
}
