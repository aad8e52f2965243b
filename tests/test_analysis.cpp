// Tests for the structural invariant auditor (analysis/audit.hpp): clean
// tables must audit clean across every configuration and through update
// churn, and — just as important — injected corruption must be *detected*.
// An auditor that never fires is indistinguishable from no auditor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <optional>
#include <string_view>

#include "analysis/audit.hpp"
#include "analysis/lookup_cost.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"
#include "workload/xorshift.hpp"

using namespace testhelpers;
using analysis::AuditAccess;
using analysis::AuditOptions;
using analysis::AuditReport;
using poptrie::Config;
using poptrie::Poptrie4;
using poptrie::Poptrie6;

namespace {

bool has_check(const AuditReport& r, std::string_view name)
{
    for (const auto& v : r.violations())
        if (v.check == name) return true;
    return false;
}

/// Indices of every reachable node, BFS order (roots first).
template <class Addr>
std::vector<std::uint32_t> reachable_nodes(const poptrie::Poptrie<Addr>& pt)
{
    const auto& pools = AuditAccess::pools(pt);
    const auto& nodes = pools.nodes;
    std::vector<std::uint32_t> out;
    std::deque<std::uint32_t> queue;
    if (pt.config().direct_bits == 0) {
        queue.push_back(pools.root);
    } else {
        for (const std::uint32_t v : pools.direct)
            if (!(v & poptrie::Poptrie<Addr>::kDirectLeafBit)) queue.push_back(v);
    }
    while (!queue.empty()) {
        const auto idx = queue.front();
        queue.pop_front();
        out.push_back(idx);
        const auto& n = nodes[idx];
        const auto nkids = static_cast<unsigned>(netbase::popcount64(n.vector));
        for (unsigned i = 0; i < nkids; ++i) queue.push_back(n.base1 + i);
    }
    return out;
}

/// First reachable node satisfying `pred`, or nullopt.
template <class Addr, class Pred>
std::optional<std::uint32_t> find_node(const poptrie::Poptrie<Addr>& pt, Pred&& pred)
{
    for (const auto idx : reachable_nodes(pt))
        if (pred(AuditAccess::pools(pt).nodes[idx])) return idx;
    return std::nullopt;
}

}  // namespace

TEST(Audit, CleanOnCornerTableAllConfigs)
{
    const auto routes = corner_case_table();
    const auto rib = load(routes);
    for (const unsigned direct_bits : {0u, 12u, 16u, 18u}) {
        for (const bool leafvec : {true, false}) {
            for (const bool aggregate : {true, false}) {
                Config cfg;
                cfg.direct_bits = direct_bits;
                cfg.leaf_compression = leafvec;
                cfg.route_aggregation = aggregate;
                const Poptrie4 pt{rib, cfg};
                const auto report = analysis::audit(pt, rib);
                EXPECT_TRUE(report.ok())
                    << "direct_bits=" << direct_bits << " leafvec=" << leafvec
                    << " aggregate=" << aggregate << "\n"
                    << report.summary();
                EXPECT_GT(report.nodes_checked, 0u);
                EXPECT_GT(report.probes_checked, 0u);
            }
        }
    }
}

TEST(Audit, CleanOnEmptyTable)
{
    for (const unsigned direct_bits : {0u, 16u}) {
        Config cfg;
        cfg.direct_bits = direct_bits;
        const Poptrie4 pt{cfg};
        const rib::RadixTrie<Ipv4Addr> empty;
        const auto report = analysis::audit(pt, empty);
        EXPECT_TRUE(report.ok()) << report.summary();
    }
}

TEST(Audit, CleanThroughUpdateChurn)
{
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    workload::TableGenConfig gen;
    gen.seed = 7;
    gen.target_routes = 20'000;
    gen.next_hops = 31;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);

    Config cfg;
    cfg.direct_bits = 16;
    Poptrie4 pt{rib, cfg};
    analysis::audit_or_abort(pt, rib);

    workload::UpdateFeedConfig ucfg;
    ucfg.updates = 1'000;
    ucfg.next_hops = 31;
    const auto feed = workload::make_update_feed(routes, ucfg);

    // Cheap structural audit after every single update; full audit with
    // differential probing every 100.
    AuditOptions cheap;
    cheap.random_probes = 32;
    cheap.max_boundary_routes = 0;
    std::size_t applied = 0;
    for (const auto& ev : feed) {
        pt.apply(rib, ev.prefix, ev.next_hop);
        ++applied;
        const auto report = analysis::audit(pt, rib, cheap);
        ASSERT_TRUE(report.ok()) << "after update " << applied << "\n" << report.summary();
        if (applied % 100 == 0) analysis::audit_or_abort(pt, rib);
    }
    pt.drain();
    const auto final_report = analysis::audit(pt, rib);
    EXPECT_TRUE(final_report.ok()) << final_report.summary();
}

TEST(Audit, CleanIPv6ThroughUpdateChurn)
{
    // writer: single-threaded test — this thread is the sole updater.
    const psync::EbrWriterSection writer;
    workload::TableGen6Config gen;
    gen.seed = 3;
    const auto routes = workload::generate_table6(gen);
    rib::RadixTrie<netbase::Ipv6Addr> rib;
    rib.insert_all(routes);

    Config cfg;
    cfg.direct_bits = 16;
    Poptrie6 pt{rib, cfg};
    analysis::audit_or_abort(pt, rib);

    // Address-family-generic churn: withdraw, re-announce, revive.
    workload::Xorshift128 rng(99);
    std::vector<bool> live(routes.size(), true);
    AuditOptions cheap;
    cheap.random_probes = 32;
    cheap.max_boundary_routes = 0;
    for (int i = 0; i < 500; ++i) {
        const std::size_t j = rng.next_below(static_cast<std::uint32_t>(routes.size()));
        if (live[j] && rng.next_below(4) == 0) {
            pt.apply(rib, routes[j].prefix, rib::kNoRoute);
            live[j] = false;
        } else {
            pt.apply(rib, routes[j].prefix, static_cast<NextHop>(1 + rng.next_below(13)));
            live[j] = true;
        }
        const auto report = analysis::audit(pt, rib, cheap);
        ASSERT_TRUE(report.ok()) << "after update " << i << "\n" << report.summary();
    }
    pt.drain();
    analysis::audit_or_abort(pt, rib);
}

// ---------------------------------------------------------------------------
// Fault injection: every class of corruption the auditor claims to cover
// must actually trip it. All mutations go through AuditAccess on a fresh
// Poptrie so tests stay independent.

namespace {

/// The corner table compiled with the paper's 16-bit leaf runs, or with
/// dictionary-coded ones (`coded`).
Poptrie4 corner_poptrie(unsigned direct_bits = 0, bool coded = false)
{
    Config cfg;
    cfg.direct_bits = direct_bits;
    cfg.leaf_dict = coded;
    return Poptrie4{load(corner_case_table()), cfg};
}

/// The code array offset of a coded node run.
std::uint32_t code_offset(const Poptrie4::Node& n) { return n.base0 & ~poptrie::kLeaf8Bit; }

bool has_coded_run(const Poptrie4::Node& n)
{
    return n.leafvec != 0 && (n.base0 & poptrie::kLeaf8Bit) != 0;
}

/// Finds a reachable node satisfying `pred` and hands it to `mutate`.
template <class Pred, class Mutate>
void plant_in_node(Poptrie4& pt, Pred&& pred, Mutate&& mutate)
{
    const auto idx = find_node(pt, pred);
    ASSERT_TRUE(idx.has_value());
    mutate(AuditAccess::pools(pt).nodes[*idx]);
}

/// One structural fault, the table it is planted in, and the named check
/// that must report it — from audit() on the live trie, and from
/// snapshot::verify_image() on an image serialized from it.
struct PlantedFault {
    const char* name;
    unsigned direct_bits;
    const char* check;
    void (*plant)(Poptrie4&);
    bool coded = false;  // planted in dictionary-coded leaf runs
};

const PlantedFault kClearedRunStart{
    "cleared run start", 0, "leafvec-first-run-missing", [](Poptrie4& pt) {
        plant_in_node(
            pt,
            [](const Poptrie4::Node& n) {
                return n.leafvec != 0 && n.vector != ~std::uint64_t{0};
            },
            [](Poptrie4::Node& n) { n.leafvec &= n.leafvec - 1; });  // first run-start bit
    }};
const PlantedFault kLeafvecOnInternalSlot{
    "leafvec bit on an internal slot", 0, "leafvec-overlaps-vector", [](Poptrie4& pt) {
        plant_in_node(
            pt, [](const Poptrie4::Node& n) { return n.vector != 0; },
            [](Poptrie4::Node& n) { n.leafvec |= n.vector & (~n.vector + 1); });  // lowest
    }};
const PlantedFault kBase1OutOfRange{
    "base1 out of range", 0, "node-run-out-of-range", [](Poptrie4& pt) {
        plant_in_node(
            pt, [](const Poptrie4::Node& n) { return n.vector != 0; },
            [](Poptrie4::Node& n) { n.base1 = 0x0FFF'FFFFu; });
    }};
const PlantedFault kBase0OutOfRange{
    "base0 out of range", 0, "leaf-run-out-of-range", [](Poptrie4& pt) {
        plant_in_node(
            pt, [](const Poptrie4::Node& n) { return n.leafvec != 0; },
            [](Poptrie4::Node& n) { n.base0 = 0x0FFF'FFFFu; });
    }};
const PlantedFault kNonMinimalRun{
    "non-minimal leaf run", 0, "leaf-run-not-minimal", [](Poptrie4& pt) {
        auto& leaves = AuditAccess::pools(pt).leaves;
        plant_in_node(
            pt, [](const Poptrie4::Node& n) { return netbase::popcount64(n.leafvec) >= 2; },
            [&](Poptrie4::Node& n) { leaves[n.base0 + 1] = leaves[n.base0]; });
    }};
const PlantedFault kCodeOutOfDict{
    "code outside the dictionary", 0, "leaf8-code-out-of-dict",
    [](Poptrie4& pt) {
        auto& pools = AuditAccess::pools(pt);
        plant_in_node(pt, has_coded_run, [&](Poptrie4::Node& n) {
            pools.leaves8[code_offset(n)] = static_cast<std::uint8_t>(pools.leaf_dict.size());
        });
    },
    true};
const PlantedFault kCodeRunOutOfRange{
    "coded run out of range", 0, "leaf8-run-out-of-range",
    [](Poptrie4& pt) {
        plant_in_node(pt, has_coded_run,
                      [](Poptrie4::Node& n) { n.base0 = poptrie::kLeaf8Bit | 0x0FFF'FFFFu; });
    },
    true};
const PlantedFault kNonMinimalCodedRun{
    "non-minimal coded run", 0, "leaf-run-not-minimal",
    [](Poptrie4& pt) {
        auto& codes = AuditAccess::pools(pt).leaves8;
        plant_in_node(
            pt,
            [](const Poptrie4::Node& n) {
                return has_coded_run(n) && netbase::popcount64(n.leafvec) >= 2;
            },
            [&](Poptrie4::Node& n) { codes[code_offset(n) + 1] = codes[code_offset(n)]; });
    },
    true};
const PlantedFault kDirectLeafOverflow{
    "direct leaf payload overflow", 16, "direct-leaf-overflow", [](Poptrie4& pt) {
        // Leaf payload above the 16-bit next-hop range.
        AuditAccess::pools(pt).direct[0] = Poptrie4::kDirectLeafBit | 0x0001'0000u;
    }};
const PlantedFault kDirectIndexOutOfRange{
    "direct index out of range", 16, "root-index-out-of-range", [](Poptrie4& pt) {
        // Internal index pointing outside the node pool.
        AuditAccess::pools(pt).direct[0] = 0x0FFF'FFFFu;
    }};
const PlantedFault kAliasedSubtree{
    "aliased subtree", 16, "node-aliased", [](Poptrie4& pt) {
        // Point two direct slots at the same internal node.
        auto& direct = AuditAccess::pools(pt).direct;
        std::optional<std::size_t> first;
        for (std::size_t d = 0; d < direct.size(); ++d) {
            if (direct[d] & Poptrie4::kDirectLeafBit) continue;
            if (!first) {
                first = d;
            } else {
                direct[d] = direct[*first];
                return;
            }
        }
        FAIL() << "fewer than two internal direct slots";
    }};

/// The first direct slot of `pt` that holds a folded run.
std::uint32_t& first_folded_slot(Poptrie4& pt)
{
    auto& direct = AuditAccess::pools(pt).direct;
    const auto it = std::find_if(direct.begin(), direct.end(),
                                 [](std::uint32_t v) { return (v >> 30) == 3; });
    EXPECT_NE(it, direct.end()) << "no folded run";
    return it == direct.end() ? direct[0] : *it;
}

/// The byte offset of the folded run a direct slot addresses.
std::uint32_t folded_offset(std::uint32_t slot) { return slot & poptrie::kFoldedOffsetMask; }

const PlantedFault kFoldedRunOutOfRange{
    "folded run out of range", 16, "folded-run-out-of-range",
    [](Poptrie4& pt) {
        first_folded_slot(pt) = Poptrie4::kDirectLeafBit | Poptrie4::kFoldedBit | 0x0FFF'FFFFu;
    },
    true};
const PlantedFault kFoldedRunStartCleared{
    "folded leafvec bit 0 clear", 16, "leafvec-first-run-missing",
    [](Poptrie4& pt) {
        auto& codes = AuditAccess::pools(pt).leaves8;
        std::uint8_t* const at = codes.data() + folded_offset(first_folded_slot(pt));
        std::uint64_t leafvec;
        std::memcpy(&leafvec, at, sizeof leafvec);
        leafvec &= ~std::uint64_t{1};
        std::memcpy(at, &leafvec, sizeof leafvec);
    },
    true};
const PlantedFault kFoldedCodeOutOfDict{
    "folded code outside the dictionary", 16, "leaf8-code-out-of-dict",
    [](Poptrie4& pt) {
        auto& pools = AuditAccess::pools(pt);
        pools.leaves8[folded_offset(first_folded_slot(pt)) + 8] =
            static_cast<std::uint8_t>(pools.leaf_dict.size());
    },
    true};

const PlantedFault* const kStructuralFaults[] = {
    &kClearedRunStart,       &kLeafvecOnInternalSlot, &kBase1OutOfRange,
    &kBase0OutOfRange,       &kNonMinimalRun,         &kCodeOutOfDict,
    &kCodeRunOutOfRange,     &kNonMinimalCodedRun,    &kDirectLeafOverflow,
    &kDirectIndexOutOfRange, &kAliasedSubtree,        &kFoldedRunOutOfRange,
    &kFoldedRunStartCleared, &kFoldedCodeOutOfDict,
};

/// Plants `fault` in a fresh corner-case trie and requires audit() to
/// report its check.
void expect_audit_detects(const PlantedFault& fault)
{
    SCOPED_TRACE(fault.name);
    auto pt = corner_poptrie(fault.direct_bits, fault.coded);
    const auto rib = load(corner_case_table());
    fault.plant(pt);
    if (::testing::Test::HasFatalFailure()) return;
    const auto report = analysis::audit(pt, rib);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_check(report, fault.check)) << report.summary();
}

}  // namespace

TEST(AuditFaultInjection, DetectsClearedLeafRunStart)
{
    expect_audit_detects(kClearedRunStart);
}

TEST(AuditFaultInjection, DetectsLeafvecBitOnInternalSlot)
{
    expect_audit_detects(kLeafvecOnInternalSlot);
}

TEST(AuditFaultInjection, DetectsBase1OutOfRange) { expect_audit_detects(kBase1OutOfRange); }

TEST(AuditFaultInjection, DetectsBase0OutOfRange) { expect_audit_detects(kBase0OutOfRange); }

TEST(AuditFaultInjection, DetectsNonMinimalLeafRun) { expect_audit_detects(kNonMinimalRun); }

TEST(AuditFaultInjection, DetectsLeafValueCorruption)
{
    auto pt = corner_poptrie();
    const auto rib = load(corner_case_table());
    const auto idx =
        find_node(pt, [](const Poptrie4::Node& n) { return n.leafvec != 0; });
    ASSERT_TRUE(idx.has_value());
    auto& pools = AuditAccess::pools(pt);
    const auto& node = pools.nodes[*idx];
    pools.leaves[node.base0] = static_cast<NextHop>(pools.leaves[node.base0] + 7);
    const auto report = analysis::audit(pt, rib);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(has_check(report, "lookup-mismatch") ||
                has_check(report, "leaf-run-not-minimal"))
        << report.summary();
}

TEST(AuditFaultInjection, DetectsCodedRunCorruption)
{
    expect_audit_detects(kCodeOutOfDict);
    expect_audit_detects(kCodeRunOutOfRange);
    expect_audit_detects(kNonMinimalCodedRun);
}

TEST(AuditFaultInjection, DetectsUnsortedDictionary)
{
    auto pt = corner_poptrie(0, true);
    const auto rib = load(corner_case_table());
    auto& dict = AuditAccess::pools(pt).leaf_dict;
    ASSERT_GE(dict.size(), 2u);
    std::swap(dict[0], dict[1]);
    const auto report = analysis::audit(pt, rib);
    EXPECT_TRUE(has_check(report, "leaf8-dict-unsorted")) << report.summary();
}

TEST(AuditFaultInjection, DetectsVectorCorruption)
{
    auto pt = corner_poptrie();
    const auto rib = load(corner_case_table());
    const auto idx =
        find_node(pt, [](const Poptrie4::Node& n) { return n.vector != 0; });
    ASSERT_TRUE(idx.has_value());
    AuditAccess::pools(pt).nodes[*idx].vector ^= 1;
    EXPECT_FALSE(analysis::audit(pt, rib).ok());
}

TEST(AuditFaultInjection, DetectsDirectSlotCorruption)
{
    expect_audit_detects(kDirectLeafOverflow);
    expect_audit_detects(kDirectIndexOutOfRange);
}

TEST(AuditFaultInjection, DetectsAliasedSubtree) { expect_audit_detects(kAliasedSubtree); }

TEST(AuditFaultInjection, DetectsFoldedRunCorruption)
{
    expect_audit_detects(kFoldedRunOutOfRange);
    expect_audit_detects(kFoldedRunStartCleared);
    expect_audit_detects(kFoldedCodeOutOfDict);
}

TEST(AuditFaultInjection, DetectsAFoldedRunOverlappingACodedRun)
{
    // A node's coded run pointed into a folded run's codes: both read the
    // same bytes of the code array. The image packer copies each run on
    // its own, so only the live audit can see this one.
    auto pt = corner_poptrie(16, true);
    const auto rib = load(corner_case_table());
    const std::uint32_t folded = folded_offset(first_folded_slot(pt));
    plant_in_node(pt, has_coded_run, [&](Poptrie4::Node& n) {
        n.base0 = poptrie::kLeaf8Bit | (folded + 8);
    });
    const auto report = analysis::audit(pt, rib);
    EXPECT_TRUE(has_check(report, "leaf8-runs-overlap")) << report.summary();
}

// The image verifier runs the auditor's structural walk, so every structural
// fault must survive serialize() -> load_buffer() (the checksums are
// recomputed over the faulty arrays) and fire the same named check there.
TEST(AuditFaultInjection, ImageVerifierFiresTheSameChecks)
{
    const auto rib = load(corner_case_table());
    for (const PlantedFault* fault : kStructuralFaults) {
        SCOPED_TRACE(fault->name);
        auto pt = corner_poptrie(fault->direct_bits, fault->coded);
        fault->plant(pt);
        ASSERT_FALSE(HasFatalFailure());
        const auto audited = analysis::audit(pt, rib);
        EXPECT_TRUE(has_check(audited, fault->check)) << audited.summary();
        snapshot::Image image;
        {
            // writer: single-threaded test — this thread is the only writer.
            const psync::EbrWriterSection writer;
            image = snapshot::serialize(pt);
        }
        const auto fib = snapshot::SnapshotFib4::load_buffer(image.data(), image.size());
        const auto report = snapshot::verify_image(fib);
        EXPECT_FALSE(report.ok());
        EXPECT_TRUE(has_check(report, fault->check)) << report.summary();
    }
}

// ---------------------------------------------------------------------------
// Sub-auditors in isolation.

// Plays both EBR roles (reader guard + retire/drain) on one thread to walk
// the auditor through every domain state; TSA models capabilities
// per-function and would reject the role mix, so the body is NO_TSA — the
// single-threaded harness is the out-of-band safety argument.
static void audit_ebr_clean_domain_and_retire_flow() POPTRIE_NO_TSA
{
    psync::EbrDomain d;
    EXPECT_TRUE(analysis::audit_ebr(d).ok());
    auto reader = d.register_reader();
    int freed = 0;
    d.retire([&] { ++freed; });
    EXPECT_TRUE(analysis::audit_ebr(d).ok());
    {
        const psync::EbrDomain::Guard g{reader};
        EXPECT_TRUE(analysis::audit_ebr(d).ok());
    }
    d.drain();
    EXPECT_EQ(freed, 1);
    EXPECT_TRUE(analysis::audit_ebr(d).ok());
}

TEST(AuditEbr, CleanDomainAndRetireFlow) { audit_ebr_clean_domain_and_retire_flow(); }

TEST(AuditAllocator, CleanFreshAndAfterChurn)
{
    alloc::BuddyAllocator a{256};
    EXPECT_TRUE(analysis::audit_allocator(a).ok());
    workload::Xorshift128 rng(5);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> held;
    for (int step = 0; step < 3000; ++step) {
        if (held.empty() || (rng.next() & 1)) {
            const std::uint32_t want = 1 + rng.next_below(32);
            if (const auto got = a.allocate(want)) held.emplace_back(*got, want);
        } else {
            const auto i = rng.next_below(static_cast<std::uint32_t>(held.size()));
            a.free(held[i].first, held[i].second);
            held.erase(held.begin() + i);
        }
        if (step % 100 == 0) {
            const auto report = analysis::audit_allocator(a);
            ASSERT_TRUE(report.ok()) << report.summary();
        }
    }
    for (const auto& [off, count] : held) a.free(off, count);
    const auto report = analysis::audit_allocator(a);
    EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------------------------
// Lookup cost: lines and dependent loads per lookup, replayed through the
// counting view. The counts are a function of the layout and the keys
// alone, so they are pinned on a seeded table.

namespace {

std::vector<std::uint32_t> uniform_keys(std::size_t n, std::uint64_t seed)
{
    workload::Xorshift128 rng(seed);
    std::vector<std::uint32_t> keys(n);
    for (auto& k : keys) k = rng.next();
    return keys;
}

}  // namespace

TEST(LookupCost, FoldedRootsCutALinePerRootedLookupOnSeed901)
{
    // perfbench paper-random's table. Every internal node is a childless
    // direct-slot root there: with 16-bit leaves a rooted lookup reads the
    // 24-byte node (1.25 lines on average) and a leaf line; folded, it reads
    // one run of a leafvec and a few codes, which crosses a line about one
    // time in twenty.
    workload::TableGenConfig gen;
    gen.seed = 901;
    gen.target_routes = 500'000;
    const auto rib = load(workload::generate_table(gen));
    const auto keys = uniform_keys(1 << 16, 902);

    Config plain;
    plain.leaf_dict = false;
    const auto before = analysis::lookup_cost(Poptrie4{rib, plain}, keys.data(), keys.size());
    const auto after = analysis::lookup_cost(Poptrie4{rib, Config{}}, keys.data(), keys.size());
    for (const auto* c : {&before, &after}) {
        EXPECT_EQ(c->lookups, keys.size());
        EXPECT_EQ(c->depth[0] + c->depth[1], keys.size());
        EXPECT_NEAR(c->direct_hit_share(), 0.721, 0.002);
    }
    EXPECT_NEAR(before.lines_per_lookup(), 1.627, 0.005);
    EXPECT_NEAR(before.loads_per_lookup(), 1.558, 0.005);
    EXPECT_NEAR(before.mean_depth(), 0.279, 0.002);
    EXPECT_EQ(before.folded, 0u);
    EXPECT_NEAR(after.lines_per_lookup(), 1.323, 0.005);
    EXPECT_NEAR(after.loads_per_lookup(), 1.293, 0.005);
    EXPECT_EQ(after.depth[0], keys.size());
    EXPECT_EQ(after.folded + after.direct_hits, keys.size());
}

TEST(LookupCost, CountsEveryLevelOfAFullDepthWalk)
{
    // Without direct pointing every lookup starts at the root: no direct
    // hits, no folded runs, and one dependent load per node plus the leaf.
    const auto rib = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 0;
    const Poptrie4 pt{rib, cfg};
    const auto keys = uniform_keys(1 << 12, 903);
    const auto c = analysis::lookup_cost(pt, keys.data(), keys.size());
    EXPECT_EQ(c.direct_hits, 0u);
    EXPECT_EQ(c.folded, 0u);
    EXPECT_EQ(c.depth[0], 0u);
    EXPECT_NEAR(c.loads_per_lookup(), c.mean_depth() + 1, 1e-9);
    EXPECT_GE(c.lines_per_lookup(), c.loads_per_lookup());
}
