// Tests for the uncompressed multiway-trie baseline (paper Fig. 1) and for
// Poptrie's batched lookup extension.
#include <gtest/gtest.h>

#include "baselines/multiway.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"

using namespace testhelpers;
using baselines::MultiwayTrie4;
using poptrie::Poptrie4;
using rib::kNoRoute;

TEST(Multiway, EmptyTableMisses)
{
    const rib::RadixTrie<Ipv4Addr> rib;
    const MultiwayTrie4 t{rib};
    EXPECT_EQ(t.lookup(Ipv4Addr{0x01020304}), kNoRoute);
    EXPECT_EQ(t.node_count(), 1u);
}

TEST(Multiway, MatchesRadixOnCornerTable)
{
    const auto routes = corner_case_table();
    const auto rib = load(routes);
    const MultiwayTrie4 t{rib};
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return t.lookup(a); }, 200'000),
              0u);
}

TEST(Multiway, MatchesRadixOnGeneratedTable)
{
    workload::TableGenConfig gen;
    gen.seed = 41;
    gen.target_routes = 40'000;
    gen.next_hops = 25;
    gen.igp_routes = 2'000;
    const auto routes = workload::generate_table(gen);
    const auto rib = load(routes);
    const MultiwayTrie4 t{rib};
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return t.lookup(a); }, 300'000),
              0u);
}

TEST(Multiway, CompressionAblation)
{
    // The whole point of §3.1: on the same table, the uncompressed Fig. 1
    // trie costs an order of magnitude more memory than Poptrie.
    workload::TableGenConfig gen;
    gen.seed = 42;
    gen.target_routes = 30'000;
    const auto rib = load(workload::generate_table(gen));
    const MultiwayTrie4 naive{rib};
    poptrie::Config cfg;
    cfg.direct_bits = 0;
    cfg.route_aggregation = false;
    const Poptrie4 pt{rib, cfg};
    EXPECT_GT(naive.memory_bytes(), pt.stats().memory_bytes * 8);
    // Same node population (both expand the same radix by 6-bit strides).
    EXPECT_EQ(naive.node_count(), pt.stats().internal_nodes);
}

TEST(Multiway, Ipv6)
{
    rib::RadixTrie<netbase::Ipv6Addr> rib;
    rib.insert(*netbase::parse_prefix6("2001:db8::/32"), 1);
    rib.insert(*netbase::parse_prefix6("2001:db8:1::/48"), 2);
    const baselines::MultiwayTrie<netbase::Ipv6Addr> t{rib};
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8:1::7")), 2);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db8:2::7")), 1);
    EXPECT_EQ(t.lookup(*netbase::parse_ipv6("2001:db9::7")), kNoRoute);
}

// ---------------------------------------------------------------------------

class PoptrieBatch : public testing::TestWithParam<unsigned> {};

TEST_P(PoptrieBatch, MatchesScalarLookups)
{
    // reader: single-threaded test, no updater exists — the batch lookups
    // below are trivially inside a read-side critical section.
    const psync::EbrReadSection section;
    workload::TableGenConfig gen;
    gen.seed = 43;
    gen.target_routes = 30'000;
    gen.next_hops = 31;
    gen.igp_routes = 1'000;
    const auto rib = load(workload::generate_table(gen));
    workload::Xorshift128 rng(6);
    // Deliberately not a multiple of the lane width, to cover the tail path.
    std::vector<std::uint32_t> keys(100'003);
    for (auto& k : keys) k = rng.next();
    std::vector<rib::NextHop> out(keys.size());

    // Both leaf layouts: the default dictionary codes and 16-bit runs.
    for (const bool dict : {true, false}) {
        poptrie::Config cfg;
        cfg.direct_bits = GetParam();
        cfg.leaf_dict = dict;
        const Poptrie4 pt{rib, cfg};
        pt.lookup_batch<true>(keys.data(), out.data(), keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(out[i], pt.lookup_raw<true>(keys[i])) << "leaf_dict=" << dict << " #" << i;
    }
}

INSTANTIATE_TEST_SUITE_P(DirectBits, PoptrieBatch, testing::Values(0u, 16u, 18u),
                         [](const testing::TestParamInfo<unsigned>& info) {
                             return "s" + std::to_string(info.param);
                         });

TEST(PoptrieBatch, EmptyAndTinyInputs)
{
    // reader: single-threaded test, no updater exists.
    const psync::EbrReadSection section;
    const auto rib = load(corner_case_table());
    const Poptrie4 pt{rib};
    std::vector<std::uint32_t> keys{0x0A200501u};
    std::vector<rib::NextHop> out(1, 0xFFFF);
    pt.lookup_batch<true>(keys.data(), out.data(), 0);  // no-op
    EXPECT_EQ(out[0], 0xFFFF);
    pt.lookup_batch<true>(keys.data(), out.data(), 1);  // pure tail path
    EXPECT_EQ(out[0], pt.lookup(Ipv4Addr{keys[0]}));
}

TEST(PoptrieBatch, BasicModeAgrees)
{
    // reader: single-threaded test, no updater exists.
    const psync::EbrReadSection section;
    const auto rib = load(corner_case_table());
    poptrie::Config cfg;
    cfg.leaf_compression = false;
    cfg.route_aggregation = false;
    const Poptrie4 pt{rib, cfg};
    workload::Xorshift128 rng(7);
    std::vector<std::uint32_t> keys(4'099);
    for (auto& k : keys) k = rng.next();
    std::vector<rib::NextHop> out(keys.size());
    pt.lookup_batch<false>(keys.data(), out.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(out[i], pt.lookup_raw<false>(keys[i]));
}
