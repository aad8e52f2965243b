// Parameterized cross-validation of Poptrie lookups against the radix RIB
// over generated full-size-ish tables: every combination of direct-pointing
// width, leaf compression and route aggregation must resolve identically.
#include <gtest/gtest.h>

#include <tuple>

#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "workload/datasets.hpp"
#include "workload/tablegen.hpp"

using namespace testhelpers;
using poptrie::Config;
using poptrie::Poptrie4;

namespace {

struct Case {
    unsigned direct_bits;
    bool leaf_compression;
    bool route_aggregation;
};

std::string case_name(const testing::TestParamInfo<Case>& info)
{
    return "s" + std::to_string(info.param.direct_bits) +
           (info.param.leaf_compression ? "_leafvec" : "_basic") +
           (info.param.route_aggregation ? "_agg" : "_raw");
}

class PoptrieLookup : public testing::TestWithParam<Case> {
protected:
    static void SetUpTestSuite()
    {
        workload::TableGenConfig cfg;
        cfg.seed = 1234;
        cfg.target_routes = 60'000;
        cfg.next_hops = 64;
        cfg.igp_routes = 3'000;
        routes_ = new rib::RouteList<Ipv4Addr>(workload::generate_table(cfg));
        rib_ = new rib::RadixTrie<Ipv4Addr>(load(*routes_));
    }
    static void TearDownTestSuite()
    {
        delete routes_;
        delete rib_;
        routes_ = nullptr;
        rib_ = nullptr;
    }
    static rib::RouteList<Ipv4Addr>* routes_;
    static rib::RadixTrie<Ipv4Addr>* rib_;
};

rib::RouteList<Ipv4Addr>* PoptrieLookup::routes_ = nullptr;
rib::RadixTrie<Ipv4Addr>* PoptrieLookup::rib_ = nullptr;

TEST_P(PoptrieLookup, MatchesRadixAtBoundariesAndRandom)
{
    const auto [s, lc, agg] = std::tuple{GetParam().direct_bits, GetParam().leaf_compression,
                                         GetParam().route_aggregation};
    // Both leaf layouts: the default dictionary codes and 16-bit runs.
    for (const bool dict : {true, false}) {
        Config cfg;
        cfg.direct_bits = s;
        cfg.leaf_compression = lc;
        cfg.route_aggregation = agg;
        cfg.leaf_dict = dict;
        const Poptrie4 pt{*rib_, cfg};
        EXPECT_EQ(boundary_and_random_mismatches(
                      *rib_, *routes_, [&](Ipv4Addr a) { return pt.lookup(a); }, 500'000),
                  0u)
            << "leaf_dict=" << dict;
    }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PoptrieLookup,
                         testing::Values(Case{0, true, true}, Case{0, true, false},
                                         Case{0, false, true}, Case{0, false, false},
                                         Case{12, true, true}, Case{12, false, false},
                                         Case{16, true, true}, Case{16, true, false},
                                         Case{16, false, true}, Case{16, false, false},
                                         Case{18, true, true}, Case{18, true, false},
                                         Case{18, false, true}, Case{18, false, false},
                                         Case{20, true, true}, Case{22, true, true}),
                         case_name);

// Scaled-down instances of every Table 1 dataset family, validated against
// the radix oracle with the default (Poptrie18) configuration.
class DatasetFamilies : public testing::TestWithParam<int> {};

TEST_P(DatasetFamilies, DefaultConfigMatchesRadix)
{
    auto spec = workload::all_ipv4_specs()[static_cast<std::size_t>(GetParam())];
    spec.config.target_routes /= 10;  // scaled for test runtime
    spec.config.igp_routes /= 10;
    const auto routes = workload::make_table(spec);
    const auto rib = load(routes);
    const Poptrie4 pt{rib};
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return pt.lookup(a); }, 200'000),
              0u)
        << spec.name;
}

INSTANTIATE_TEST_SUITE_P(TableOne, DatasetFamilies,
                         testing::Values(0, 1, 2, 3, 10, 14, 25, 33),
                         [](const testing::TestParamInfo<int>& info) {
                             auto name = workload::all_ipv4_specs()
                                             [static_cast<std::size_t>(info.param)]
                                                 .name;
                             for (auto& c : name)
                                 if (c == '-') c = '_';
                             return name;
                         });

// The three lookup entry points (config-dispatched, pinned template, soft
// popcount) agree on every table.
TEST(PoptrieLookupVariants, EntryPointsAgree)
{
    const auto routes = corner_case_table();
    const auto rib = load(routes);
    Config cfg;
    cfg.direct_bits = 18;
    const Poptrie4 pt{rib, cfg};
    workload::Xorshift128 rng(31);
    for (int i = 0; i < 200'000; ++i) {
        const std::uint32_t a = rng.next();
        const auto want = pt.lookup(Ipv4Addr{a});
        ASSERT_EQ((pt.lookup_raw<true, false>(a)), want);
        ASSERT_EQ((pt.lookup_raw<true, true>(a)), want);
    }
}

}  // namespace
