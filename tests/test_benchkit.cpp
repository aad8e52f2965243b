// Tests for the measurement kit: statistics, CLI parsing, formatting, and
// the runner loops' bookkeeping.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "benchkit/cli.hpp"
#include "benchkit/cycles.hpp"
#include "benchkit/json.hpp"
#include "benchkit/provenance.hpp"
#include "benchkit/runner.hpp"
#include "benchkit/stats.hpp"
#include "benchkit/table_printer.hpp"

using namespace benchkit;
using K = Flag::Kind;

TEST(Stats, MeanStd)
{
    const auto r = mean_std({2, 4, 4, 4, 5, 5, 7, 9});
    EXPECT_DOUBLE_EQ(r.mean, 5.0);
    EXPECT_NEAR(r.std, 2.138, 0.001);  // sample std (n-1)
    EXPECT_EQ(mean_std({}).mean, 0.0);
    EXPECT_EQ(mean_std({3.5}).std, 0.0);
}

TEST(Stats, MedianOddEvenAndDegenerate)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.5}), 7.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, MadIsRobustToOutliers)
{
    // median 3, |dev| = [2, 1, 0, 1, 2] -> MAD 1.
    EXPECT_DOUBLE_EQ(mad({1, 2, 3, 4, 5}), 1.0);
    // One preempted trial must not inflate the dispersion benchctl's noise
    // bands consume — that is the whole point of MAD over stddev.
    EXPECT_DOUBLE_EQ(mad({10, 10, 10, 10, 1000}), 0.0);
    EXPECT_DOUBLE_EQ(mad({}), 0.0);
    EXPECT_DOUBLE_EQ(mad({42.0}), 0.0);
}

TEST(Stats, Percentiles)
{
    std::vector<std::uint64_t> s;
    for (std::uint64_t i = 1; i <= 100; ++i) s.push_back(i);
    const Percentiles p(std::move(s));
    EXPECT_NEAR(p.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(p.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(p.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(p.percentile(95), 95.05, 0.001);
    EXPECT_NEAR(p.mean(), 50.5, 1e-9);
}

TEST(Stats, CdfAt)
{
    const Percentiles p({10, 20, 30, 40});
    const auto cdf = p.cdf_at({5, 10, 25, 40, 100});
    EXPECT_DOUBLE_EQ(cdf[0], 0.0);
    EXPECT_DOUBLE_EQ(cdf[1], 0.25);
    EXPECT_DOUBLE_EQ(cdf[2], 0.5);
    EXPECT_DOUBLE_EQ(cdf[3], 1.0);
    EXPECT_DOUBLE_EQ(cdf[4], 1.0);
}

TEST(Stats, Candle)
{
    std::vector<std::uint64_t> s;
    for (std::uint64_t i = 0; i < 1000; ++i) s.push_back(i);
    const auto c = candle(std::move(s));
    EXPECT_LT(c.p5, c.p25);
    EXPECT_LT(c.p25, c.p50);
    EXPECT_LT(c.p50, c.p75);
    EXPECT_LT(c.p75, c.p95);
    EXPECT_EQ(c.n, 1000u);
}

TEST(Cli, FlagsAndValues)
{
    const char* argv[] = {"bench", "--full", "--lookups=1024", "--name=foo", "--ratio=0.5"};
    const Args args(5, const_cast<char**>(argv), {{"name", K::kText}, {"ratio", K::kDouble}});
    EXPECT_TRUE(args.has("full"));
    EXPECT_FALSE(args.has("quick"));
    EXPECT_EQ(args.get_u64("lookups", 0), 1024u);
    EXPECT_EQ(args.get_u64("missing", 7), 7u);
    EXPECT_EQ(args.get("name", ""), "foo");
    EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 0.5);
    EXPECT_EQ(args.lookups(100, 200), 1024u);  // explicit override wins
    EXPECT_EQ(args.trials(), 10u);             // --full default
}

TEST(Cli, QuickDefaults)
{
    const char* argv[] = {"bench"};
    const Args args(1, const_cast<char**>(argv));
    EXPECT_EQ(args.lookups(100, 200), 100u);
    EXPECT_EQ(args.trials(), 3u);
    EXPECT_EQ(args.seed(42), 42u);
}

TEST(Cli, SpaceSeparatedValuesNormalize)
{
    // lpmd and the e2e tests pass "--name value"; the constructor joins the
    // pair into "--name=value". A following "--flag" is never consumed.
    const char* argv[] = {"lpmd", "--engine", "poptrie", "--workers", "4", "--check",
                          "--rate-mpps", "2.5"};
    const Args args(8, const_cast<char**>(argv),
                    {{"engine", K::kText},
                     {"workers", K::kU64},
                     {"check", K::kSwitch},
                     {"rate-mpps", K::kDouble}});
    EXPECT_EQ(args.get("engine", ""), "poptrie");
    EXPECT_EQ(args.get_u64("workers", 0), 4u);
    EXPECT_TRUE(args.has("check"));
    EXPECT_DOUBLE_EQ(args.get_double("rate-mpps", 0), 2.5);
}

TEST(Json, EscapingAndDump)
{
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");

    JsonRecords rec;
    EXPECT_EQ(rec.dump(), "[]");
    rec.begin_record();
    rec.field("name", std::string_view{"pop\"trie"});
    rec.field("mlps", 12.3456, 2);
    rec.field("count", std::uint64_t{42});
    rec.field("ok", true);
    rec.begin_record();
    rec.field("ok", false);
    EXPECT_EQ(rec.record_count(), 2u);
    EXPECT_EQ(rec.dump(),
              "[{\"name\":\"pop\\\"trie\",\"mlps\":12.35,\"count\":42,\"ok\":true},"
              "{\"ok\":false}]");
}

TEST(Json, WriteFileRoundTripsDump)
{
    JsonRecords rec;
    rec.begin_record();
    rec.field("k", std::uint64_t{1});
    const std::string path = ::testing::TempDir() + "benchkit_write_file.json";
    ASSERT_TRUE(rec.write_file(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    const auto n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf, n), rec.dump() + "\n");
    EXPECT_FALSE(rec.write_file("/nonexistent-dir/x.json"));
}

TEST(Json, ProvenanceStampsEveryField)
{
    // Every benchmark emission carries git_sha/build_type/native so a run
    // file is attributable to an exact build (benchctl depends on this).
    const auto p = provenance();
    EXPECT_FALSE(p.git_sha.empty());
    EXPECT_FALSE(p.build_type.empty());
    JsonRecords rec;
    rec.begin_record();
    rec.field("k", std::uint64_t{1});
    stamp_provenance(rec);
    const auto out = rec.dump();
    EXPECT_NE(out.find("\"git_sha\":\""), std::string::npos);
    EXPECT_NE(out.find("\"build_type\":\""), std::string::npos);
    EXPECT_NE(out.find("\"native\":"), std::string::npos);
    // Memory-layout environment: page size and THP mode are always stamped;
    // arena_backing appears once a tool notes what its FIB actually got.
    EXPECT_NE(out.find("\"page_size_bytes\":"), std::string::npos);
    EXPECT_NE(out.find("\"thp\":\""), std::string::npos);
    EXPECT_EQ(out.find("\"arena_backing\":"), std::string::npos);

    benchkit::note_arena_backing("thp-advised");
    JsonRecords rec2;
    rec2.begin_record();
    stamp_provenance(rec2);
    EXPECT_NE(rec2.dump().find("\"arena_backing\":\"thp-advised\""), std::string::npos);
    benchkit::note_arena_backing("");  // leave no residue for other tests
}

TEST(Cli, PrefixNamesDoNotCollide)
{
    const char* argv[] = {"bench", "--lookups-extra=5"};
    const Args args(2, const_cast<char**>(argv), {{"lookups-extra", K::kU64}});
    EXPECT_EQ(args.get_u64("lookups", 7), 7u);  // "--lookups-extra" != "--lookups"
}

TEST(Cli, StandardFlagsNeedNoDeclaration)
{
    const char* argv[] = {"bench",   "--quick",  "--full",          "--lookups=8", "--trials",
                          "2",       "--seed=9", "--json-out=x.json", "--help"};
    const Args args(9, const_cast<char**>(argv));
    EXPECT_EQ(args.lookups(1, 2), 8u);
    EXPECT_EQ(args.trials(), 2u);
    EXPECT_EQ(args.seed(), 9u);
    EXPECT_EQ(args.json_out(), "x.json");
}

namespace {

/// Parses `argv` against lpmd-like declarations, as a death test's child.
void parse(std::vector<const char*> argv)
{
    const Args args(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
                    {{"routes", K::kU64},
                     {"duration", K::kDouble},
                     {"file", K::kText},
                     {"check", K::kSwitch}});
    std::exit(0);
}

}  // namespace

// A flag the binary does not read, or a value its flag cannot take, ends
// the binary with exit code 2 and names the flag, before it measures
// anything: a misspelt flag must not silently measure the defaults.
TEST(CliDeathTest, UnknownFlagExitsNamingIt)
{
    EXPECT_EXIT(parse({"lpmd", "--routes=2000", "--duration=0.2", "--duraton=9"}),
                ::testing::ExitedWithCode(2), "lpmd: unknown flag --duraton");
    EXPECT_EXIT(parse({"/usr/bin/lpmd", "--idle-us", "25"}), ::testing::ExitedWithCode(2),
                "^lpmd: unknown flag --idle-us");
    EXPECT_EXIT(parse({"lpmd", "stray"}), ::testing::ExitedWithCode(2),
                "unexpected argument 'stray'");
    EXPECT_EXIT(parse({"lpmd", "--routes=2000", "--duration", "0.2", "--check"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, BadValueExitsNamingTheFlag)
{
    EXPECT_EXIT(parse({"lpmd", "--routes=2k"}), ::testing::ExitedWithCode(2),
                "lpmd: bad value for --routes: '2k'");
    EXPECT_EXIT(parse({"lpmd", "--routes", "-5"}), ::testing::ExitedWithCode(2),
                "bad value for --routes: ''");
    EXPECT_EXIT(parse({"lpmd", "--duration=fast"}), ::testing::ExitedWithCode(2),
                "bad value for --duration: 'fast'");
    EXPECT_EXIT(parse({"lpmd", "--check=yes"}), ::testing::ExitedWithCode(2),
                "bad value for --check: 'yes'");
    EXPECT_EXIT(parse({"lpmd", "--file"}), ::testing::ExitedWithCode(2),
                "bad value for --file: ''");
    EXPECT_EXIT(parse({"lpmd", "--seed=x"}), ::testing::ExitedWithCode(2),
                "bad value for --seed: 'x'");
}

TEST(Printer, Formatting)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt_mean_std(240.5151, 5.468), "240.52 (5.47)");
    EXPECT_EQ(fmt_mib(2u * 1024 * 1024), "2.00");
    EXPECT_EQ(fmt_count(531489), "531,489");
    EXPECT_EQ(fmt_count(7), "7");
    EXPECT_EQ(fmt_count(1000), "1,000");
}

TEST(Runner, ChecksumAndDeterminism)
{
    // A fake lookup whose result is a function of the address: repeated runs
    // with the same seed must produce identical checksums.
    const auto lookup = [](std::uint32_t a) { return static_cast<std::uint16_t>(a >> 16); };
    const auto r1 = measure_random(lookup, 10'000, 2, 9);
    const auto r2 = measure_random(lookup, 10'000, 2, 9);
    EXPECT_EQ(r1.checksum, r2.checksum);
    EXPECT_GT(r1.mlps_mean, 0.0);
}

TEST(Runner, RepeatedIssuesEachAddressSixteenTimes)
{
    std::uint32_t distinct = 0;
    std::uint32_t last = 0;
    std::uint32_t run = 0;
    bool ok = true;
    const auto lookup = [&](std::uint32_t a) {
        if (a != last || run == 0) {
            if (run != 0 && run != kRepeatFactor) ok = false;
            last = a;
            run = 0;
            ++distinct;
        }
        ++run;
        return std::uint16_t{1};
    };
    (void)measure_repeated(lookup, 1'600, 1, 3);
    EXPECT_TRUE(ok);
    EXPECT_EQ(distinct, 100u);
}

TEST(Runner, TraceReplaysExactly)
{
    const std::vector<std::uint32_t> trace{1, 2, 3, 2, 1};
    std::uint64_t sum = 0;
    const auto r = measure_trace(
        [&](std::uint32_t a) {
            sum += a;
            return static_cast<std::uint16_t>(a);
        },
        trace, 2);
    EXPECT_EQ(sum, 18u);  // 9 per trial x 2 trials
    EXPECT_EQ(r.checksum, 18u);
}

// The multithreaded measurement loop moved to dataplane/worker_pool.hpp;
// its test lives in test_dataplane.cpp.

TEST(Stats, ReservoirKeepsEverythingBelowCapacity)
{
    Reservoir r(8);
    for (std::uint64_t i = 0; i < 8; ++i) r.add(i * 10);
    EXPECT_EQ(r.samples().size(), 8u);
    EXPECT_EQ(r.observed(), 8u);
    // Below capacity the reservoir is the stream, in order.
    for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(r.samples()[i], i * 10);
}

TEST(Stats, ReservoirBoundsMemoryAndIsDeterministic)
{
    Reservoir a(64, 99);
    Reservoir b(64, 99);
    for (std::uint64_t i = 0; i < 100'000; ++i) {
        a.add(i);
        b.add(i);
    }
    EXPECT_EQ(a.samples().size(), 64u);
    EXPECT_EQ(a.observed(), 100'000u);
    EXPECT_EQ(a.samples(), b.samples());  // same seed, same stream → identical
    // A uniform sample of 0..99999 should not be confined to either end.
    const auto p = latency_percentiles(a);
    EXPECT_GT(p.p50, 10'000.0);
    EXPECT_LT(p.p50, 90'000.0);
}

TEST(Stats, ReservoirMergePreservesObservedCount)
{
    Reservoir a(32, 1);
    Reservoir b(32, 2);
    for (std::uint64_t i = 0; i < 1'000; ++i) a.add(i);
    for (std::uint64_t i = 0; i < 500; ++i) b.add(i + 1'000'000);
    Reservoir merged(32, 3);
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.samples().size(), 32u);
    EXPECT_EQ(merged.observed(), 1'500u);
}

TEST(Stats, LatencyPercentilesMatchPercentileHelper)
{
    std::vector<std::uint64_t> s;
    for (std::uint64_t i = 1; i <= 1000; ++i) s.push_back(i);
    const auto lp = latency_percentiles(s);
    const Percentiles p(std::move(s));
    EXPECT_DOUBLE_EQ(lp.p50, p.percentile(50));
    EXPECT_DOUBLE_EQ(lp.p99, p.percentile(99));
    EXPECT_DOUBLE_EQ(lp.p999, p.percentile(99.9));
    EXPECT_EQ(lp.n, 1000u);
    EXPECT_EQ(latency_percentiles(std::vector<std::uint64_t>{}).n, 0u);
}

TEST(Stats, MlpsFormatting)
{
    EXPECT_EQ(fmt_mlps(412.3651), "412.37 Mlps");
    EXPECT_EQ(fmt_mlps(0.5, 1), "0.5 Mlps");
    EXPECT_DOUBLE_EQ(to_mlps(2'000'000, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(to_mlps(100, 0.0), 0.0);  // guard, not a division crash
}

TEST(Cycles, CalibrationIsSane)
{
    const auto overhead = calibrate_tsc_overhead();
    EXPECT_GT(overhead, 0u);
    EXPECT_LT(overhead, 10'000u);
    const double hz = tsc_hz();
    EXPECT_GT(hz, 1e8);   // > 100 MHz
    EXPECT_LT(hz, 1e11);  // < 100 GHz
}
