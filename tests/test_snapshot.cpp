// Tests for the snapshot subsystem (src/snapshot, DESIGN.md §11): versioned
// on-disk FIB images. The core property is round-trip lookup equivalence —
// build → (churn) → compact → save → load must resolve every probe exactly
// like the live trie and the RIB oracle, for both address families and for
// both load placements (mmap and copy-in). The rejection tests prove the
// loader refuses every corruption class: flipped payload bits, short reads,
// bad magic, wrong format version, and a family mismatch.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "alloc/arena.hpp"
#include "benchkit/provenance.hpp"
#include "helpers.hpp"
#include "poptrie/poptrie.hpp"
#include "snapshot/snapshot.hpp"
#include "sync/annotations.hpp"
#include "workload/tablegen.hpp"
#include "workload/updatefeed.hpp"

using namespace testhelpers;
using netbase::Ipv6Addr;
using poptrie::Config;
using poptrie::Poptrie4;
using poptrie::Poptrie6;
using snapshot::ImageError;
using snapshot::ImageIoError;
using snapshot::LoadOptions;
using snapshot::SnapshotFib4;
using snapshot::SnapshotFib6;

namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

/// Save-and-reload through a real file, the way lpmd does it.
SnapshotFib4 round_trip(const Poptrie4& pt, const std::string& name,
                        const LoadOptions& opt = {})
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    const auto path = temp_path(name);
    snapshot::save(pt, path);
    return SnapshotFib4::load_file(path, opt);
}

}  // namespace

TEST(Snapshot, RoundTripCornerTableAllConfigs)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    for (const unsigned db : {0u, 12u, 18u}) {
        auto rib = load(corner_case_table());
        Config cfg;
        cfg.direct_bits = db;
        Poptrie4 pt{rib, cfg};
        pt.compact();
        const auto img = snapshot::serialize(pt);
        const auto fib = SnapshotFib4::load_buffer(img.data(), img.size());
        EXPECT_EQ(fib.node_count(), pt.stats().node_high_water);
        EXPECT_EQ(boundary_and_random_mismatches(
                      rib, corner_case_table(),
                      [&](Ipv4Addr a) { return fib.lookup(a); }, 50'000, db + 1),
                  0u)
            << "direct_bits=" << db;
        EXPECT_TRUE(snapshot::verify_image(fib).ok())
            << snapshot::verify_image(fib).summary();
    }
}

TEST(Snapshot, RoundTripGeneratedTableAfterChurnAndCompact)
{
    workload::TableGenConfig gen;
    gen.seed = 11;
    gen.target_routes = 30'000;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);
    Poptrie4 pt{rib, Config{}};

    workload::UpdateFeedConfig ucfg;
    ucfg.seed = 12;
    ucfg.updates = 3'000;
    for (const auto& ev : workload::make_update_feed(routes, ucfg))
        pt.apply(rib, ev.prefix, ev.next_hop);
    pt.drain();

    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    pt.compact();
    const auto fib = round_trip(pt, "snap_churned.img");
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return fib.lookup(a); }, 100'000),
              0u);
    EXPECT_TRUE(snapshot::verify_image(fib).ok());
}

TEST(Snapshot, RoundTripWithoutCompaction)
{
    // An uncompacted FIB serializes its full touched extent (free-pool holes
    // included); the image must still resolve identically.
    workload::TableGenConfig gen;
    gen.seed = 21;
    gen.target_routes = 10'000;
    const auto routes = workload::generate_table(gen);
    auto rib = load(routes);
    Poptrie4 pt{rib, Config{}};
    workload::UpdateFeedConfig ucfg;
    ucfg.seed = 22;
    ucfg.updates = 1'000;
    for (const auto& ev : workload::make_update_feed(routes, ucfg))
        pt.apply(rib, ev.prefix, ev.next_hop);
    pt.drain();

    const auto fib = round_trip(pt, "snap_uncompacted.img");
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return fib.lookup(a); }, 50'000),
              0u);
}

TEST(Snapshot, BatchLookupMatchesScalar)
{
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto fib = round_trip(pt, "snap_batch.img");
    workload::Xorshift128 rng(33);
    std::vector<std::uint32_t> keys(4096);
    for (auto& k : keys) k = rng.next();
    std::vector<rib::NextHop> out(keys.size());
    fib.lookup_batch(keys.data(), out.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(out[i], fib.lookup(Ipv4Addr{keys[i]})) << i;
}

TEST(Snapshot, RoundTripIPv6)
{
    workload::TableGen6Config gen;
    gen.seed = 41;
    gen.target_routes = 10'000;
    const auto routes = workload::generate_table6(gen);
    rib::RadixTrie<Ipv6Addr> rib;
    rib.insert_all(routes);
    Poptrie6 pt{rib, Config{}};
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    pt.compact();
    const auto path = temp_path("snap_v6.img");
    snapshot::save(pt, path);
    const auto fib = SnapshotFib6::load_file(path);

    for (const auto& r : routes) {
        for (const auto v :
             {r.prefix.first_address().value(), r.prefix.last_address().value(),
              r.prefix.first_address().value() - 1, r.prefix.last_address().value() + 1}) {
            const Ipv6Addr a{v};
            ASSERT_EQ(fib.lookup(a), rib.lookup(a)) << netbase::to_string(a);
        }
    }
    workload::Xorshift128 rng(42);
    for (int i = 0; i < 100'000; ++i) {
        using u128 = Ipv6Addr::value_type;
        const Ipv6Addr a{(u128{rng.next()} << 96) | (u128{rng.next()} << 64) |
                         (u128{rng.next()} << 32) | rng.next()};
        ASSERT_EQ(fib.lookup(a), rib.lookup(a)) << netbase::to_string(a);
    }
    EXPECT_TRUE(snapshot::verify_image(fib).ok());
}

TEST(Snapshot, ConfigEchoPreserved)
{
    auto rib = load(corner_case_table());
    Config cfg;
    cfg.direct_bits = 0;
    cfg.leaf_compression = false;
    cfg.route_aggregation = false;
    Poptrie4 pt{rib, cfg};
    const auto fib = round_trip(pt, "snap_basic.img");
    EXPECT_EQ(fib.config().direct_bits, 0u);
    EXPECT_FALSE(fib.config().leaf_compression);
    EXPECT_FALSE(fib.config().route_aggregation);
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, corner_case_table(),
                  [&](Ipv4Addr a) { return fib.lookup(a); }, 50'000),
              0u);
}

TEST(Snapshot, ProvenanceStampSurvives)
{
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto fib = round_trip(pt, "snap_prov.img");
    // The writer's build fingerprint rides in the header (NUL-padded).
    const auto prov = benchkit::provenance();
    EXPECT_EQ(std::string(fib.header().git_sha),
              std::string(prov.git_sha.substr(0, sizeof(fib.header().git_sha) - 1)));
}

TEST(Snapshot, ChecksumFlipRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    auto img = snapshot::serialize(pt);
    img[(sizeof(snapshot::ImageHeader) + img.size()) / 2] ^= 0x01;
    EXPECT_THROW(SnapshotFib4::load_buffer(img.data(), img.size()), ImageError);
}

TEST(Snapshot, ShortReadRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto img = snapshot::serialize(pt);
    EXPECT_THROW(SnapshotFib4::load_buffer(img.data(), img.size() / 2), ImageError);
    EXPECT_THROW(SnapshotFib4::load_buffer(img.data(), sizeof(snapshot::ImageHeader) / 2),
                 ImageError);
}

TEST(Snapshot, BadMagicAndWrongVersionRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto img = snapshot::serialize(pt);

    auto bad_magic = img;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(SnapshotFib4::load_buffer(bad_magic.data(), bad_magic.size()), ImageError);

    // Re-seal the header checksum so the version check itself, not the
    // checksum side effect, does the rejecting.
    auto bad_version = img;
    snapshot::ImageHeader hdr;
    std::memcpy(&hdr, bad_version.data(), sizeof(hdr));
    hdr.format_version = snapshot::kFormatVersion + 7;
    hdr.header_checksum = 0;
    hdr.header_checksum = snapshot::fnv1a64(&hdr, sizeof(hdr));
    std::memcpy(bad_version.data(), &hdr, sizeof(hdr));
    try {
        static_cast<void>(SnapshotFib4::load_buffer(bad_version.data(), bad_version.size()));
        FAIL() << "wrong-version image was accepted";
    } catch (const ImageError& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    }
}

TEST(Snapshot, FamilyMismatchRejected)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto path = temp_path("snap_family.img");
    snapshot::save(pt, path);
    EXPECT_THROW(SnapshotFib6::load_file(path), ImageError);
    EXPECT_NO_THROW(SnapshotFib4::load_file(path));
}

TEST(Snapshot, MissingFileIsIoError)
{
    EXPECT_THROW(SnapshotFib4::load_file(temp_path("snap_never_written.img")),
                 ImageIoError);
}

TEST(Snapshot, PlacementControlsBacking)
{
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};

    const auto mapped = round_trip(pt, "snap_backing.img");
#if defined(__linux__)
    EXPECT_EQ(mapped.memory_report().backing, alloc::Backing::kFileMapped);
#endif

    LoadOptions copy_opt;
    copy_opt.placement = LoadOptions::Placement::kCopy;
    const auto copied = round_trip(pt, "snap_backing.img", copy_opt);
    EXPECT_NE(copied.memory_report().backing, alloc::Backing::kFileMapped);

    // Both placements must of course resolve identically.
    workload::Xorshift128 rng(55);
    for (int i = 0; i < 50'000; ++i) {
        const Ipv4Addr a{rng.next()};
        ASSERT_EQ(mapped.lookup(a), copied.lookup(a)) << netbase::to_string(a);
    }
}

TEST(Snapshot, ImageIsByteStableForSameFib)
{
    // Two serializations of the same compacted trie are byte-identical:
    // compact() produces the canonical DFS layout and the header carries no
    // wall-clock state, so images are reproducible (and diffable) artifacts.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    pt.compact();
    EXPECT_EQ(snapshot::serialize(pt), snapshot::serialize(pt));
}

namespace {

std::vector<char> file_bytes(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(Snapshot, FailedSaveLeavesPreviousImageIntact)
{
    // A save that cannot complete must throw ImageIoError, leave no temp file
    // behind, and leave the previous image under the target name untouched.
    // The write fails for real: RLIMIT_FSIZE below the image size makes
    // write() return EFBIG (with SIGXFSZ ignored, instead of killing us).
    // writer: single-threaded test — this thread is the only writer.
    const psync::EbrWriterSection writer;
    auto small_rib = load(corner_case_table());
    Config small_cfg;
    small_cfg.direct_bits = 0;
    const Poptrie4 small{small_rib, small_cfg};
    const auto path = temp_path("snap_failed_save.img");
    snapshot::save(small, path);
    const auto before = file_bytes(path);
    ASSERT_FALSE(before.empty());

    workload::TableGenConfig gen;
    gen.seed = 61;
    gen.target_routes = 5'000;
    auto big_rib = load(workload::generate_table(gen));
    const Poptrie4 big{big_rib, Config{}};
    ASSERT_GT(snapshot::serialize(big).size(), before.size());

    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(before.size());
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &lowered), 0);
    bool threw = false;
    try {
        snapshot::save(big, path);
    } catch (const ImageIoError&) {
        threw = true;
    }
    EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_TRUE(threw) << "a save past RLIMIT_FSIZE did not report ImageIoError";
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_EQ(file_bytes(path), before);
    const auto fib = SnapshotFib4::load_file(path);
    EXPECT_EQ(boundary_and_random_mismatches(
                  small_rib, corner_case_table(),
                  [&](Ipv4Addr a) { return fib.lookup(a); }, 10'000),
              0u);
}
