// Tests for the snapshot subsystem (src/snapshot, DESIGN.md §11): versioned
// on-disk FIB images. The core property is round-trip lookup equivalence —
// build → (churn) → compact → save → load must resolve every probe exactly
// like the live trie and the RIB oracle, for both address families and for
// both load placements (mmap and copy-in). The rejection tests prove the
// loader refuses every corruption class: a flipped bit at any byte of the
// image, bit flips that a weak checksum step would let cancel, short reads,
// bad magic, wrong format version, and a family mismatch; and that each
// section checksum names its section.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
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
        EXPECT_EQ(fib.header().node_count, pt.stats().internal_nodes);
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
    // An uncompacted FIB's pools hold free blocks between its runs after
    // churn; the image packs only the reachable runs and must still resolve
    // identically.
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
    hdr.header_checksum = snapshot::image_checksum(&hdr, sizeof(hdr));
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
    // the image is a function of the trie and the header carries no
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

namespace {

/// A small image of each family whose sections can end inside a checksum
/// word: IPv4 dict-coded (Config::leaf_dict) without direct pointing — its
/// leaves are 1-byte codes and 2-byte dictionary entries — and IPv6 with
/// 2-byte leaves and a 64-slot direct array. Between them every section is
/// non-empty.
struct SmallImage {
    const char* name;
    bool v6;
    snapshot::Image bytes;
};

std::vector<SmallImage> small_images()
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    Config cfg;
    cfg.leaf_dict = true;
    cfg.direct_bits = 0;
    auto rib4 = load(corner_case_table());
    Poptrie4 pt4{rib4, cfg};
    pt4.compact();

    workload::TableGen6Config gen;
    gen.seed = 71;
    gen.target_routes = 300;
    rib::RadixTrie<Ipv6Addr> rib6;
    rib6.insert_all(workload::generate_table6(gen));
    cfg.leaf_dict = false;
    cfg.direct_bits = 6;
    Poptrie6 pt6{rib6, cfg};
    pt6.compact();
    return {{"ipv4", false, snapshot::serialize(pt4)},
            {"ipv6", true, snapshot::serialize(pt6)}};
}

void load_image(const SmallImage& img, const snapshot::Image& bytes)
{
    if (img.v6)
        static_cast<void>(SnapshotFib6::load_buffer(bytes.data(), bytes.size()));
    else
        static_cast<void>(SnapshotFib4::load_buffer(bytes.data(), bytes.size()));
}

snapshot::ImageHeader header_of(const snapshot::Image& bytes)
{
    snapshot::ImageHeader hdr;
    std::memcpy(&hdr, bytes.data(), sizeof(hdr));
    return hdr;
}

/// The five section descriptors, in file order, with the names the
/// loader's errors use.
std::vector<std::pair<snapshot::SectionDesc, std::string>> sections_of(
    const snapshot::ImageHeader& hdr)
{
    return {{hdr.nodes, "node"},
            {hdr.leaves, "leaf"},
            {hdr.direct, "direct"},
            {hdr.leaves8, "leaf8"},
            {hdr.leaf_dict, "leaf-dict"}};
}

}  // namespace

TEST(Snapshot, EveryByteFlipRejected)
{
    // One flipped bit anywhere — header, a section, the padding between
    // sections, the image's last partial word — must fail the load: the
    // header and payload checksums cover every byte between them.
    for (SmallImage& img : small_images()) {
        if (!img.v6) {
            // Keeps the sweep's partial-word paths under test.
            const auto sections = sections_of(header_of(img.bytes));
            EXPECT_TRUE(std::any_of(sections.begin(), sections.end(),
                                    [](const auto& s) { return s.first.bytes % 8 != 0; }))
                << "no section ends inside a word";
            EXPECT_NE(img.bytes.size() % 8, 0u) << "the image ends on a whole word";
        }
        ASSERT_NO_THROW(load_image(img, img.bytes)) << img.name;
        for (std::size_t off = 0; off < img.bytes.size(); ++off) {
            const auto bit = static_cast<std::uint8_t>(1u << (off % 8));
            img.bytes[off] ^= bit;
            EXPECT_THROW(load_image(img, img.bytes), ImageError)
                << img.name << ": bit " << off % 8 << " of byte " << off << " of "
                << img.bytes.size();
            img.bytes[off] ^= bit;
        }
    }
}

TEST(Snapshot, SectionChecksumsNameTheirSection)
{
    // A change inside a section — in its middle, and in its last byte,
    // which may sit in a partial word — with the payload and header
    // checksums re-sealed over it reaches the section's own checksum, which
    // names it.
    std::set<std::string> named;
    for (const SmallImage& img : small_images()) {
        const snapshot::ImageHeader hdr = header_of(img.bytes);
        for (const auto& [s, what] : sections_of(hdr)) {
            if (s.bytes == 0) continue;
            for (const std::uint64_t off : {s.offset + s.bytes / 2, s.offset + s.bytes - 1}) {
                auto bad = img.bytes;
                bad[off] ^= 0x01;
                snapshot::ImageHeader sealed = hdr;
                sealed.payload_checksum = snapshot::image_checksum(
                    bad.data() + sizeof(sealed), bad.size() - sizeof(sealed));
                sealed.header_checksum = 0;
                sealed.header_checksum = snapshot::image_checksum(&sealed, sizeof(sealed));
                std::memcpy(bad.data(), &sealed, sizeof(sealed));
                try {
                    load_image(img, bad);
                    ADD_FAILURE() << img.name << ": byte " << off << " of the " << what
                                  << " section changed and was accepted";
                } catch (const ImageError& e) {
                    EXPECT_EQ(std::string(e.what()), what + " section checksum mismatch")
                        << img.name << ", byte " << off;
                }
            }
            named.insert(what);
        }
    }
    EXPECT_EQ(named.size(), 5u) << "some section is empty in every image";
}

TEST(Snapshot, ForgedSectionLayoutRejected)
{
    // The sweep reads the image by the header's section layout, so a layout
    // that is out of bounds, overlaps the header or another section, or is
    // out of file order must be refused first. The header is re-sealed so
    // its checksum is not what refuses it.
    const snapshot::Image clean = small_images().front().bytes;
    const auto load_forged = [&](auto forge) {
        auto bad = clean;
        snapshot::ImageHeader hdr = header_of(bad);
        forge(hdr);
        hdr.header_checksum = 0;
        hdr.header_checksum = snapshot::image_checksum(&hdr, sizeof(hdr));
        std::memcpy(bad.data(), &hdr, sizeof(hdr));
        try {
            static_cast<void>(SnapshotFib4::load_buffer(bad.data(), bad.size()));
        } catch (const ImageError& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    using Hdr = snapshot::ImageHeader;
    EXPECT_EQ(load_forged([](Hdr& h) { h.leaves.offset = h.nodes.offset; }),
              "snapshot sections overlap");
    EXPECT_EQ(load_forged([](Hdr& h) { h.nodes.offset = 0; }), "snapshot sections overlap");
    EXPECT_EQ(load_forged([](Hdr& h) { h.leaf_dict.offset = h.total_bytes / 64 * 64 + 64; }),
              "leaf-dict section out of image bounds");
}

TEST(Snapshot, ImageChecksumCatchesEveryTwoAndThreeBitFlip)
{
    // Over three words, zero (like padding) and patterned. A step that let a
    // change pass unaltered would let later flips cancel it: a plain
    // multiply passes the top bit, so FNV-1a's word step misses two top-bit
    // flips, and rotating or xor-shifting after that multiply only moves the
    // cancelling flips into the next word.
    for (const std::uint64_t fill : {0ull, 0x0123456789ABCDEFull}) {
        std::uint64_t words[3];
        for (std::size_t i = 0; i < std::size(words); ++i) words[i] = fill * (i + 1);
        const std::uint64_t clean = snapshot::image_checksum(words, sizeof(words));
        const auto flip = [&](unsigned bit) {
            words[bit / 64] ^= std::uint64_t{1} << (bit % 64);
        };
        const auto missed = [&] {
            return snapshot::image_checksum(words, sizeof(words)) == clean;
        };
        constexpr unsigned kBits = 64 * std::size(words);
        unsigned misses = 0;
        for (unsigned a = 0; a < kBits; ++a) {
            flip(a);
            for (unsigned b = a + 1; b < kBits; ++b) {
                flip(b);
                if (missed() && misses++ == 0)
                    ADD_FAILURE() << "fill " << fill << ": bits " << a << ", " << b;
                for (unsigned c = b + 1; c < kBits; ++c) {
                    flip(c);
                    if (missed() && misses++ == 0)
                        ADD_FAILURE()
                            << "fill " << fill << ": bits " << a << ", " << b << ", " << c;
                    flip(c);
                }
                flip(b);
            }
            flip(a);
        }
        EXPECT_EQ(misses, 0u) << "fill " << fill;
    }
}

TEST(Snapshot, TopBitFlipPairsInASectionRejected)
{
    // Bit 63 of a section's first word flipped together with bit 63 of any
    // later word, or with any bit of the next word: each pair must fail the
    // load through both the section and the payload chain of the sweep.
    for (SmallImage& img : small_images()) {
        const snapshot::SectionDesc nodes = header_of(img.bytes).nodes;
        ASSERT_GE(nodes.bytes, 16u) << img.name;
        const auto flip = [&](std::uint64_t bit) {
            img.bytes[nodes.offset + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        };
        std::vector<std::uint64_t> partners;
        for (std::uint64_t w = 1; w < nodes.bytes / 8; ++w) partners.push_back(64 * w + 63);
        for (std::uint64_t bit = 64; bit < 128; ++bit) partners.push_back(bit);
        for (const std::uint64_t other : partners) {
            flip(63);
            flip(other);
            EXPECT_THROW(load_image(img, img.bytes), ImageError)
                << img.name << ": node section bits 63 and " << other;
            flip(63);
            flip(other);
        }
    }
}

namespace {

std::uint64_t align_section(std::uint64_t n)
{
    constexpr std::uint64_t kAlign = snapshot::kSectionAlign;
    return (n + kAlign - 1) / kAlign * kAlign;
}

/// Withdraws every fifth route and re-announces every seventh with another
/// hop, so the pools hold free blocks between their live runs.
template <class Addr>
void churn(poptrie::Poptrie<Addr>& pt, rib::RadixTrie<Addr>& rib,
           const rib::RouteList<Addr>& routes) POPTRIE_REQUIRES(psync::cap::ebr)
{
    for (std::size_t i = 0; i < routes.size(); i += 5)
        pt.apply(rib, routes[i].prefix, rib::kNoRoute);
    for (std::size_t i = 0; i < routes.size(); i += 7)
        pt.apply(rib, routes[i].prefix, static_cast<NextHop>(routes[i].next_hop % 50 + 1));
    pt.drain();
}

/// Serializes `pt` and requires the image to be exactly the header plus
/// aligned sections holding the live node, leaf, direct, leaf8 and
/// dictionary counts, to pass verify_image(), and to resolve random probes
/// like the live FIB.
template <class Addr>
snapshot::Image expect_dense_image(const poptrie::Poptrie<Addr>& pt,
                                             const std::string& what)
    POPTRIE_REQUIRES(psync::cap::ebr)
{
    using V = typename Addr::value_type;
    const poptrie::Stats st = pt.stats();
    auto img = snapshot::serialize(pt);
    const snapshot::ImageHeader hdr = header_of(img);
    EXPECT_EQ(hdr.node_count, st.internal_nodes) << what;
    EXPECT_EQ(hdr.leaf_count, st.leaves - st.leaf8_slots) << what;
    EXPECT_EQ(hdr.direct_count, st.direct_slots) << what;
    EXPECT_EQ(hdr.leaf8_count, st.leaf8_slots + st.folded_bytes) << what;
    EXPECT_EQ(hdr.leaf_dict_count, st.leaf_dict_entries) << what;
    std::uint64_t end = sizeof(snapshot::ImageHeader);
    std::uint64_t section_bytes = 0;
    for (const std::uint64_t bytes :
         {hdr.node_count * sizeof(typename poptrie::Poptrie<Addr>::Node),
          hdr.leaf_count * sizeof(NextHop), hdr.direct_count * sizeof(std::uint32_t),
          hdr.leaf8_count, hdr.leaf_dict_count * sizeof(NextHop)}) {
        end = align_section(end) + bytes;
        section_bytes += bytes;
    }
    EXPECT_EQ(img.size(), end) << what;
    EXPECT_EQ(hdr.total_bytes, end) << what;
    // Stats::memory_bytes is the image's section bytes, array by array (in
    // basic mode it counts the 16 bytes of a node that are used, the image
    // all 24).
    if (pt.config().leaf_compression) {
        EXPECT_EQ(st.memory_bytes, section_bytes) << what;
    }

    const auto fib = snapshot::SnapshotFib<Addr>::load_buffer(img.data(), img.size());
    const auto report = snapshot::verify_image(fib);
    EXPECT_TRUE(report.ok()) << what << "\n" << report.summary();
    workload::Xorshift128 rng(91);
    for (int i = 0; i < 20'000; ++i) {
        V key = rng.next();
        if constexpr (Addr::kWidth == 128)
            key = (key << 96) | (V{rng.next()} << 64) | (V{rng.next()} << 32) | rng.next();
        const Addr a{key};
        EXPECT_EQ(fib.lookup(a), pt.lookup(a)) << what << ": " << netbase::to_string(a);
        if (::testing::Test::HasFailure()) break;
    }
    return img;
}

/// The image payload checksums of `pt` before and after compact().
template <class Addr>
std::pair<std::uint64_t, std::uint64_t> payload_around_compaction(poptrie::Poptrie<Addr>& pt)
    POPTRIE_REQUIRES(psync::cap::ebr)
{
    const snapshot::ImageHeader before = header_of(snapshot::serialize(pt));
    pt.compact();
    const snapshot::ImageHeader after = header_of(snapshot::serialize(pt));
    EXPECT_EQ(before.total_bytes, after.total_bytes);
    return {before.payload_checksum, after.payload_checksum};
}

rib::RouteList<Ipv4Addr> table4(std::uint64_t seed)
{
    workload::TableGenConfig gen;
    gen.seed = seed;
    gen.target_routes = 20'000;
    return workload::generate_table(gen);
}

rib::RouteList<Ipv6Addr> table6(std::uint64_t seed)
{
    workload::TableGen6Config gen;
    gen.seed = seed;
    gen.target_routes = 3'000;
    return workload::generate_table6(gen);
}

}  // namespace

TEST(Snapshot, DenseImageHoldsExactlyTheLiveSlots)
{
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    const auto routes = table4(81);
    {
        Config cfg;
        cfg.leaf_dict = false;
        auto rib = load(routes);
        Poptrie4 pt{rib, cfg};
        expect_dense_image(pt, "fresh build");
        churn(pt, rib, routes);
        ASSERT_GT(pt.stats().leaf_high_water, pt.stats().leaves);
        expect_dense_image(pt, "churned");
        pt.compact();
        // compact() places runs in power-of-two buddy blocks, whose rounding
        // leaves slack inside the pools; the image carries none of it.
        ASSERT_GT(pt.stats().leaf_high_water, pt.stats().leaves);
        const auto img = expect_dense_image(pt, "compacted");
        EXPECT_GE(img.size(), pt.stats().memory_bytes + sizeof(snapshot::ImageHeader));
        EXPECT_LT(img.size(), pt.stats().memory_bytes + sizeof(snapshot::ImageHeader) +
                                  5 * snapshot::kSectionAlign);
    }
    {
        Config cfg;
        cfg.direct_bits = 0;
        cfg.leaf_compression = false;
        auto rib = load(routes);
        Poptrie4 pt{rib, cfg};
        churn(pt, rib, routes);
        expect_dense_image(pt, "basic, no direct pointing, churned");
    }
    {
        auto rib = load(routes);
        Poptrie4 pt{rib, Config{}};
        ASSERT_EQ(pt.stats().leaf8_slots, pt.stats().leaves);
        expect_dense_image(pt, "dict-compiled");
        churn(pt, rib, routes);
        ASSERT_GT(pt.stats().leaf8_slots, 0u);
        ASSERT_GT(pt.stats().leaves, pt.stats().leaf8_slots);
        expect_dense_image(pt, "dict-compiled, churned");
        pt.compact();
        expect_dense_image(pt, "dict-compacted");
    }
    {
        const auto routes6 = table6(82);
        rib::RadixTrie<Ipv6Addr> rib;
        rib.insert_all(routes6);
        Config cfg;
        cfg.direct_bits = 16;
        Poptrie6 pt{rib, cfg};
        churn(pt, rib, routes6);
        expect_dense_image(pt, "ipv6, churned");
        pt.compact();
        expect_dense_image(pt, "ipv6, compacted");
    }
}

TEST(Snapshot, CompactionLeavesTheDensePayloadUnchanged)
{
    // A dense image is a function of the reachable FIB alone: with 16-bit
    // leaves (a churned table's 16-bit runs would be coded again), compact()
    // changes where runs sit in the pools but not one byte of the image
    // payload.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    const auto routes4 = table4(83);
    const auto routes6 = table6(84);
    for (const unsigned s : {0u, 16u, 18u}) {
        for (const bool leafvec : {true, false}) {
            SCOPED_TRACE("s=" + std::to_string(s) + (leafvec ? " leafvec" : " basic"));
            Config cfg;
            cfg.direct_bits = s;
            cfg.leaf_compression = leafvec;
            cfg.leaf_dict = false;
            auto rib4 = load(routes4);
            Poptrie4 pt4{rib4, cfg};
            churn(pt4, rib4, routes4);
            const auto [before4, after4] = payload_around_compaction(pt4);
            EXPECT_EQ(before4, after4) << "ipv4";

            rib::RadixTrie<Ipv6Addr> rib6;
            rib6.insert_all(routes6);
            Poptrie6 pt6{rib6, cfg};
            churn(pt6, rib6, routes6);
            const auto [before6, after6] = payload_around_compaction(pt6);
            EXPECT_EQ(before6, after6) << "ipv6";
        }
    }
}

TEST(Snapshot, CompiledCodesSaveTheImageTheirCompactionSaves)
{
    // The compile codes its leaf runs with compact()'s coder, so a freshly
    // compiled dict-coded FIB and its compaction hold the same codes and the
    // same dictionary: the whole image is the same before and after.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    const auto rib4 = load(table4(88));
    rib::RadixTrie<Ipv6Addr> rib6;
    rib6.insert_all(table6(89));
    for (const unsigned s : {0u, 16u, 18u}) {
        for (const bool leafvec : {true, false}) {
            SCOPED_TRACE("s=" + std::to_string(s) + (leafvec ? " leafvec" : " basic"));
            Config cfg;
            cfg.direct_bits = s;
            cfg.leaf_compression = leafvec;
            Poptrie4 pt4{rib4, cfg};
            ASSERT_EQ(pt4.stats().leaf8_slots, pt4.stats().leaves);
            const auto before4 = snapshot::serialize(pt4);
            pt4.compact();
            EXPECT_TRUE(before4 == snapshot::serialize(pt4)) << "ipv4";
            EXPECT_GT(header_of(before4).leaf8_count, 0u);
            EXPECT_EQ(header_of(before4).leaf_count, 0u);

            Poptrie6 pt6{rib6, cfg};
            ASSERT_EQ(pt6.stats().leaf8_slots, pt6.stats().leaves);
            const auto before6 = snapshot::serialize(pt6);
            pt6.compact();
            EXPECT_TRUE(before6 == snapshot::serialize(pt6)) << "ipv6";
        }
    }
}

TEST(Snapshot, FormatV3ImageRefused)
{
    // v3 images were buddy-aligned copies of the pools' touched extent; a v4
    // loader refuses them by version before reading a section.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    auto img = snapshot::serialize(pt);
    snapshot::ImageHeader hdr = header_of(img);
    hdr.format_version = 3;
    hdr.header_checksum = 0;
    hdr.header_checksum = snapshot::image_checksum(&hdr, sizeof(hdr));
    std::memcpy(img.data(), &hdr, sizeof(hdr));
    try {
        static_cast<void>(SnapshotFib4::load_buffer(img.data(), img.size()));
        FAIL() << "a v3 image was accepted";
    } catch (const ImageError& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported snapshot format version 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, FormatV4ImageRefused)
{
    // A v4 reader would take a folded direct slot for a next hop; a v5
    // loader refuses v4 images by version before reading a section.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    ASSERT_GT(pt.stats().folded_roots, 0u);
    auto img = snapshot::serialize(pt);
    snapshot::ImageHeader hdr = header_of(img);
    hdr.format_version = 4;
    hdr.header_checksum = 0;
    hdr.header_checksum = snapshot::image_checksum(&hdr, sizeof(hdr));
    std::memcpy(img.data(), &hdr, sizeof(hdr));
    try {
        static_cast<void>(SnapshotFib4::load_buffer(img.data(), img.size()));
        FAIL() << "a v4 image was accepted";
    } catch (const ImageError& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported snapshot format version 4"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, FoldedRunsRoundTrip)
{
    // Format v5: folded runs travel in the leaf8 section, at their slot's
    // DFS position. Fresh, churned (some folded roots rebuilt as nodes) and
    // compacted FIBs, IPv4 and IPv6, round-trip and verify.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    const auto routes = table4(92);
    auto rib = load(routes);
    Poptrie4 pt{rib, Config{}};
    const std::size_t compiled = pt.stats().folded_roots;
    ASSERT_GT(compiled, 0u);
    expect_dense_image(pt, "fresh");
    churn(pt, rib, routes);
    ASSERT_LT(pt.stats().folded_roots, compiled);
    ASSERT_GT(pt.stats().folded_roots, 0u);
    expect_dense_image(pt, "churned");
    pt.compact();
    ASSERT_GT(pt.stats().folded_roots, 0u);
    const auto img = expect_dense_image(pt, "compacted");
    EXPECT_EQ(header_of(img).leaf8_count,
              pt.stats().leaf8_slots + 8 * pt.stats().folded_roots);

    auto routes6 = table6(93);
    // /20s in blocks of their own: childless roots at s = 18, which fold.
    for (unsigned i = 0; i < 64; ++i)
        routes6.push_back(
            {{Ipv6Addr{static_cast<Ipv6Addr::value_type>(0xA000u + 4 * i) << 112}, 20},
             static_cast<NextHop>(1 + i % 5)});
    rib::RadixTrie<Ipv6Addr> rib6;
    rib6.insert_all(routes6);
    Config cfg;
    cfg.direct_bits = 18;
    Poptrie6 pt6{rib6, cfg};
    ASSERT_GT(pt6.stats().folded_roots, 0u);
    expect_dense_image(pt6, "ipv6, fresh");
    churn(pt6, rib6, routes6);
    pt6.compact();
    expect_dense_image(pt6, "ipv6, compacted");
}

TEST(Snapshot, DictCompactedFibWithPlainRunsRoundTrips)
{
    // After a dict-coding compact(), updates add plain 16-bit runs beside
    // the 8-bit code runs; the image packs both kinds and keeps the
    // dictionary whole.
    const auto routes = table4(85);
    auto rib = load(routes);
    Poptrie4 pt{rib, Config{}};
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    pt.compact();
    workload::UpdateFeedConfig ucfg;
    ucfg.seed = 86;
    ucfg.updates = 2'000;
    for (const auto& ev : workload::make_update_feed(routes, ucfg))
        pt.apply(rib, ev.prefix, ev.next_hop);
    pt.drain();
    const poptrie::Stats st = pt.stats();
    ASSERT_GT(st.leaf8_slots, 0u);
    ASSERT_GT(st.leaves, st.leaf8_slots);

    const auto img = snapshot::serialize(pt);
    const auto fib = SnapshotFib4::load_buffer(img.data(), img.size());
    EXPECT_EQ(fib.header().leaf8_count, st.leaf8_slots + st.folded_bytes);
    EXPECT_EQ(fib.header().leaf_count, st.leaves - st.leaf8_slots);
    const auto report = snapshot::verify_image(fib);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(boundary_and_random_mismatches(
                  rib, routes, [&](Ipv4Addr a) { return fib.lookup(a); }, 100'000),
              0u);
    workload::Xorshift128 rng(87);
    std::vector<std::uint32_t> keys(8192);
    for (auto& k : keys) k = rng.next();
    std::vector<rib::NextHop> out(keys.size());
    fib.lookup_batch(keys.data(), out.data(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const Ipv4Addr a{keys[i]};
        ASSERT_EQ(out[i], pt.lookup(a)) << netbase::to_string(a);
    }
}

namespace {

/// `img` rebuilt with one zero element appended to its node or its leaf
/// section, the later sections moved along and every checksum re-sealed: an
/// image that loads, but whose section holds a slot that no run reaches.
snapshot::Image with_unreachable_slot(const snapshot::Image& img,
                                                bool in_node_section)
{
    snapshot::ImageHeader hdr = header_of(img);
    ++(in_node_section ? hdr.node_count : hdr.leaf_count);
    snapshot::SectionDesc* const sections[] = {&hdr.nodes, &hdr.leaves, &hdr.direct,
                                               &hdr.leaves8, &hdr.leaf_dict};
    const std::uint64_t grow[] = {in_node_section ? sizeof(Poptrie4::Node) : 0,
                                  in_node_section ? 0 : sizeof(NextHop), 0, 0, 0};
    snapshot::Image out(sizeof(hdr), 0);
    for (std::size_t k = 0; k < std::size(sections); ++k) {
        snapshot::SectionDesc& s = *sections[k];
        const auto from = img.begin() + static_cast<std::ptrdiff_t>(s.offset);
        out.resize(align_section(out.size()), 0);
        s.offset = out.size();
        out.insert(out.end(), from, from + static_cast<std::ptrdiff_t>(s.bytes));
        s.bytes += grow[k];
        out.resize(s.offset + s.bytes, 0);
        s.checksum = snapshot::image_checksum(out.data() + s.offset, s.bytes);
    }
    hdr.total_bytes = out.size();
    hdr.payload_checksum =
        snapshot::image_checksum(out.data() + sizeof(hdr), out.size() - sizeof(hdr));
    hdr.header_checksum = 0;
    hdr.header_checksum = snapshot::image_checksum(&hdr, sizeof(hdr));
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
}

}  // namespace

TEST(Snapshot, VerifierRejectsAnUnreachableSlot)
{
    // verify_image() requires the runs to tile every section exactly once:
    // a slot past the last run is slack no lookup reads, and the writer
    // never leaves one.
    // quiescent: single-threaded test — no reader thread ever exists.
    const psync::QuiescentSection quiescent;
    auto rib = load(corner_case_table());
    Poptrie4 pt{rib, Config{}};
    const auto img = snapshot::serialize(pt);
    const auto clean = SnapshotFib4::load_buffer(img.data(), img.size());
    ASSERT_TRUE(snapshot::verify_image(clean).ok()) << snapshot::verify_image(clean).summary();
    for (const bool in_node_section : {true, false}) {
        SCOPED_TRACE(in_node_section ? "node section" : "leaf section");
        const auto bad = with_unreachable_slot(img, in_node_section);
        const auto fib = SnapshotFib4::load_buffer(bad.data(), bad.size());
        const auto report = snapshot::verify_image(fib);
        ASSERT_EQ(report.violation_count(), 1u) << report.summary();
        EXPECT_EQ(report.violations().front().check, "section-not-tiled");
        EXPECT_EQ(boundary_and_random_mismatches(
                      rib, corner_case_table(),
                      [&](Ipv4Addr a) { return fib.lookup(a); }, 10'000),
                  0u);
    }
}
