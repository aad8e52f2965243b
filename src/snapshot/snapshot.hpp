// snapshot/snapshot.hpp — versioned on-disk FIB images and warm start.
//
// The compacted DFS pre-order layout (Poptrie::compact, DESIGN.md §8) is a
// pure function of the trie, so the whole FIB — node pool, leaf pool, direct
// array, root metadata — serializes as raw arenas and maps back byte for
// byte. This module is that round trip:
//
//   * serialize()/save()  — writer: on the writer thread, copy the touched
//     extent of the current pool set (allocator high-water marks) plus a
//     Config echo, per-section and whole-image checksums (one sweep), and a
//     provenance stamp (benchkit git_sha/build fingerprint) into a versioned
//     image; save() makes it durable before it replaces the target;
//   * SnapshotFib<Addr>   — loader: validate the header and checksums, then
//     either mmap the file read-only (Backing::kFileMapped — pages shared
//     across every process mapping the same image) or copy it into
//     THP-advised arena pages; serve lookups over the immutable
//     arrays with zero writer-side machinery — no EBR domain, no buddy
//     allocators, no pool growth, no atomics;
//   * verify_image()      — the auditor's structural walk over a loaded
//     image (bounds, leafvec/vector consistency, run minimality,
//     reachability), backing poptrie_fsck --verify-image.
//
// Versioning/compat policy (DESIGN.md §11): images carry a format version
// and an endianness tag; a loader accepts exactly its own version and host
// byte order, and rejects anything else up front — images are a warm-start
// and replication format, not an archival one. Any layout or checksum
// change bumps kFormatVersion.
//
// Error model: ImageIoError for filesystem problems (missing file, short
// write), ImageError for malformed or corrupted images (bad magic/version,
// checksum mismatch, truncation, layout violations). Tools map them to the
// repo-wide exit-code contract: 2 for input errors, 1 for violations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/arena.hpp"
#include "analysis/audit.hpp"
#include "netbase/bits.hpp"
#include "poptrie/config.hpp"
#include "poptrie/lookup_pipelined.ipp"
#include "poptrie/poptrie.hpp"
#include "sync/annotations.hpp"

namespace snapshot {

/// Malformed or corrupted image: bad magic/version/endianness, checksum
/// mismatch, truncation, inconsistent section layout. Exit 1 in tools.
class ImageError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Filesystem-level failure: file missing/unreadable, a failed write,
/// flush or rename. Exit 2.
class ImageIoError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[8] = {'P', 'O', 'P', 'T', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kFormatVersion = 3;
/// Written as a native uint32: a loader on the other byte order reads
/// 0x04030201 and rejects the image instead of mis-decoding it.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
/// Sections start at multiples of this (cache-line aligned; also satisfies
/// every element type's alignment).
inline constexpr std::size_t kSectionAlign = 64;

/// The image checksum (format v3) of header, sections and payload: xxHash64's
/// round chained over the native words of `data[0, n)`, a partial last word
/// zero-extended. It detects every change confined to one word (§11).
[[nodiscard]] std::uint64_t image_checksum(const void* data, std::size_t n) noexcept;

/// One serialized pool: where it sits in the image and its own checksum.
struct SectionDesc {
    std::uint64_t offset = 0;    ///< from image start, kSectionAlign-aligned
    std::uint64_t bytes = 0;     ///< payload bytes (element count × size)
    std::uint64_t checksum = 0;  ///< image_checksum of the payload
};

/// The fixed-size image header (DESIGN.md §11 has the byte-layout table).
/// Everything a loader must distrust is here: identity (magic/version/
/// endianness), geometry (counts, section extents, element sizes), the
/// Config echo, provenance, and two checksums — one over the header itself
/// (this field zeroed), one over everything after it.
struct ImageHeader {
    char magic[8] = {};
    std::uint32_t format_version = 0;
    std::uint32_t endian_tag = 0;
    std::uint32_t header_bytes = 0;  ///< sizeof(ImageHeader) at write time
    std::uint32_t family_width = 0;  ///< Addr::kWidth: 32 or 128
    std::uint32_t node_bytes = 0;    ///< sizeof(Node) — layout drift guard
    std::uint32_t leaf_bytes = 0;    ///< sizeof(NextHop)
    // Config echo (poptrie::Config).
    std::uint8_t direct_bits = 0;
    std::uint8_t leaf_compression = 0;
    std::uint8_t route_aggregation = 0;
    /// Held the pool headroom and hugepage policy, both since deleted from
    /// Config. Written 0 and never read, so images keep loading both ways.
    std::uint8_t reserved_echo[2] = {};
    std::uint8_t leaf_dict_enabled = 0;  ///< Config::leaf_dict (v2)
    std::uint8_t reserved8[2] = {};
    std::uint32_t root_index = 0;  ///< published root when direct_bits == 0
    std::uint32_t reserved32 = 0;
    std::uint64_t node_count = 0;    ///< node slots serialized ([0, high water))
    std::uint64_t leaf_count = 0;    ///< leaf slots serialized
    std::uint64_t direct_count = 0;  ///< direct slots (2^direct_bits or 0)
    std::uint64_t inode_live = 0;    ///< live internal nodes (stats echo)
    std::uint64_t leaf_live = 0;     ///< live leaf slots (stats echo)
    std::uint64_t leaf8_count = 0;      ///< dict-coded leaf slots serialized (v2)
    std::uint64_t leaf_dict_count = 0;  ///< dictionary entries (≤ 256, v2)
    std::uint64_t total_bytes = 0;      ///< whole image, header included
    SectionDesc nodes;
    SectionDesc leaves;
    SectionDesc direct;
    SectionDesc leaves8;    ///< 8-bit leaf codes (v2; empty unless dict-encoded)
    SectionDesc leaf_dict;  ///< dictionary next-hop values (v2)
    char git_sha[24] = {};     ///< benchkit provenance, NUL-padded
    char build_type[16] = {};  ///< CMake build type at write time
    std::uint64_t payload_checksum = 0;  ///< checksum of [header_bytes, total_bytes)
    std::uint64_t header_checksum = 0;   ///< checksum of the header, this field 0
};
static_assert(std::is_trivially_copyable_v<ImageHeader>);
static_assert(sizeof(ImageHeader) == 288, "bump kFormatVersion when the header grows");

/// Serializes `fib` into an in-memory image: header + node/leaf/direct
/// sections at aligned offsets, checksums filled in. Writer role only: the
/// current pool set is read in place, so neither apply() nor compact() may
/// run concurrently. Readers may keep forwarding.
template <class Addr>
[[nodiscard]] std::vector<std::uint8_t> serialize(const poptrie::Poptrie<Addr>& fib)
    POPTRIE_REQUIRES(psync::cap::ebr);

/// serialize() + durable atomic file write: the image goes to a temp file
/// beside `path`, which is fsync'ed, renamed over `path`, and the directory
/// fsync'ed, so neither a crash nor a power loss mid-save leaves a torn
/// image under the target name. Throws ImageIoError when the filesystem
/// refuses; the temp file is removed and, for every failure up to the
/// rename, the previous image at `path` is untouched.
template <class Addr>
void save(const poptrie::Poptrie<Addr>& fib, const std::string& path)
    POPTRIE_REQUIRES(psync::cap::ebr);

/// Reads and validates just the header of an image file: magic, version,
/// endianness, header size, header checksum. Lets tools dispatch on
/// family_width before committing to a full load. Throws ImageIoError (file
/// unreadable) or ImageError (not a valid image).
[[nodiscard]] ImageHeader read_header(const std::string& path);

/// How SnapshotFib places the image in memory.
struct LoadOptions {
    enum class Placement {
        kAuto,  ///< mmap the file; fall back to copy-in if mapping fails
        kCopy,  ///< always copy into THP-advised arena pages
    };
    Placement placement = Placement::kAuto;
};

/// A read-only FIB served straight out of a validated snapshot image.
/// Immutable after construction: plain loads, no EBR, no allocators, and
/// therefore trivially shareable across threads (and, under mmap placement,
/// across processes). The lookup algorithm is the paper's: the same
/// batch::lookup_one walk as Poptrie::lookup_raw, over plain loads instead
/// of the publication atomics an updater would need.
template <class Addr>
class SnapshotFib {
public:
    using addr_type = Addr;
    using value_type = typename Addr::value_type;
    using NextHop = rib::NextHop;
    using Node = typename poptrie::Poptrie<Addr>::Node;
    using View = typename poptrie::Poptrie<Addr>::View;

    /// Loads and validates an image file. ImageIoError when the file cannot
    /// be read at all; ImageError when it is not a valid, intact image for
    /// this address family.
    [[nodiscard]] static SnapshotFib load_file(const std::string& path,
                                               const LoadOptions& opt = {});

    /// Loads from an in-memory image (always copy-in). Same validation.
    [[nodiscard]] static SnapshotFib load_buffer(const std::uint8_t* data, std::size_t size);

    /// Longest-prefix-match lookup; kNoRoute on miss. One configuration
    /// branch, then the same walk as the live trie (the shared scalar
    /// reference in lookup_pipelined.ipp, over the plain-load view).
    POPTRIE_HOT [[nodiscard]] NextHop lookup(Addr addr) const noexcept
    {
        return view_.leaf_compression
                   ? poptrie::batch::lookup_one<true>(view_, addr.value(), view_.direct_bits)
                   : poptrie::batch::lookup_one<false>(view_, addr.value(), view_.direct_bits);
    }

    /// Batched lookup: the live trie's batch walk (lookup_pipelined.ipp)
    /// over the plain-load view. No capability requirement and no atomics:
    /// the arrays are immutable.
    POPTRIE_HOT void lookup_batch(const value_type* keys, NextHop* out,
                                  std::size_t n) const noexcept
    {
        poptrie::batch::lookup_batch_pipelined(view_, keys, out, n);
    }

    /// The image's arrays as every walk over them reads them — exact, not
    /// an approximation: a loaded image has no writer side at all. Public so
    /// tests, benches and the structural verifier can read it directly.
    [[nodiscard]] const View& view() const noexcept { return view_; }

    [[nodiscard]] const ImageHeader& header() const noexcept { return hdr_; }
    /// The Config the FIB was built with, reconstructed from the echo.
    [[nodiscard]] poptrie::Config config() const noexcept;
    /// Backing of the image pages: kFileMapped under mmap placement, the
    /// arena's usual report (thp-advised or normal pages) under copy-in.
    [[nodiscard]] alloc::MemoryReport memory_report() const noexcept
    {
        return mapping_->arena.report();
    }
    [[nodiscard]] std::uint64_t image_bytes() const noexcept { return hdr_.total_bytes; }

private:
    /// The image pages and the arena that accounts for them (one file
    /// mapping or one copied block), so memory_report() distinguishes built
    /// vs restored FIBs. Heap-held: the view points into it, and moving a
    /// SnapshotFib moves only the pointer.
    struct Mapping {
        Mapping() = default;
        Mapping(const Mapping&) = delete;
        Mapping& operator=(const Mapping&) = delete;
        ~Mapping() { arena.unmap(block); }

        alloc::Arena arena;
        alloc::Arena::Block block{};
    };

    SnapshotFib() : mapping_(std::make_unique<Mapping>()) {}

    /// Validates `base[0, size)` as an image for this family and points the
    /// view into it. Throws ImageError; never takes ownership.
    void attach(const std::uint8_t* base, std::size_t size);

    ImageHeader hdr_{};
    std::unique_ptr<Mapping> mapping_;
    View view_{};
};

using SnapshotFib4 = SnapshotFib<netbase::Ipv4Addr>;
using SnapshotFib6 = SnapshotFib<netbase::Ipv6Addr>;

extern template class SnapshotFib<netbase::Ipv4Addr>;
extern template class SnapshotFib<netbase::Ipv6Addr>;

/// Walks the reachable structure of a loaded image with the auditor's
/// structural walk (analysis::audit_structure): every direct slot either a
/// tagged leaf with a representable next hop or an in-bounds node index;
/// every child/leaf run inside its section and aligned; leafvec consistent
/// with vector and runs minimal under leaf compression; no node reachable
/// twice; depth bounded by the address width. The checks carry the same
/// names audit() reports for a live trie. (Header and checksum validation
/// already happened at load.)
template <class Addr>
[[nodiscard]] analysis::AuditReport verify_image(const SnapshotFib<Addr>& fib)
{
    return analysis::audit_structure<Addr>(fib.view());
}

extern template std::vector<std::uint8_t> serialize(
    const poptrie::Poptrie<netbase::Ipv4Addr>&);
extern template std::vector<std::uint8_t> serialize(
    const poptrie::Poptrie<netbase::Ipv6Addr>&);
extern template void save(const poptrie::Poptrie<netbase::Ipv4Addr>&, const std::string&);
extern template void save(const poptrie::Poptrie<netbase::Ipv6Addr>&, const std::string&);

}  // namespace snapshot
