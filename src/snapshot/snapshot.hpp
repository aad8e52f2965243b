// snapshot/snapshot.hpp — versioned on-disk FIB images and warm start.
//
// The reachable FIB — nodes, leaves, folded runs, direct array, root —
// packed in the serializer's own DFS pre-order without the buddy
// allocator's alignment is a dense image that maps back as the arrays a
// lookup walks, and a function of the trie alone: the pools' placement,
// compaction or churn history leaves no trace in it. This module is that
// round trip:
//
//   * serialize()/save()  — writer: on the writer thread, pack the reachable
//     runs of the current pool set back to back, straight into the image
//     (each section holds exactly its live slots), add a Config echo,
//     per-section and whole-image checksums (one sweep), and a provenance
//     stamp (benchkit git_sha/build fingerprint) into a versioned image;
//     save() makes it durable before it replaces the target;
//   * SnapshotFib<Addr>   — loader: validate the header and checksums, then
//     either mmap the file read-only (Backing::kFileMapped — pages shared
//     across every process mapping the same image) or copy it into
//     THP-advised arena pages; serve lookups over the immutable
//     arrays with zero writer-side machinery — no EBR domain, no buddy
//     allocators, no pool growth, no atomics;
//   * verify_image()      — the auditor's structural walk over a loaded
//     image (bounds, leafvec/vector consistency, run minimality,
//     reachability, every section tiled by its runs), backing poptrie_fsck
//     --verify-image.
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
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
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
inline constexpr std::uint32_t kFormatVersion = 5;
/// Written as a native uint32: a loader on the other byte order reads
/// 0x04030201 and rejects the image instead of mis-decoding it.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
/// Sections start at multiples of this (cache-line aligned; also satisfies
/// every element type's alignment).
inline constexpr std::size_t kSectionAlign = 64;

/// The image checksum (since format v3) of header, sections and payload: xxHash64's
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
    std::uint32_t root_index = 0;  ///< packed root when direct_bits == 0
    std::uint32_t reserved32 = 0;
    std::uint64_t node_count = 0;    ///< node slots serialized: the reachable nodes (v4)
    std::uint64_t leaf_count = 0;    ///< 16-bit leaf slots serialized: the reachable ones (v4)
    std::uint64_t direct_count = 0;  ///< direct slots (2^direct_bits or 0)
    std::uint64_t inode_live = 0;    ///< live internal nodes (stats echo)
    std::uint64_t leaf_live = 0;     ///< live leaf slots (stats echo)
    std::uint64_t leaf8_count = 0;      ///< code-array bytes serialized: codes and folded runs (v5)
    std::uint64_t leaf_dict_count = 0;  ///< dictionary entries (≤ 256, v2)
    std::uint64_t total_bytes = 0;      ///< whole image, header included
    SectionDesc nodes;
    SectionDesc leaves;
    SectionDesc direct;
    SectionDesc leaves8;    ///< 8-bit leaf codes and folded runs (v5; empty unless dict-encoded)
    SectionDesc leaf_dict;  ///< dictionary next-hop values (v2)
    char git_sha[24] = {};     ///< benchkit provenance, NUL-padded
    char build_type[16] = {};  ///< CMake build type at write time
    std::uint64_t payload_checksum = 0;  ///< checksum of [header_bytes, total_bytes)
    std::uint64_t header_checksum = 0;   ///< checksum of the header, this field 0
};
static_assert(std::is_trivially_copyable_v<ImageHeader>);
static_assert(sizeof(ImageHeader) == 288, "bump kFormatVersion when the header grows");

/// Allocates bytes without zeroing them: serialize() writes every byte of
/// an image itself, so growing the buffer need not write it first.
template <class T>
struct UninitAllocator : std::allocator<T> {
    template <class U>
    struct rebind {
        using other = UninitAllocator<U>;
    };
    UninitAllocator() noexcept = default;
    template <class U>
    UninitAllocator(const UninitAllocator<U>&) noexcept
    {
    }
    template <class U>
    void construct(U* p) noexcept
    {
        ::new (static_cast<void*>(p)) U;  // default-initialised: no zeroing
    }
    template <class U, class... Args>
    void construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
};

/// An in-memory image, as serialize() returns it.
using Image = std::vector<std::uint8_t, UninitAllocator<std::uint8_t>>;

/// Serializes `fib` into an in-memory dense image: header + sections at
/// aligned offsets, each holding only the reachable runs packed in DFS
/// pre-order, checksums filled in. Writer role only: the current pool set
/// is read in place, so neither apply() nor compact() may run concurrently.
/// Readers may keep forwarding. Throws netbase::StructuralLimit for a FIB
/// whose code array passes 2^30 bytes before its last folded run.
template <class Addr>
[[nodiscard]] Image serialize(const poptrie::Poptrie<Addr>& fib)
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
/// structural walk (analysis::audit_structure) over the dense layout: every
/// direct slot a tagged leaf with a representable next hop, a folded run
/// inside the leaf8 section with leafvec bit 0 set and codes inside the
/// dictionary, or an in-bounds node index; every child/leaf run inside its
/// section by its exact length; leafvec consistent with vector and runs
/// minimal under leaf compression; no node reachable twice; depth bounded
/// by the address width; and the runs tiling each section exactly once,
/// with no slot that no run holds. The checks carry the same names audit()
/// reports for a live trie.
/// (Header and checksum validation already happened at load.)
template <class Addr>
[[nodiscard]] analysis::AuditReport verify_image(const SnapshotFib<Addr>& fib)
{
    return analysis::audit_structure<Addr>(fib.view());
}

extern template Image serialize(const poptrie::Poptrie<netbase::Ipv4Addr>&);
extern template Image serialize(const poptrie::Poptrie<netbase::Ipv6Addr>&);
extern template void save(const poptrie::Poptrie<netbase::Ipv4Addr>&, const std::string&);
extern template void save(const poptrie::Poptrie<netbase::Ipv6Addr>&, const std::string&);

}  // namespace snapshot
