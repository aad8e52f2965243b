// snapshot/snapshot.hpp — versioned on-disk FIB images and warm start.
//
// The compacted DFS pre-order layout (Poptrie::compact, DESIGN.md §8) is a
// pure function of the trie, so the whole FIB — node pool, leaf pool, direct
// array, root metadata — serializes as raw arenas and maps back byte for
// byte. This module is that round trip:
//
//   * serialize()/save()  — writer: at a quiescent point, copy the touched
//     extent of the pools (allocator high-water marks) plus a Config echo,
//     per-section and whole-image FNV-1a checksums, and a provenance stamp
//     (benchkit git_sha/build fingerprint) into a versioned image;
//   * SnapshotFib<Addr>   — loader: validate the header and checksums, then
//     either mmap the file read-only (Backing::kFileMapped — pages shared
//     across every process mapping the same image) or copy it into arena
//     pages honoring the hugepage policy; serve lookups over the immutable
//     arrays with zero writer-side machinery — no EBR domain, no buddy
//     allocators, no pool growth, no atomics;
//   * verify_image()      — structural auditor over a loaded image (bounds,
//     leafvec/vector consistency, reachability), backing poptrie_fsck
//     --verify-image.
//
// Versioning/compat policy (DESIGN.md §11): images carry a format version
// and an endianness tag; a loader accepts exactly its own version and host
// byte order, and rejects anything else up front — images are a warm-start
// and replication format, not an archival one. Any layout change bumps
// kFormatVersion.
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
#include <string_view>
#include <type_traits>
#include <vector>

#include "alloc/arena.hpp"
#include "netbase/bits.hpp"
#include "poptrie/config.hpp"
#include "poptrie/lanes.hpp"
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

/// Filesystem-level failure: file missing/unreadable, short write. Exit 2.
class ImageIoError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[8] = {'P', 'O', 'P', 'T', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kFormatVersion = 2;
/// Written as a native uint32: a loader on the other byte order reads
/// 0x04030201 and rejects the image instead of mis-decoding it.
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
/// Sections start at multiples of this (cache-line aligned; also satisfies
/// every element type's alignment).
inline constexpr std::size_t kSectionAlign = 64;

/// FNV-1a over `n` bytes, seeded so section checksums can be chained.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n,
                                    std::uint64_t seed = 0xCBF29CE484222325ull) noexcept;

/// One serialized pool: where it sits in the image and its own checksum.
struct SectionDesc {
    std::uint64_t offset = 0;    ///< from image start, kSectionAlign-aligned
    std::uint64_t bytes = 0;     ///< payload bytes (element count × size)
    std::uint64_t checksum = 0;  ///< fnv1a64 of the payload
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
    // Config echo (poptrie::Config, hugepages as the policy enumerator).
    std::uint8_t direct_bits = 0;
    std::uint8_t leaf_compression = 0;
    std::uint8_t route_aggregation = 0;
    std::uint8_t pool_headroom_log2 = 0;
    std::uint8_t hugepage_policy = 0;
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
    std::uint64_t payload_checksum = 0;  ///< fnv1a64 over [header_bytes, total_bytes)
    std::uint64_t header_checksum = 0;   ///< fnv1a64 over the header, this field 0
};
static_assert(std::is_trivially_copyable_v<ImageHeader>);
static_assert(sizeof(ImageHeader) == 288, "bump kFormatVersion when the header grows");

/// The single point of access to Poptrie internals for the image writer
/// (declared a friend there, exactly like analysis::AuditAccess). The pool
/// accessors are POPTRIE_NO_TSA: by contract the writer runs at a quiescent
/// point (serialize() REQUIRES the capability), a discipline the callers
/// uphold rather than the type system.
struct SnapshotAccess {
    template <class Addr>
    using PT = poptrie::Poptrie<Addr>;

    template <class Addr>
    [[nodiscard]] static const auto& nodes(const PT<Addr>& p) noexcept POPTRIE_NO_TSA
    {
        return p.nodes_;
    }
    template <class Addr>
    [[nodiscard]] static const auto& leaves(const PT<Addr>& p) noexcept POPTRIE_NO_TSA
    {
        return p.leaves_;
    }
    template <class Addr>
    [[nodiscard]] static const auto& leaves8(const PT<Addr>& p) noexcept POPTRIE_NO_TSA
    {
        return p.leaves8_;
    }
    template <class Addr>
    [[nodiscard]] static const auto& leaf_dict(const PT<Addr>& p) noexcept POPTRIE_NO_TSA
    {
        return p.leaf_dict_;
    }
    template <class Addr>
    [[nodiscard]] static const auto& direct(const PT<Addr>& p) noexcept POPTRIE_NO_TSA
    {
        return p.direct_;
    }
    template <class Addr>
    [[nodiscard]] static std::uint32_t root(const PT<Addr>& p) noexcept POPTRIE_NO_TSA
    {
        return p.root_;
    }
    template <class Addr>
    [[nodiscard]] static const alloc::BuddyAllocator& node_alloc(const PT<Addr>& p) noexcept
        POPTRIE_NO_TSA
    {
        return *p.node_alloc_;
    }
    template <class Addr>
    [[nodiscard]] static const alloc::BuddyAllocator& leaf_alloc(const PT<Addr>& p) noexcept
        POPTRIE_NO_TSA
    {
        return *p.leaf_alloc_;
    }
    template <class Addr>
    [[nodiscard]] static std::size_t inode_count(const PT<Addr>& p) noexcept
    {
        return p.inode_count_;
    }
    template <class Addr>
    [[nodiscard]] static std::size_t leaf_count(const PT<Addr>& p) noexcept
    {
        return p.leaf_count_;
    }
};

/// Serializes `fib` into an in-memory image: header + node/leaf/direct
/// sections at aligned offsets, checksums filled in. Quiescent-point only —
/// the pools are read in place, so no update and no pool replacement may run
/// concurrently (the capability requirement is the §3.5 contract, not a
/// convention).
template <class Addr>
[[nodiscard]] std::vector<std::uint8_t> serialize(const poptrie::Poptrie<Addr>& fib)
    POPTRIE_REQUIRES(psync::cap::quiescent, psync::cap::ebr);

/// serialize() + atomic file write (temp file in place, then rename), so a
/// crash mid-save never leaves a half-written image under the target name.
/// Throws ImageIoError when the filesystem refuses.
template <class Addr>
void save(const poptrie::Poptrie<Addr>& fib, const std::string& path)
    POPTRIE_REQUIRES(psync::cap::quiescent, psync::cap::ebr);

/// Reads and validates just the header of an image file: magic, version,
/// endianness, header size, header checksum. Lets tools dispatch on
/// family_width before committing to a full load. Throws ImageIoError (file
/// unreadable) or ImageError (not a valid image).
[[nodiscard]] ImageHeader read_header(const std::string& path);

/// How SnapshotFib places the image in memory.
struct LoadOptions {
    enum class Placement {
        kAuto,  ///< mmap the file; fall back to copy-in if mapping fails
        kMap,   ///< same as kAuto (mapping is best-effort by design)
        kCopy,  ///< always copy into arena pages (hugepage policy applies)
    };
    Placement placement = Placement::kAuto;
    /// Arena policy for the copy-in path (mmap'd files cannot be hugepage-
    /// backed, so the policy is moot under kMap placement).
    alloc::HugepagePolicy hugepages = alloc::HugepagePolicy::kAuto;
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

    static constexpr unsigned kStride = poptrie::Poptrie<Addr>::kStride;
    static constexpr unsigned kWidth = Addr::kWidth;
    static constexpr std::uint32_t kDirectLeafBit = poptrie::Poptrie<Addr>::kDirectLeafBit;

    /// Loads and validates an image file. ImageIoError when the file cannot
    /// be read at all; ImageError when it is not a valid, intact image for
    /// this address family.
    [[nodiscard]] static SnapshotFib load_file(const std::string& path,
                                               const LoadOptions& opt = {});

    /// Loads from an in-memory image (always copy-in). Same validation.
    [[nodiscard]] static SnapshotFib load_buffer(const std::uint8_t* data, std::size_t size,
                                                 const LoadOptions& opt = {});

    SnapshotFib(SnapshotFib&& other) noexcept
        : hdr_(other.hdr_),
          arena_(std::move(other.arena_)),
          blocks_(std::move(other.blocks_)),
          nodes_(other.nodes_),
          leaves_(other.leaves_),
          direct_(other.direct_),
          leaves8_(other.leaves8_),
          leaf_dict_(other.leaf_dict_),
          root_(other.root_),
          direct_bits_(other.direct_bits_),
          leaf_compression_(other.leaf_compression_),
          avx512_(other.avx512_)
    {
        other.nodes_ = nullptr;
        other.leaves_ = nullptr;
        other.direct_ = nullptr;
        other.leaves8_ = nullptr;
        other.leaf_dict_ = nullptr;
    }
    SnapshotFib& operator=(SnapshotFib&& other) noexcept
    {
        if (this != &other) {
            release();
            hdr_ = other.hdr_;
            arena_ = std::move(other.arena_);
            blocks_ = std::move(other.blocks_);
            nodes_ = other.nodes_;
            leaves_ = other.leaves_;
            direct_ = other.direct_;
            leaves8_ = other.leaves8_;
            leaf_dict_ = other.leaf_dict_;
            root_ = other.root_;
            direct_bits_ = other.direct_bits_;
            leaf_compression_ = other.leaf_compression_;
            avx512_ = other.avx512_;
            other.nodes_ = nullptr;
            other.leaves_ = nullptr;
            other.direct_ = nullptr;
            other.leaves8_ = nullptr;
            other.leaf_dict_ = nullptr;
        }
        return *this;
    }
    SnapshotFib(const SnapshotFib&) = delete;
    SnapshotFib& operator=(const SnapshotFib&) = delete;
    ~SnapshotFib() { release(); }

    /// Longest-prefix-match lookup; kNoRoute on miss. One configuration
    /// branch, then the same walk as the live trie (the shared scalar
    /// reference in lookup_pipelined.ipp, over the plain-load view).
    POPTRIE_HOT [[nodiscard]] NextHop lookup(Addr addr) const noexcept
    {
        return leaf_compression_
                   ? poptrie::batch::lookup_one<true>(view(), addr.value(), direct_bits_)
                   : poptrie::batch::lookup_one<false>(view(), addr.value(), direct_bits_);
    }

    /// Batched lookup. IPv4 images serve the AVX-512 kernel
    /// (poptrie/lanes.hpp) when the CPU has it, and every other case the
    /// shared pipelined state machine from lookup_pipelined.ipp (the
    /// kernel's 32-bit chunk arithmetic has no 128-bit form);
    /// batch_kernel() says which. No capability requirement and no atomics:
    /// the arrays are immutable, which is also what makes the plain-load
    /// gathers sound here.
    POPTRIE_HOT void lookup_batch(const value_type* keys, NextHop* out,
                                  std::size_t n) const noexcept
    {
        if constexpr (kWidth == 32) {
            if (avx512_) {
                poptrie::lanes::run_avx512(view(), keys, out, n);
                return;
            }
        }
        poptrie::batch::lookup_batch_pipelined(view(), keys, out, n);
    }

    /// The kernel lookup_batch serves with: "avx512" or "pipelined".
    [[nodiscard]] std::string_view batch_kernel() const noexcept
    {
        return (kWidth == 32 && avx512_) ? "avx512" : "pipelined";
    }

    /// The plain-load view every walk over this image reads through — exact,
    /// not an approximation: a loaded image has no writer side at all. Public
    /// so tests and benches can drive each kernel directly.
    POPTRIE_HOT [[nodiscard]] poptrie::batch::PlainView<value_type, Node> view() const noexcept
    {
        return {nodes_,       leaves_,           direct_,  root_,
                direct_bits_, leaf_compression_, leaves8_, leaf_dict_};
    }

    [[nodiscard]] const ImageHeader& header() const noexcept { return hdr_; }
    /// The Config the FIB was built with, reconstructed from the echo.
    [[nodiscard]] poptrie::Config config() const noexcept;
    /// Backing of the image pages: kFileMapped under mmap placement, the
    /// arena's usual report (hugetlb/thp/normal/heap) under copy-in.
    [[nodiscard]] alloc::MemoryReport memory_report() const noexcept
    {
        return arena_->report();
    }
    [[nodiscard]] std::uint64_t node_count() const noexcept { return hdr_.node_count; }
    [[nodiscard]] std::uint64_t leaf_count() const noexcept { return hdr_.leaf_count; }
    [[nodiscard]] std::uint64_t direct_slots() const noexcept { return hdr_.direct_count; }
    [[nodiscard]] std::uint64_t image_bytes() const noexcept { return hdr_.total_bytes; }

    [[nodiscard]] std::uint64_t leaf8_count() const noexcept { return hdr_.leaf8_count; }
    [[nodiscard]] std::uint64_t leaf_dict_count() const noexcept
    {
        return hdr_.leaf_dict_count;
    }

    // Raw section access for the structural verifier (verify_image).
    [[nodiscard]] const Node* nodes_data() const noexcept { return nodes_; }
    [[nodiscard]] const NextHop* leaves_data() const noexcept { return leaves_; }
    [[nodiscard]] const std::uint32_t* direct_data() const noexcept { return direct_; }
    [[nodiscard]] const std::uint8_t* leaves8_data() const noexcept { return leaves8_; }
    [[nodiscard]] const NextHop* leaf_dict_data() const noexcept { return leaf_dict_; }

private:
    SnapshotFib() = default;

    /// Validates `base[0, size)` as an image for this family and points the
    /// section pointers into it. Throws ImageError; never takes ownership.
    void attach(const std::uint8_t* base, std::size_t size);
    void release() noexcept
    {
        if (arena_ != nullptr)
            for (auto& b : blocks_) arena_->unmap(b);
        blocks_.clear();
        nodes_ = nullptr;
        leaves_ = nullptr;
        direct_ = nullptr;
        leaves8_ = nullptr;
        leaf_dict_ = nullptr;
    }

    ImageHeader hdr_{};
    // The arena accounts for the image pages (one file mapping or one
    // copied block) so memory_report() distinguishes built vs restored FIBs.
    std::unique_ptr<alloc::Arena> arena_;
    std::vector<alloc::Arena::Block> blocks_;
    const Node* nodes_ = nullptr;
    const NextHop* leaves_ = nullptr;
    const std::uint32_t* direct_ = nullptr;
    // v2 dict-coded leaf sections; null pointers are fine when the image
    // carries no tagged runs (the view branches on the base0 tag first).
    const std::uint8_t* leaves8_ = nullptr;
    const NextHop* leaf_dict_ = nullptr;
    std::uint32_t root_ = 0;
    unsigned direct_bits_ = 0;
    bool leaf_compression_ = true;
    // Resolved once per load from the cached cpuid check; IPv6 images carry
    // it too but always serve the pipelined walk.
    bool avx512_ = poptrie::lanes::has_avx512();
};

using SnapshotFib4 = SnapshotFib<netbase::Ipv4Addr>;
using SnapshotFib6 = SnapshotFib<netbase::Ipv6Addr>;

extern template class SnapshotFib<netbase::Ipv4Addr>;
extern template class SnapshotFib<netbase::Ipv6Addr>;

/// The structural verifier's outcome (poptrie_fsck --verify-image).
struct VerifyReport {
    std::vector<std::string> violations;
    std::size_t nodes_checked = 0;
    std::size_t leaves_checked = 0;
    std::size_t direct_slots_checked = 0;
    [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
    [[nodiscard]] std::string summary() const;
};

/// Walks the reachable structure of a loaded image and checks the paper's
/// invariants image-side: every direct slot either a tagged leaf with a
/// representable next hop or an in-bounds node index; every child/leaf run
/// inside its section; leafvec consistent with vector under leaf
/// compression; no node reachable twice; depth bounded by the address
/// width. (Header and checksum validation already happened at load.)
template <class Addr>
[[nodiscard]] VerifyReport verify_image(const SnapshotFib<Addr>& fib);

extern template VerifyReport verify_image(const SnapshotFib<netbase::Ipv4Addr>&);
extern template VerifyReport verify_image(const SnapshotFib<netbase::Ipv6Addr>&);

extern template std::vector<std::uint8_t> serialize(
    const poptrie::Poptrie<netbase::Ipv4Addr>&);
extern template std::vector<std::uint8_t> serialize(
    const poptrie::Poptrie<netbase::Ipv6Addr>&);
extern template void save(const poptrie::Poptrie<netbase::Ipv4Addr>&, const std::string&);
extern template void save(const poptrie::Poptrie<netbase::Ipv6Addr>&, const std::string&);

}  // namespace snapshot
