// snapshot/snapshot.cpp — image writer, validating loader, and the
// image-side structural verifier. See snapshot.hpp for the format contract.
#include "snapshot/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

#include "benchkit/provenance.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/ipv6.hpp"
#include "netbase/structural_limit.hpp"

namespace snapshot {

namespace {

std::uint64_t align_up(std::uint64_t n, std::uint64_t align)
{
    return (n + align - 1) / align * align;
}

/// NUL-padded copy of a provenance string into a fixed header field;
/// truncates silently (the stamp is diagnostic, not load-bearing).
void copy_stamp(char* dst, std::size_t dst_len, std::string_view src)
{
    std::memset(dst, 0, dst_len);
    std::memcpy(dst, src.data(), std::min(src.size(), dst_len - 1));
}

/// Identity checks shared by read_header() and the full loader: everything
/// that must hold before any other header field may be trusted.
void validate_header_common(const ImageHeader& hdr)
{
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        throw ImageError("not a poptrie snapshot image (bad magic)");
    if (hdr.format_version != kFormatVersion)
        throw ImageError("unsupported snapshot format version " +
                         std::to_string(hdr.format_version) + " (this build reads version " +
                         std::to_string(kFormatVersion) + ")");
    if (hdr.endian_tag != kEndianTag)
        throw ImageError("snapshot image written on a different byte order");
    if (hdr.header_bytes != sizeof(ImageHeader))
        throw ImageError("snapshot header size mismatch: image says " +
                         std::to_string(hdr.header_bytes) + ", this build expects " +
                         std::to_string(sizeof(ImageHeader)));
    ImageHeader copy = hdr;
    copy.header_checksum = 0;
    if (image_checksum(&copy, sizeof(copy)) != hdr.header_checksum)
        throw ImageError("snapshot header checksum mismatch");
}

/// The five sections in file order: the header fields holding each one's
/// descriptor and element count, its element size, and the name its errors use.
struct SectionField {
    SectionDesc ImageHeader::*desc;
    std::uint64_t ImageHeader::*count;
    std::uint64_t element_bytes;
    const char* name;
};
template <class Node>
constexpr SectionField kSections[] = {
    {&ImageHeader::nodes, &ImageHeader::node_count, sizeof(Node), "node"},
    {&ImageHeader::leaves, &ImageHeader::leaf_count, sizeof(rib::NextHop), "leaf"},
    {&ImageHeader::direct, &ImageHeader::direct_count, sizeof(std::uint32_t), "direct"},
    {&ImageHeader::leaves8, &ImageHeader::leaf8_count, sizeof(std::uint8_t), "leaf8"},
    {&ImageHeader::leaf_dict, &ImageHeader::leaf_dict_count, sizeof(rib::NextHop),
     "leaf-dict"},
};

// xxHash64's PRIME64_5 (the seed), PRIME64_1 and PRIME64_2.
constexpr std::uint64_t kSeed = 0x27D4EB2F165667C5ull;
constexpr std::uint64_t kMul1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kMul2 = 0xC2B2AE3D27D4EB4Full;

/// One checksum step, xxHash64's round: a bijection in `h` and in the word,
/// and no difference passes it unchanged for all data (DESIGN.md §11).
std::uint64_t step(std::uint64_t h, std::uint64_t word) noexcept
{
    return std::rotl(h + word * kMul2, 31) * kMul1;
}

/// Continues the chain `h` over the native words of `p[0, n)`, a partial
/// last word zero-extended.
std::uint64_t sum_words(std::uint64_t h, const std::uint8_t* p, std::uint64_t n) noexcept
{
    for (std::uint64_t i = 0; i < n; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, std::min<std::uint64_t>(8, n - i));
        h = step(h, w);
    }
    return h;
}

/// `hdr` with its payload and section checksums filled in by one sweep over
/// [header_bytes, total_bytes): each word feeds the payload's chain and, in a
/// section, that section's too. Needs the geometry attach() checks first.
template <class Node>
ImageHeader with_checksums(const std::uint8_t* base, ImageHeader hdr) noexcept
{
    std::uint64_t payload = kSeed;
    std::uint64_t pos = hdr.header_bytes;
    for (const SectionField& f : kSections<Node>) {
        SectionDesc& s = hdr.*f.desc;
        payload = sum_words(payload, base + pos, s.offset - pos);  // padding
        std::uint64_t h = kSeed;
        for (pos = s.offset; pos + 8 <= s.offset + s.bytes; pos += 8) {
            std::uint64_t w;
            std::memcpy(&w, base + pos, 8);
            payload = step(payload, w);
            h = step(h, w);
        }
        // A partial last word: the payload takes it whole, with the padding
        // or the image end that follows it.
        s.checksum = sum_words(h, base + pos, s.offset + s.bytes - pos);
    }
    hdr.payload_checksum = sum_words(payload, base + pos, hdr.total_bytes - pos);
    return hdr;
}

/// The reachable FIB packed back to back in DFS pre-order, straight into
/// the image's sections: a root's slot (a folded run's bytes
/// for a folded slot), then for each node its leaf run, its child run, and
/// each child's subtree in turn. Each section then holds exactly its live
/// slots, whatever the pools' placement, compaction or churn history
/// (DESIGN.md §11). The sections are sized from the live counts (Stats),
/// which a sound FIB's walk meets exactly.
///
/// Faults stay visible to verify_image(). The packer follows an index only
/// when its whole run lies inside the pool, and copies any other unchanged: a
/// packed section is never larger than its pool, so an out-of-range index
/// stays out of range. A run that does not fit in what is left of its
/// section gets the section's size as its index, out of range too, and a
/// section the walk leaves short keeps a zero tail that no run tiles. It
/// places each node run once, keyed by its first slot, so an aliased
/// subtree stays aliased (and a cycle ends). It stops where the structural
/// walk stops, at a node below the address width.
template <class Addr>
class DensePacker {
public:
    using PT = poptrie::Poptrie<Addr>;
    using Node = typename PT::Node;

    /// Packs `view` into the node, leaf, direct and leaf8 sections `hdr`
    /// lays out in `image`, and sets hdr.root_index.
    DensePacker(const typename PT::View& view, ImageHeader& hdr, std::uint8_t* image)
        : v_(view),
          placed_(view.node_count, kUnplaced),
          nodes_{image + hdr.nodes.offset, hdr.node_count},
          leaves_{image + hdr.leaves.offset, hdr.leaf_count},
          leaves8_{image + hdr.leaves8.offset, hdr.leaf8_count}
    {
        if (v_.direct_bits == 0) {
            hdr.root_index = place(v_.root, 1, 0);
        } else {
            std::uint8_t* const direct = image + hdr.direct.offset;
            for (std::uint64_t d = 0; d < v_.direct_count; ++d) {
                std::uint32_t slot = v_.direct[d];
                if ((slot & PT::kDirectLeafBit) == 0)
                    slot = place(slot, 1, v_.direct_bits);
                else if (slot & PT::kFoldedBit)
                    slot = pack_folded(slot);
                std::memcpy(direct + d * sizeof slot, &slot, sizeof slot);
            }
        }
        nodes_.zero_tail(sizeof(Node));
        leaves_.zero_tail(sizeof(rib::NextHop));
        leaves8_.zero_tail(1);
    }

private:
    static constexpr std::uint32_t kUnplaced = ~std::uint32_t{0};

    /// One section being filled: its bytes, its size in elements, and the
    /// elements placed so far.
    struct Section {
        std::uint8_t* base;
        std::uint64_t size;
        std::uint64_t used = 0;

        /// Room for `n` more elements: their index, or nothing.
        std::optional<std::uint32_t> claim(std::uint64_t n)
        {
            if (n > size - used) return std::nullopt;
            used += n;
            return static_cast<std::uint32_t>(used - n);
        }
        /// Zeroes the elements no run claimed.
        void zero_tail(std::size_t element_bytes)
        {
            std::memset(base + used * element_bytes, 0, (size - used) * element_bytes);
        }
    };

    /// Packs the source node run [first, first + count) at bit level `level`
    /// and everything below it; returns the run's packed index.
    std::uint32_t place(std::uint32_t first, std::uint32_t count, unsigned level)
    {
        if (std::uint64_t{first} + count > v_.node_count) return first;
        if (placed_[first] != kUnplaced) return placed_[first];
        const auto at = nodes_.claim(count);
        if (!at) return static_cast<std::uint32_t>(nodes_.size);
        placed_[first] = *at;
        for (std::uint32_t i = 0; i < count; ++i) {
            const Node n = pack_runs(v_.nodes[first + i], level);
            std::memcpy(nodes_.base + (*at + i) * sizeof(Node), &n, sizeof n);
        }
        return *at;
    }

    /// `n` with its leaf run and its child run packed and base0/base1
    /// pointing at them (0 for an empty run, as the compile leaves them).
    Node pack_runs(Node n, unsigned level)
    {
        if (level >= PT::kWidth) return n;
        const auto nkids = static_cast<std::uint32_t>(netbase::popcount64(n.vector));
        const std::uint32_t nleaves =
            v_.leaf_compression ? static_cast<std::uint32_t>(netbase::popcount64(n.leafvec))
                                : 64 - nkids;
        const std::uint32_t b0 = n.base0 & ~PT::kLeaf8Bit;
        if (nleaves == 0) {
            n.base0 = 0;
        } else if ((n.base0 & PT::kLeaf8Bit) != 0) {
            if (std::uint64_t{b0} + nleaves <= v_.leaf8_count)
                n.base0 = PT::kLeaf8Bit | copy(leaves8_, v_.leaves8 + b0, nleaves, 1);
        } else if (std::uint64_t{b0} + nleaves <= v_.leaf_count) {
            n.base0 = copy(leaves_, v_.leaves + b0, nleaves, sizeof(rib::NextHop));
        }
        n.base1 = nkids == 0 ? 0 : place(n.base1, nkids, level + PT::kStride);
        return n;
    }

    /// A folded slot with its run — leafvec and codes — packed.
    std::uint32_t pack_folded(std::uint32_t slot)
    {
        const std::uint32_t at = slot & poptrie::kFoldedOffsetMask;
        if (std::uint64_t{at} + 8 > v_.leaf8_count) return slot;
        const std::uint64_t bytes =
            8 + netbase::popcount64(poptrie::batch::folded_leafvec(v_.leaves8, at));
        if (at + bytes > v_.leaf8_count) return slot;
        const std::uint32_t packed = copy(leaves8_, v_.leaves8 + at, bytes, 1);
        if (packed > poptrie::kFoldedOffsetMask)
            throw netbase::StructuralLimit(
                "snapshot: a folded run lands past the 2^30-byte offset a direct slot holds");
        return PT::kDirectLeafBit | PT::kFoldedBit | packed;
    }

    /// Copies `n` elements of `bytes` each from `from` into `to`; returns
    /// their index there, or the section's size when they do not fit.
    static std::uint32_t copy(Section& to, const void* from, std::uint64_t n, std::size_t bytes)
    {
        const auto at = to.claim(n);
        if (!at) return static_cast<std::uint32_t>(to.size);
        std::memcpy(to.base + *at * bytes, from, n * bytes);
        return *at;
    }

    const typename PT::View& v_;
    std::vector<std::uint32_t> placed_;  // source run start -> packed index
    Section nodes_;
    Section leaves_;
    Section leaves8_;
};

}  // namespace

std::uint64_t image_checksum(const void* data, std::size_t n) noexcept
{
    return sum_words(kSeed, static_cast<const std::uint8_t*>(data), n);
}

// ---------------------------------------------------------------------------
// Writer

template <class Addr>
Image serialize(const poptrie::Poptrie<Addr>& fib)
{
    using Node = typename poptrie::Poptrie<Addr>::Node;
    const poptrie::Config& cfg = fib.config();
    const auto view = fib.pools().view(cfg);
    const poptrie::Stats stats = fib.stats();

    ImageHeader hdr;
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.format_version = kFormatVersion;
    hdr.endian_tag = kEndianTag;
    hdr.header_bytes = sizeof(ImageHeader);
    hdr.family_width = Addr::kWidth;
    hdr.node_bytes = sizeof(Node);
    hdr.leaf_bytes = sizeof(rib::NextHop);
    hdr.direct_bits = static_cast<std::uint8_t>(cfg.direct_bits);
    hdr.leaf_compression = cfg.leaf_compression ? 1 : 0;
    hdr.route_aggregation = cfg.route_aggregation ? 1 : 0;
    hdr.leaf_dict_enabled = cfg.leaf_dict ? 1 : 0;
    hdr.node_count = stats.internal_nodes;
    hdr.leaf_count = stats.leaves - stats.leaf8_slots;
    hdr.direct_count = view.direct_count;
    hdr.leaf8_count = stats.leaf8_bytes + stats.folded_bytes;
    hdr.leaf_dict_count = view.leaf_dict_count;
    hdr.inode_live = stats.internal_nodes;
    hdr.leaf_live = stats.leaves;
    const benchkit::Provenance prov = benchkit::provenance();
    copy_stamp(hdr.git_sha, sizeof(hdr.git_sha), prov.git_sha);
    copy_stamp(hdr.build_type, sizeof(hdr.build_type), prov.build_type);

    // Sections follow the header in kSections order, each at the next
    // kSectionAlign boundary; the image ends with the last one. The packer
    // fills the first four, the dictionary is copied, and the padding
    // before each section is zeroed: every byte is written once.
    Image out;
    std::uint64_t end = sizeof(ImageHeader);
    for (const SectionField& f : kSections<Node>) {
        SectionDesc& s = hdr.*f.desc;
        s.offset = align_up(end, kSectionAlign);
        s.bytes = hdr.*f.count * f.element_bytes;
        end = s.offset + s.bytes;
    }
    hdr.total_bytes = end;
    out.resize(static_cast<std::size_t>(hdr.total_bytes));
    end = sizeof(ImageHeader);
    for (const SectionField& f : kSections<Node>) {
        const SectionDesc& s = hdr.*f.desc;
        std::memset(out.data() + end, 0, static_cast<std::size_t>(s.offset - end));
        end = s.offset + s.bytes;
    }
    if (hdr.leaf_dict.bytes != 0)
        std::memcpy(out.data() + hdr.leaf_dict.offset, view.leaf_dict,
                    static_cast<std::size_t>(hdr.leaf_dict.bytes));
    DensePacker<Addr>(view, hdr, out.data());
    hdr = with_checksums<Node>(out.data(), hdr);
    hdr.header_checksum = image_checksum(&hdr, sizeof(hdr));
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
}

namespace {

/// Writes `image` to `path` durably: a temp file beside it, fsync'ed, then
/// renamed over `path`, then the directory fsync'ed so the rename itself
/// survives a power loss. Any failure removes the temp file and throws.
void write_durably(const Image& image, const std::string& path)
{
    const std::string tmp = path + ".tmp";
    const auto fail = [&](const std::string& what, int fd) {
        const int err = errno;
        if (fd >= 0) ::close(fd);
        ::unlink(tmp.c_str());
        throw ImageIoError("snapshot: " + what + ": " + std::generic_category().message(err));
    };
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) fail("cannot open '" + tmp + "' for writing", -1);
    std::size_t done = 0;
    while (done < image.size()) {
        const ssize_t n = ::write(fd, image.data() + done, image.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) fail("write to '" + tmp + "' failed", fd);
        done += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) fail("cannot flush '" + tmp + "'", fd);
    if (::close(fd) != 0) fail("cannot close '" + tmp + "'", -1);
    if (::rename(tmp.c_str(), path.c_str()) != 0)
        fail("cannot rename '" + tmp + "' to '" + path + "'", -1);
    // The new image is in place; this only makes the rename durable.
    const auto slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd < 0 || ::fsync(dfd) != 0) {
        const int err = errno;
        if (dfd >= 0) ::close(dfd);
        throw ImageIoError("snapshot: cannot flush directory '" + dir + "': " +
                           std::generic_category().message(err));
    }
    ::close(dfd);
}

}  // namespace

template <class Addr>
void save(const poptrie::Poptrie<Addr>& fib, const std::string& path)
{
    write_durably(serialize(fib), path);
}

// ---------------------------------------------------------------------------
// Loader

ImageHeader read_header(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) throw ImageIoError("snapshot: cannot open '" + path + "'");
    ImageHeader hdr;
    f.read(reinterpret_cast<char*>(&hdr), sizeof(hdr));
    if (f.gcount() != static_cast<std::streamsize>(sizeof(hdr)))
        throw ImageError("truncated snapshot image: shorter than its header");
    validate_header_common(hdr);
    return hdr;
}

template <class Addr>
void SnapshotFib<Addr>::attach(const std::uint8_t* base, std::size_t size)
{
    if (size < sizeof(ImageHeader))
        throw ImageError("truncated snapshot image: shorter than its header");
    std::memcpy(&hdr_, base, sizeof(hdr_));
    validate_header_common(hdr_);
    if (hdr_.family_width != Addr::kWidth)
        throw ImageError("address family mismatch: image is " +
                         std::to_string(hdr_.family_width) + "-bit, loader expects " +
                         std::to_string(Addr::kWidth) + "-bit");
    if (hdr_.node_bytes != sizeof(Node) || hdr_.leaf_bytes != sizeof(NextHop))
        throw ImageError("node/leaf element layout mismatch");
    if (hdr_.total_bytes != size)
        throw ImageError("truncated snapshot image: " + std::to_string(size) +
                         " bytes on disk, header says " + std::to_string(hdr_.total_bytes));
    if (!poptrie::valid_config(config(), Addr::kWidth))
        throw ImageError("invalid configuration echo");
    const std::uint64_t want_direct =
        hdr_.direct_bits != 0 ? std::uint64_t{1} << hdr_.direct_bits : 0;
    if (hdr_.direct_count != want_direct)
        throw ImageError("direct section count inconsistent with direct_bits");
    // Sections must also be disjoint and in writer order; anything else is a
    // forged layout even if each section is individually in bounds.
    std::uint64_t end = hdr_.header_bytes;
    for (const SectionField& f : kSections<Node>) {
        const SectionDesc& s = hdr_.*f.desc;
        const std::uint64_t count = hdr_.*f.count;
        const std::string what = f.name;
        // Counts are bounded first so the product below cannot overflow:
        // pool indices are 32-bit, so anything larger is corrupt regardless.
        if (count > std::numeric_limits<std::uint32_t>::max())
            throw ImageError(what + " section count out of range");
        if (s.bytes != count * f.element_bytes)
            throw ImageError(what + " section size inconsistent with its count");
        if (s.offset % kSectionAlign != 0) throw ImageError(what + " section misaligned");
        if (s.offset > size || s.bytes > size - s.offset)
            throw ImageError(what + " section out of image bounds");
        if (s.offset < end) throw ImageError("snapshot sections overlap");
        end = s.offset + s.bytes;
    }
    // A dictionary past the 8-bit code space, or codes with no dictionary to
    // decode through, cannot have come from the writer.
    if (hdr_.leaf_dict_count > 256)
        throw ImageError("leaf dictionary exceeds the 8-bit code space");
    if (hdr_.leaf8_count != 0 && hdr_.leaf_dict_count == 0)
        throw ImageError("dict-coded leaves present but the dictionary is empty");
    if (hdr_.direct_bits == 0 &&
        (hdr_.node_count == 0 || hdr_.root_index >= hdr_.node_count))
        throw ImageError("root index out of range");
    const ImageHeader want = with_checksums<Node>(base, hdr_);
    if (want.payload_checksum != hdr_.payload_checksum)
        throw ImageError("snapshot image checksum mismatch");
    for (const SectionField& f : kSections<Node>)
        if ((want.*f.desc).checksum != (hdr_.*f.desc).checksum)
            throw ImageError(std::string(f.name) + " section checksum mismatch");

    view_ = {reinterpret_cast<const Node*>(base + hdr_.nodes.offset),
             reinterpret_cast<const NextHop*>(base + hdr_.leaves.offset),
             reinterpret_cast<const std::uint32_t*>(base + hdr_.direct.offset),
             hdr_.root_index,
             hdr_.direct_bits,
             hdr_.leaf_compression != 0,
             base + hdr_.leaves8.offset,
             reinterpret_cast<const NextHop*>(base + hdr_.leaf_dict.offset),
             hdr_.node_count,
             hdr_.leaf_count,
             hdr_.direct_count,
             hdr_.leaf8_count,
             hdr_.leaf_dict_count};
}

template <class Addr>
SnapshotFib<Addr> SnapshotFib<Addr>::load_file(const std::string& path, const LoadOptions& opt)
{
    SnapshotFib fib;
    Mapping& m = *fib.mapping_;
    if (opt.placement != LoadOptions::Placement::kCopy) {
        m.block = m.arena.map_file(path);
        if (m.block.ptr != nullptr) {
            // Validation errors propagate (a corrupt image must be reported,
            // not silently re-read); only a failed *mapping* falls back.
            fib.attach(static_cast<const std::uint8_t*>(m.block.ptr), m.block.committed);
            return fib;
        }
    }
    std::ifstream f(path, std::ios::binary);
    if (!f) throw ImageIoError("snapshot: cannot open '" + path + "'");
    f.seekg(0, std::ios::end);
    const std::streamoff end = f.tellg();
    f.seekg(0, std::ios::beg);
    if (end <= 0) throw ImageError("truncated snapshot image: empty file");
    const auto size = static_cast<std::size_t>(end);
    m.block = m.arena.map(size);
    f.read(static_cast<char*>(m.block.ptr), static_cast<std::streamsize>(size));
    if (f.gcount() != static_cast<std::streamsize>(size))
        throw ImageIoError("snapshot: short read from '" + path + "'");
    fib.attach(static_cast<const std::uint8_t*>(m.block.ptr), size);
    return fib;
}

template <class Addr>
SnapshotFib<Addr> SnapshotFib<Addr>::load_buffer(const std::uint8_t* data, std::size_t size)
{
    SnapshotFib fib;
    if (size == 0) throw ImageError("truncated snapshot image: empty buffer");
    Mapping& m = *fib.mapping_;
    m.block = m.arena.map(size);
    std::memcpy(m.block.ptr, data, size);
    fib.attach(static_cast<const std::uint8_t*>(m.block.ptr), size);
    return fib;
}

template <class Addr>
poptrie::Config SnapshotFib<Addr>::config() const noexcept
{
    poptrie::Config cfg;
    cfg.direct_bits = hdr_.direct_bits;
    cfg.leaf_compression = hdr_.leaf_compression != 0;
    cfg.route_aggregation = hdr_.route_aggregation != 0;
    cfg.leaf_dict = hdr_.leaf_dict_enabled != 0;
    return cfg;
}

template class SnapshotFib<netbase::Ipv4Addr>;
template class SnapshotFib<netbase::Ipv6Addr>;
template Image serialize(const poptrie::Poptrie<netbase::Ipv4Addr>&);
template Image serialize(const poptrie::Poptrie<netbase::Ipv6Addr>&);
template void save(const poptrie::Poptrie<netbase::Ipv4Addr>&, const std::string&);
template void save(const poptrie::Poptrie<netbase::Ipv6Addr>&, const std::string&);

}  // namespace snapshot
