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
#include <string_view>
#include <system_error>

#include "benchkit/provenance.hpp"
#include "netbase/ipv4.hpp"
#include "netbase/ipv6.hpp"

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

}  // namespace

std::uint64_t image_checksum(const void* data, std::size_t n) noexcept
{
    return sum_words(kSeed, static_cast<const std::uint8_t*>(data), n);
}

// ---------------------------------------------------------------------------
// Writer

template <class Addr>
std::vector<std::uint8_t> serialize(const poptrie::Poptrie<Addr>& fib)
{
    using Node = typename poptrie::Poptrie<Addr>::Node;
    const poptrie::Config& cfg = fib.config();
    const auto& pools = fib.pools();
    const auto view = pools.view(cfg);

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
    hdr.root_index = view.root;
    // The touched extent of each pool: every reachable index is below the
    // allocator's high-water mark, so nothing past it needs to survive. The
    // dict-coded array has no allocator — its full extent is the compaction
    // bump cursor (tagged base0 offsets are never reused, so every reachable
    // one is below its size).
    hdr.node_count = pools.node_alloc.high_water();
    hdr.leaf_count = pools.leaf_alloc.high_water();
    hdr.direct_count = view.direct_count;
    hdr.leaf8_count = view.leaf8_count;
    hdr.leaf_dict_count = view.leaf_dict_count;
    const poptrie::Stats stats = fib.stats();
    hdr.inode_live = stats.internal_nodes;
    hdr.leaf_live = stats.leaves;
    const benchkit::Provenance prov = benchkit::provenance();
    copy_stamp(hdr.git_sha, sizeof(hdr.git_sha), prov.git_sha);
    copy_stamp(hdr.build_type, sizeof(hdr.build_type), prov.build_type);

    // Sections follow the header in kSections order, each at the next
    // kSectionAlign boundary; the image ends with the last one.
    const void* const arrays[] = {view.nodes, view.leaves, view.direct, view.leaves8,
                                  view.leaf_dict};
    std::uint64_t end = sizeof(ImageHeader);
    for (const SectionField& f : kSections<Node>) {
        SectionDesc& s = hdr.*f.desc;
        s.offset = align_up(end, kSectionAlign);
        s.bytes = hdr.*f.count * f.element_bytes;
        end = s.offset + s.bytes;
    }
    hdr.total_bytes = end;

    std::vector<std::uint8_t> out(static_cast<std::size_t>(hdr.total_bytes), 0);
    for (std::size_t k = 0; k < std::size(arrays); ++k) {
        const SectionDesc& s = hdr.*kSections<Node>[k].desc;
        if (s.bytes != 0)
            std::memcpy(out.data() + s.offset, arrays[k], static_cast<std::size_t>(s.bytes));
    }
    hdr = with_checksums<Node>(out.data(), hdr);
    hdr.header_checksum = image_checksum(&hdr, sizeof(hdr));
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
}

namespace {

/// Writes `image` to `path` durably: a temp file beside it, fsync'ed, then
/// renamed over `path`, then the directory fsync'ed so the rename itself
/// survives a power loss. Any failure removes the temp file and throws.
void write_durably(const std::vector<std::uint8_t>& image, const std::string& path)
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
template std::vector<std::uint8_t> serialize(const poptrie::Poptrie<netbase::Ipv4Addr>&);
template std::vector<std::uint8_t> serialize(const poptrie::Poptrie<netbase::Ipv6Addr>&);
template void save(const poptrie::Poptrie<netbase::Ipv4Addr>&, const std::string&);
template void save(const poptrie::Poptrie<netbase::Ipv6Addr>&, const std::string&);

}  // namespace snapshot
