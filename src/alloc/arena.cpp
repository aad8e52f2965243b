// alloc/arena.cpp — mmap/mprotect/madvise plumbing behind the arena.
#include "alloc/arena.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <new>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace alloc {

namespace {

std::size_t round_up(std::size_t n, std::size_t align)
{
    return (n + align - 1) / align * align;
}

std::size_t base_page_size() noexcept
{
    const long ps = sysconf(_SC_PAGESIZE);
    return ps > 0 ? static_cast<std::size_t>(ps) : 4096;
}

}  // namespace

const char* backing_name(Backing b) noexcept
{
    switch (b) {
        case Backing::kThpAdvised: return "thp-advised";
        case Backing::kNormalPages: return "normal-pages";
        case Backing::kFileMapped: return "file-mapped";
    }
    return "unknown";
}

std::string thp_status()
{
    std::FILE* f = std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "re");
    if (f == nullptr) return "unavailable";
    char buf[128] = {};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    const std::string line(buf, n);
    // The active mode is bracketed: "always [madvise] never".
    const auto open = line.find('[');
    const auto close = line.find(']');
    if (open == std::string::npos || close == std::string::npos || close <= open)
        return "unavailable";
    return line.substr(open + 1, close - open - 1);
}

Arena::Block Arena::reserve(std::size_t bytes)
{
    if (bytes == 0) return {};
    const std::size_t len = round_up(bytes, base_page_size());
    // Over-reserve by one step and trim both ends, so the block starts on a
    // kCommitStep boundary and every committed step can be one huge page.
    const std::size_t span = len + kCommitStep;
    void* const raw = mmap(nullptr, span, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    auto* const base = static_cast<char*>(raw);
    const std::size_t head =
        round_up(reinterpret_cast<std::uintptr_t>(base), kCommitStep) -
        reinterpret_cast<std::uintptr_t>(base);
    if (head != 0) munmap(base, head);
    munmap(base + head + len, kCommitStep - head);
    // A refused madvise (old kernel, THP "never") just leaves base pages.
    Backing backing = Backing::kNormalPages;
#ifdef MADV_HUGEPAGE
    if (madvise(base + head, len, MADV_HUGEPAGE) == 0) backing = Backing::kThpAdvised;
#endif
    ++live_blocks_[static_cast<int>(backing)];
    return {base + head, len, 0, backing};
}

void Arena::commit(Block& block, std::size_t bytes)
{
    if (bytes <= block.committed) return;
    if (bytes > block.reserved) throw std::bad_alloc();
    const std::size_t target = std::min(round_up(bytes, kCommitStep), block.reserved);
    if (mprotect(static_cast<char*>(block.ptr) + block.committed, target - block.committed,
                 PROT_READ | PROT_WRITE) != 0)
        throw std::bad_alloc();
    live_bytes_ += target - block.committed;
    block.committed = target;
}

Arena::Block Arena::map(std::size_t bytes)
{
    Block block = reserve(bytes);
    try {
        commit(block, block.reserved);
    } catch (...) {
        unmap(block);
        throw;
    }
    return block;
}

Arena::Block Arena::map_file(const std::string& path) noexcept
{
    const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return {};
    struct stat st{};
    if (fstat(fd, &st) != 0 || st.st_size <= 0) {
        close(fd);
        return {};
    }
    const auto len = static_cast<std::size_t>(st.st_size);
    // Read-only private mapping: never written, so the page-cache pages are
    // shared with every other process mapping the same image.
    void* p = mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    close(fd);
    if (p == MAP_FAILED) return {};
    ++live_blocks_[static_cast<int>(Backing::kFileMapped)];
    live_bytes_ += len;
    return {p, len, len, Backing::kFileMapped};
}

void Arena::unmap(Block& block) noexcept
{
    if (block.ptr == nullptr) return;
    assert(live_blocks_[static_cast<int>(block.backing)] > 0);
    --live_blocks_[static_cast<int>(block.backing)];
    live_bytes_ -= block.committed;
    munmap(block.ptr, block.reserved);
    block = {};
}

MemoryReport Arena::report() const noexcept
{
    MemoryReport r;
    r.bytes_reserved = live_bytes_;
    r.page_size = base_page_size();
    // Weakest live backing: the conservative answer to "what pages is this
    // FIB on". With nothing mapped yet, plain pages.
    for (int b = 0; b < kBackingCount; ++b) {
        if (live_blocks_[b] != 0) {
            r.backing = static_cast<Backing>(b);
            break;
        }
    }
    return r;
}

}  // namespace alloc
