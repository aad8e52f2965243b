// alloc/arena.hpp — page-aligned arena backing the FIB's flat arrays.
//
// Poptrie's performance argument (§3.1, §4.4) is that the whole FIB is small
// and contiguous enough to live in cache — but the *TLB* sees page-sized
// chunks, and a 1 MiB direct-pointing array on 4 KiB pages alone costs 256
// TLB entries before a single node is touched. This arena maps the node,
// leaf, and direct arrays with mmap and advises the kernel to back them with
// transparent huge pages (madvise(MADV_HUGEPAGE); silently base pages where
// THP is off).
//
// Each array reserves its maximum extent once, as one inaccessible mapping
// that starts on a 2 MiB boundary, and commits pages in place (mprotect) as
// it grows, kCommitStep bytes at a time. Its storage therefore never moves:
// a reader that loaded data() may keep using it while the single writer
// grows the array, which is what makes §3.5's "updates never disturb
// readers" a property of the memory layer rather than a sizing rule. The
// reservation is address space only; the arena accounts committed bytes.
//
// The backing *actually obtained* is recorded per block and aggregated into
// a MemoryReport (the weakest live backing wins), which benchkit stamps into
// bench provenance so hugepage and non-hugepage runs are distinguishable.
//
// ArenaVector<T> is the minimal std::vector replacement the pools need:
// trivially-copyable elements, a fixed maximum size, zero-fill on resize.
// Growing never moves the elements, so a reader may index the vector while
// the writer resizes it, provided it reads only indices the writer published
// before (the pools publish with release stores; sync/atomic_utils.hpp).
// Shrinking and destruction are the owner's business: the Poptrie pool sets
// never shrink a pool and retire whole sets through EBR.
#pragma once

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "sync/annotations.hpp"

namespace alloc {

/// What actually backs a mapped block, weakest to strongest.
enum class Backing {
    kFileMapped,   ///< read-only mmap of an on-disk image (snapshot restore)
    kNormalPages,  ///< anonymous mmap, base page size
    kThpAdvised,   ///< anonymous mmap + MADV_HUGEPAGE accepted by the kernel
};

/// Number of Backing enumerators (sizes the per-backing accounting).
inline constexpr int kBackingCount = 3;

/// Granularity of a commit, and the alignment of every reservation: one
/// x86-64/aarch64 huge page, so THP can back each committed step whole.
inline constexpr std::size_t kCommitStep = std::size_t{2} << 20;

/// Stable lowercase name for provenance / logs ("thp-advised",
/// "normal-pages", "file-mapped").
[[nodiscard]] const char* backing_name(Backing b) noexcept;

/// Aggregate view of an arena's live mappings.
struct MemoryReport {
    Backing backing = Backing::kNormalPages;  ///< weakest backing among live blocks
    std::size_t page_size = 0;                ///< base page size, bytes
    /// Bytes committed (readable anonymous pages plus file mappings). The
    /// inaccessible rest of each reservation is address space, not memory,
    /// and is not counted.
    std::size_t bytes_reserved = 0;
};

/// The kernel's transparent-hugepage mode: the bracketed token of
/// /sys/kernel/mm/transparent_hugepage/enabled ("always", "madvise",
/// "never"), or "unavailable" when the file cannot be read.
[[nodiscard]] std::string thp_status();

/// Owns the mappings and accounts for the blocks handed out. Blocks are held
/// by ArenaVectors, which return them via unmap(); the arena must outlive
/// every vector it backs (Poptrie keeps it in a unique_ptr declared before
/// the pools for exactly that reason).
class Arena {
public:
    /// One mapping: `reserved` bytes of address space at `ptr`, of which the
    /// first `committed` are readable and writable (all of them, read-only,
    /// for a file mapping).
    struct Block {
        void* ptr = nullptr;
        std::size_t reserved = 0;
        std::size_t committed = 0;
        Backing backing = Backing::kNormalPages;
    };

    Arena() noexcept = default;
    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;
    ~Arena() = default;

    /// Reserves `bytes` of address space (page-rounded up) starting on a
    /// kCommitStep boundary, inaccessible until commit(). Zero bytes give an
    /// empty block and no mapping. Throws std::bad_alloc when the kernel
    /// refuses the reservation (RLIMIT_AS, address-space exhaustion).
    [[nodiscard]] Block reserve(std::size_t bytes);

    /// Makes at least the first `bytes` of `block` readable and writable, in
    /// whole kCommitStep steps capped at the reservation. Committed pages
    /// read as zero until written; the block never moves. Throws
    /// std::bad_alloc, leaving `block` unchanged, when `bytes` exceeds the
    /// reservation or the kernel refuses (ENOMEM: overcommit, RLIMIT_DATA).
    void commit(Block& block, std::size_t bytes);

    /// reserve() and commit() in one: a zero-filled block of at least
    /// `bytes` writable bytes (the snapshot copy-in path).
    [[nodiscard]] Block map(std::size_t bytes);

    /// Maps an existing file read-only in its entirety (Backing::kFileMapped,
    /// for snapshot warm start — the pages stay in the page cache and are
    /// shared across processes mapping the same image). A null block means
    /// the file could not be opened or mapped, and the caller falls back to
    /// copy-in via map().
    [[nodiscard]] Block map_file(const std::string& path) noexcept;

    /// Returns a block obtained from reserve(), map() or map_file(). Safe on
    /// empty blocks.
    void unmap(Block& block) noexcept;

    [[nodiscard]] MemoryReport report() const noexcept;

private:
    // Live block counts per Backing enumerator, for report().
    std::size_t live_blocks_[kBackingCount] = {};
    std::size_t live_bytes_ = 0;
};

/// Flat array of trivially-copyable elements in arena-backed storage that
/// never moves. Only the surface Poptrie's pools use: size/capacity, element
/// access, resize (zero-fills growth, like value-initialising std::vector),
/// assign.
template <class T>
class ArenaVector {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ArenaVector zero-fills with memset; elements must be trivially copyable");

public:
    ArenaVector() noexcept = default;
    /// Reserves room for `max_size` elements and commits none; data() is
    /// fixed from here until destruction. Throws std::bad_alloc when the
    /// reservation is refused.
    ArenaVector(Arena* arena, std::size_t max_size)
        : arena_(arena), block_(arena->reserve(max_size * sizeof(T)))
    {
    }
    ArenaVector(ArenaVector&& other) noexcept
        : arena_(other.arena_), block_(other.block_), size_(other.size_)
    {
        other.block_ = {};
        other.size_ = 0;
    }
    ArenaVector& operator=(ArenaVector&& other) noexcept
    {
        if (this != &other) {
            release();
            arena_ = other.arena_;
            block_ = other.block_;
            size_ = other.size_;
            other.block_ = {};
            other.size_ = 0;
        }
        return *this;
    }
    ArenaVector(const ArenaVector&) = delete;
    ArenaVector& operator=(const ArenaVector&) = delete;
    ~ArenaVector() { release(); }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// Elements that fit in the committed pages.
    [[nodiscard]] std::size_t capacity() const noexcept { return block_.committed / sizeof(T); }
    /// Elements that fit in the reservation; resize() past it throws.
    [[nodiscard]] std::size_t max_size() const noexcept { return block_.reserved / sizeof(T); }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    POPTRIE_HOT [[nodiscard]] T* data() noexcept { return static_cast<T*>(block_.ptr); }
    POPTRIE_HOT [[nodiscard]] const T* data() const noexcept
    {
        return static_cast<const T*>(block_.ptr);
    }
    [[nodiscard]] T* begin() noexcept { return data(); }
    [[nodiscard]] T* end() noexcept { return data() + size_; }
    [[nodiscard]] const T* begin() const noexcept { return data(); }
    [[nodiscard]] const T* end() const noexcept { return data() + size_; }
    POPTRIE_HOT [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
    POPTRIE_HOT [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data()[i]; }

    /// Grows or shrinks to `n` elements in place; new elements are zero
    /// bytes (all pool element types value-initialise to exactly that).
    /// Throws std::length_error past max_size() and std::bad_alloc when a
    /// commit is refused; either way the vector is unchanged.
    void resize(std::size_t n)
    {
        commit(n);
        // void* cast: T is trivially copyable (asserted above) but may have
        // default member initialisers, which -Wclass-memaccess objects to;
        // all-zero bytes IS the value-initialised state of every pool type.
        if (n > size_)
            std::memset(static_cast<void*>(data() + size_), 0, (n - size_) * sizeof(T));
        size_ = n;
    }

    /// Replaces the contents with `n` copies of `value`.
    void assign(std::size_t n, const T& value)
    {
        commit(n);
        size_ = n;
        T* p = data();
        for (std::size_t i = 0; i < n; ++i) p[i] = value;
    }

private:
    void commit(std::size_t n)
    {
        if (n > max_size())
            throw std::length_error("alloc::ArenaVector: " + std::to_string(n) +
                                    " elements exceed the reserved " +
                                    std::to_string(max_size()));
        if (n > capacity()) arena_->commit(block_, n * sizeof(T));
    }

    void release() noexcept
    {
        if (arena_ != nullptr) arena_->unmap(block_);
        block_ = {};
        size_ = 0;
    }

    Arena* arena_ = nullptr;
    Arena::Block block_{};
    std::size_t size_ = 0;
};

}  // namespace alloc
