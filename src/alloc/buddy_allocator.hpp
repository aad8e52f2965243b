// alloc/buddy_allocator.hpp — index-based buddy memory allocator.
//
// Poptrie stores internal nodes and leaves in two flat arrays and refers to
// children by 32-bit *indices* (base0/base1), so its allocator must hand out
// contiguous runs of array slots, not pointers. This is the classic buddy
// system (Knowlton 1965), which the paper names as the allocator managing the
// node and leaf arrays; its power-of-two coalescing is what keeps incremental
// update (§3.5) from fragmenting the arrays.
//
// The allocator is a control-path structure: it is consulted on build and on
// route update, never during lookup, so the per-order ordered free lists
// favour clarity and strong invariants over nanosecond alloc cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "netbase/structural_limit.hpp"

namespace alloc {

/// Allocates contiguous runs of slots out of a pool of `capacity()` slots.
/// Run sizes are rounded up to powers of two internally; `free` must be given
/// the same count that was passed to `allocate`.
class BuddyAllocator {
public:
    using index_type = std::uint32_t;

    /// Largest capacity the allocator will manage: 2^31 slots. The pools it
    /// serves refer to slots through 32-bit indices whose MSB is reserved as
    /// a tag (poptrie's kDirectLeafBit / kLeaf8Bit), so every index must stay
    /// below bit 31. Poptrie's pool sets are created at exactly this
    /// capacity, over storage reserved for it, so they never grow.
    static constexpr index_type kMaxCapacity = index_type{1} << 31;

    /// Creates an allocator over `capacity` slots, rounded up to a power of
    /// two (minimum 1). Throws netbase::StructuralLimit above kMaxCapacity.
    explicit BuddyAllocator(index_type capacity);

    /// Allocates a contiguous run of at least `count` slots (count >= 1).
    /// Returns the index of the first slot, or nullopt if the pool cannot
    /// satisfy the request.
    [[nodiscard]] std::optional<index_type> allocate(index_type count);

    /// Returns the run starting at `offset` that was allocated with the same
    /// `count`. Freeing an unallocated or mismatched run is a programming
    /// error and asserts in debug builds.
    void free(index_type offset, index_type count);

    /// Marks the specific block [offset, offset + block_size_for(count)) as
    /// allocated, splitting the containing free block as needed. `offset`
    /// must be aligned to the rounded block size. Returns false (allocator
    /// unchanged) if the block is not entirely free. Used by the compaction
    /// pass to rebuild an allocator that exactly describes a bump-laid-out
    /// pool; `free(offset, count)` releases it like any allocation.
    [[nodiscard]] bool reserve(index_type offset, index_type count);

    /// Total slots managed (always a power of two).
    [[nodiscard]] index_type capacity() const noexcept { return capacity_; }

    /// Slots currently handed out (in rounded power-of-two units).
    [[nodiscard]] index_type used() const noexcept { return used_; }

    /// Largest run currently allocatable, 0 if the pool is full.
    [[nodiscard]] index_type largest_free_run() const noexcept;

    /// Number of blocks on the free lists. Together with largest_free_run()
    /// this is the fragmentation signal Poptrie::Stats exposes: a fresh or
    /// freshly-compacted pool has O(log capacity) free blocks, a churned one
    /// accumulates many small ones.
    [[nodiscard]] std::size_t free_block_count() const noexcept;

    /// One past the highest slot ever handed out (by allocate or reserve);
    /// never decreases. The touched extent of the backing array.
    [[nodiscard]] index_type high_water() const noexcept { return high_water_; }

    /// True if every slot is free (useful as a leak check in tests).
    [[nodiscard]] bool all_free() const noexcept { return used_ == 0; }

    /// One free block, for introspection: `size` slots starting at `offset`
    /// (`size` is always a power of two and `offset` is `size`-aligned when
    /// the allocator is consistent — the auditor verifies exactly that).
    struct FreeBlock {
        index_type offset = 0;
        index_type size = 0;

        friend bool operator==(const FreeBlock&, const FreeBlock&) = default;
    };

    /// Snapshot of every free block, ordered by (size, offset). Control-path
    /// introspection for `analysis::audit_allocator` and tests; the live
    /// structure is not exposed.
    [[nodiscard]] std::vector<FreeBlock> free_blocks() const;

    /// The size in slots a request for `count` slots actually occupies
    /// (power-of-two rounding). Exposed so the auditor can reconstruct the
    /// extent of a live run from the count the client allocated with.
    [[nodiscard]] static index_type block_size_for(index_type count) noexcept
    {
        return index_type{1} << order_for(count);
    }

private:
    static unsigned order_for(index_type count) noexcept;

    // free_lists_[k] holds offsets of free blocks of size 2^k.
    std::vector<std::set<index_type>> free_lists_;
    index_type capacity_ = 0;
    index_type used_ = 0;
    index_type high_water_ = 0;
};

}  // namespace alloc
