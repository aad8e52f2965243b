#include "alloc/buddy_allocator.hpp"

#include <bit>
#include <cassert>
#include <string>

namespace alloc {

BuddyAllocator::BuddyAllocator(index_type capacity)
{
    if (capacity > kMaxCapacity)
        throw netbase::StructuralLimit(
            "buddy allocator: requested capacity " + std::to_string(capacity) +
            " exceeds the 2^31 slot-index space");
    capacity_ = std::bit_ceil(capacity == 0 ? index_type{1} : capacity);
    const unsigned top = order_for(capacity_);
    free_lists_.resize(top + 1);
    free_lists_[top].insert(0);
}

unsigned BuddyAllocator::order_for(index_type count) noexcept
{
    assert(count >= 1);
    return static_cast<unsigned>(std::bit_width(std::bit_ceil(count)) - 1);
}

std::optional<BuddyAllocator::index_type> BuddyAllocator::allocate(index_type count)
{
    if (count == 0 || std::bit_ceil(count) > capacity_) return std::nullopt;
    const unsigned want = order_for(count);

    // Find the smallest free block that fits.
    unsigned k = want;
    while (k < free_lists_.size() && free_lists_[k].empty()) ++k;
    if (k >= free_lists_.size()) return std::nullopt;

    index_type offset = *free_lists_[k].begin();
    free_lists_[k].erase(free_lists_[k].begin());

    // Split down to the requested order, returning the upper halves.
    while (k > want) {
        --k;
        free_lists_[k].insert(offset + (index_type{1} << k));
    }
    used_ += index_type{1} << want;
    if (offset + (index_type{1} << want) > high_water_)
        high_water_ = offset + (index_type{1} << want);
    return offset;
}

void BuddyAllocator::free(index_type offset, index_type count)
{
    assert(count >= 1);
    unsigned k = order_for(count);
    assert(offset % (index_type{1} << k) == 0 && "misaligned free");
    assert(offset + (index_type{1} << k) <= capacity_);
    used_ -= index_type{1} << k;

    // Coalesce with the buddy while it is free.
    while (k + 1 < free_lists_.size()) {
        const index_type buddy = offset ^ (index_type{1} << k);
        const auto it = free_lists_[k].find(buddy);
        if (it == free_lists_[k].end()) break;
        free_lists_[k].erase(it);
        offset &= ~(index_type{1} << k);  // merged block starts at the lower buddy
        ++k;
    }
    assert(!free_lists_[k].contains(offset) && "double free");
    free_lists_[k].insert(offset);
}

std::vector<BuddyAllocator::FreeBlock> BuddyAllocator::free_blocks() const
{
    std::vector<FreeBlock> out;
    for (unsigned k = 0; k < free_lists_.size(); ++k)
        for (const index_type offset : free_lists_[k])
            out.push_back({offset, index_type{1} << k});
    return out;
}

std::size_t BuddyAllocator::free_block_count() const noexcept
{
    std::size_t n = 0;
    for (const auto& list : free_lists_) n += list.size();
    return n;
}

BuddyAllocator::index_type BuddyAllocator::largest_free_run() const noexcept
{
    for (auto k = free_lists_.size(); k-- > 0;)
        if (!free_lists_[k].empty()) return index_type{1} << k;
    return 0;
}

}  // namespace alloc
