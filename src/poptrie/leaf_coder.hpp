// poptrie/leaf_coder.hpp — the dictionary coder behind Config::leaf_dict,
// driven by the emitter (builder.ipp) that the constructors' compile and
// compact() share.
//
// A coder appends each leaf run it is handed to a dense 8-bit code array,
// back to back in the order it is handed them, numbering the distinct next
// hops in the order it first meets them. A folded run (config.hpp's
// kFoldedBit) is a childless root's 8-byte leafvec followed by its codes.
// finish() sorts the dictionary and renumbers the array in one pass, so the
// codes ascend with value and the dictionary holds exactly the values the
// coded runs use. It writes the folded runs' leafvecs after that pass, so
// no leafvec byte is ever renumbered. A 257th distinct value throws
// LeafCoder::Overflow, so the emitter stops its coded pass there and lays
// the FIB out again with 16-bit runs and nodes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "alloc/arena.hpp"
#include "alloc/buddy_allocator.hpp"
#include "netbase/structural_limit.hpp"
#include "poptrie/config.hpp"
#include "rib/route.hpp"

namespace poptrie::detail {

class LeafCoder {
public:
    using CodePool = alloc::ArenaVector<std::uint8_t>;
    using DictPool = alloc::ArenaVector<rib::NextHop>;

    /// Thrown by place() when the runs hold more than 256 distinct values.
    struct Overflow {};

    /// Codes runs into `codes`, which must start empty.
    explicit LeafCoder(CodePool& codes) : codes_(&codes) {}

    /// Appends the codes of `values[0, n)` (n <= 64) to the code array and
    /// returns the run's offset there. Throws Overflow, appending nothing,
    /// at the run that brings a 257th distinct value.
    std::uint32_t place(const rib::NextHop* values, std::uint32_t n)
    {
        std::uint8_t run[64];
        encode(values, n, run);
        const std::size_t at = append(n);
        std::copy(run, run + n, codes_->begin() + at);
        return static_cast<std::uint32_t>(at);
    }

    /// Appends the folded run of a childless root — `leafvec`, then the
    /// codes of `values[0, n)` — and returns its byte offset, or nothing
    /// (appending nothing) when the run would start at or past 2^30, which
    /// a direct slot cannot address. Throws Overflow like place().
    std::optional<std::uint32_t> fold(std::uint64_t leafvec, const rib::NextHop* values,
                                      std::uint32_t n)
    {
        if (codes_->size() > kFoldedOffsetMask) return std::nullopt;
        std::uint8_t run[64];
        encode(values, n, run);
        const std::size_t at = append(sizeof leafvec + n);
        std::copy(run, run + n, codes_->begin() + at + sizeof leafvec);
        folded_.emplace_back(static_cast<std::uint32_t>(at), leafvec);
        return static_cast<std::uint32_t>(at);
    }

    /// Folded runs placed so far.
    [[nodiscard]] std::size_t folded() const noexcept { return folded_.size(); }

    /// Writes the dictionary into the empty `dict` in ascending value order,
    /// renumbers the codes to match, then writes the folded runs' leafvecs.
    void finish(DictPool& dict)
    {
        std::array<std::uint8_t, 256> by_value{};  // ascending rank -> first-met code
        std::iota(by_value.begin(), by_value.begin() + count_, std::uint8_t{0});
        std::sort(by_value.begin(), by_value.begin() + count_,
                  [&](std::uint8_t a, std::uint8_t b) { return values_[a] < values_[b]; });
        std::array<std::uint8_t, 256> renumber{};  // first-met code -> ascending rank
        bool in_order = true;
        dict.resize(count_);
        for (std::size_t rank = 0; rank < count_; ++rank) {
            dict[rank] = values_[by_value[rank]];
            renumber[by_value[rank]] = static_cast<std::uint8_t>(rank);
            in_order = in_order && by_value[rank] == rank;
        }
        if (!in_order)
            for (std::uint8_t& c : *codes_) c = renumber[c];
        for (const auto& [at, leafvec] : folded_)
            std::memcpy(codes_->data() + at, &leafvec, sizeof leafvec);
    }

private:
    /// The first-met codes of `values[0, n)` into `run`.
    void encode(const rib::NextHop* values, std::uint32_t n, std::uint8_t* run)
    {
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint16_t& code = code_of_[values[i]];
            if (code == 0) {
                if (count_ == values_.size()) throw Overflow{};
                values_[count_] = values[i];
                code = static_cast<std::uint16_t>(++count_);
            }
            run[i] = static_cast<std::uint8_t>(code - 1);
        }
    }

    /// Grows the code array by `n` bytes and returns where they start. The
    /// bytes are 0 until written, a valid first-met code for finish().
    std::size_t append(std::size_t n)
    {
        const std::size_t at = codes_->size();
        if (at + n >= alloc::BuddyAllocator::kMaxCapacity)
            throw netbase::StructuralLimit(
                "poptrie: the leaf code array's 2^31-slot index space is exhausted");
        // The walk reads a code with a 16-bit load (batch::decode_leaf), so
        // one byte past the last code stays committed.
        codes_->reserve(at + n + 1);
        codes_->resize(at + n);
        return at;
    }

    CodePool* codes_;
    // Folded runs placed: byte offset -> the leafvec finish() writes there.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> folded_;
    // Next hop -> its code + 1; 0 while the value has not been met.
    std::unique_ptr<std::uint16_t[]> code_of_ = std::make_unique<std::uint16_t[]>(1u << 16);
    std::array<rib::NextHop, 256> values_{};  // first-met code -> next hop
    std::size_t count_ = 0;
};

}  // namespace poptrie::detail
