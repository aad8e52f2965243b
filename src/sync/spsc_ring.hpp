// sync/spsc_ring.hpp — fixed-capacity lock-free single-producer /
// single-consumer ring queue, the sharding primitive of the dataplane.
//
// One ring connects exactly one producer thread (the packet source) to one
// consumer thread (a ForwardingWorker); a dataplane with N workers uses N
// rings rather than one shared MPMC queue, so the hot path has no CAS loops
// and no shared write contention at all. The design is the classic
// Lamport/liblfds layout with two refinements the forwarding workload wants:
//
//   * head and tail live on separate cache lines (and away from the buffer),
//     so the producer's tail stores never invalidate the consumer's head
//     line ("false sharing" is the dominant SPSC cost on x86);
//   * each side keeps a *cached* copy of the other side's index and only
//     re-reads the shared atomic when the cached value says the ring looks
//     full/empty — in steady state, batch push/pop touch a shared line once
//     per batch, not once per element.
//
// Indices are free-running 64-bit counters (masked on access), so full/empty
// are distinguishable without a wasted slot and wraparound is exercised only
// through the mask, never through index overflow in any realistic run.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sync/annotations.hpp"

namespace psync {

/// Hardware cache-line size used for padding. std::hardware_destructive_
/// interference_size is not universally implemented; 64 covers x86/arm64.
inline constexpr std::size_t kCacheLine = 64;

/// Role tag types for the ring's two ends (one instance of each lives in
/// every SpscRing). Statically modelling "I am the producer thread" /
/// "I am the consumer thread" as capabilities lets the analysis reject a
/// pop() from the producer side (or any third thread) at compile time.
class POPTRIE_CAPABILITY("spsc-producer") SpscProducerRole {};
class POPTRIE_CAPABILITY("spsc-consumer") SpscConsumerRole {};

/// Lock-free SPSC ring of trivially copyable items.
///
/// Thread contract: push()/try_push() from one producer thread only,
/// pop()/try_pop() from one consumer thread only — claim the role with a
/// ProducerToken / ConsumerToken (below) for the duration of the burst.
/// size()/capacity() are safe anywhere but size() is a racy snapshot when
/// both sides are live.
template <class T>
class SpscRing {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring items are copied with memcpy in batches");

public:
    /// Capacity is rounded up to a power of two (masked indexing).
    explicit SpscRing(std::size_t min_capacity)
        : mask_(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity) - 1),
          buf_(mask_ + 1)
    {
    }

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

    /// Racy snapshot of the element count (exact when one side is idle).
    [[nodiscard]] std::size_t size() const noexcept
    {
        // order: relaxed (both loads) [cap:ring] — diagnostic snapshot only;
        // it never justifies a buffer access, so no release pairing is needed.
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        return t - head_.load(std::memory_order_relaxed);  // order: above [cap:ring]
    }

    [[nodiscard]] bool empty() const noexcept { return size() == 0; }

    /// Producer: enqueues up to `n` items; returns how many were accepted
    /// (0..n — partial pushes happen when the ring is nearly full).
    POPTRIE_HOT std::size_t push(const T* items, std::size_t n) noexcept POPTRIE_REQUIRES(producer_role_)
    {
        // order: relaxed [cap:ring] — tail_ is producer-owned; only this
        // thread writes it, so its own last value needs no synchronization.
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        std::size_t free = capacity() - static_cast<std::size_t>(tail - head_cache_);
        if (free < n) {
            // order: acquire [cap:ring] — pairs with pop()'s release store of
            // head_: drained slots are fully read before we overwrite them.
            head_cache_ = head_.load(std::memory_order_acquire);
            free = capacity() - static_cast<std::size_t>(tail - head_cache_);
        }
        const std::size_t count = n < free ? n : free;
        // The slots from `at` are at most two runs: to the buffer's end,
        // then from slot 0.
        const std::size_t at = static_cast<std::size_t>(tail) & mask_;
        const std::size_t first = count < capacity() - at ? count : capacity() - at;
        if (first != 0) std::memcpy(&buf_[at], items, first * sizeof(T));
        if (first != count) std::memcpy(buf_.data(), items + first, (count - first) * sizeof(T));
        // order: release [cap:ring] — publishes the slot writes above to the
        // consumer's acquire load of tail_ in pop().
        tail_.store(tail + count, std::memory_order_release);
        return count;
    }

    /// Producer: single-item convenience; false when full.
    POPTRIE_HOT bool try_push(const T& item) noexcept POPTRIE_REQUIRES(producer_role_)
    {
        return push(&item, 1) == 1;
    }

    /// Consumer: dequeues up to `max` items into `out`; returns the count
    /// (0 when empty).
    POPTRIE_HOT std::size_t pop(T* out, std::size_t max) noexcept POPTRIE_REQUIRES(consumer_role_)
    {
        // order: relaxed [cap:ring] — head_ is consumer-owned; only this
        // thread writes it.
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
        if (avail == 0) {
            // order: acquire [cap:ring] — pairs with the producer's release
            // store in push(): slot contents are visible before we read them.
            tail_cache_ = tail_.load(std::memory_order_acquire);
            avail = static_cast<std::size_t>(tail_cache_ - head);
        }
        const std::size_t count = max < avail ? max : avail;
        const std::size_t at = static_cast<std::size_t>(head) & mask_;
        const std::size_t first = count < capacity() - at ? count : capacity() - at;
        if (first != 0) std::memcpy(out, &buf_[at], first * sizeof(T));
        if (first != count) std::memcpy(out + first, buf_.data(), (count - first) * sizeof(T));
        // order: release [cap:ring] — signals the producer (acquire reload in
        // push()) that the slots above are fully read and may be overwritten.
        head_.store(head + count, std::memory_order_release);
        return count;
    }

    /// Consumer: single-item convenience; false when empty.
    POPTRIE_HOT bool try_pop(T& out) noexcept POPTRIE_REQUIRES(consumer_role_)
    {
        return pop(&out, 1) == 1;
    }

    /// The role capabilities. Public so tokens and REQUIRES clauses can name
    /// them; they carry no runtime state (phantom capabilities).
    SpscProducerRole producer_role_;
    SpscConsumerRole consumer_role_;

private:
    const std::size_t mask_;

    // Consumer-advanced index, on its own line so producer stores to tail_
    // never bounce it.
    alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
    // Producer's cached view of head_ (producer-private, same line as the
    // producer's other hot state is fine).
    alignas(kCacheLine) std::uint64_t head_cache_ POPTRIE_GUARDED_BY(producer_role_) = 0;

    // Producer-advanced index.
    alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
    // Consumer's cached view of tail_ (consumer-private).
    alignas(kCacheLine) std::uint64_t tail_cache_ POPTRIE_GUARDED_BY(consumer_role_) = 0;

    alignas(kCacheLine) std::vector<T> buf_;
};

/// Scoped claim of a ring's producer end. Construct one in the (single)
/// thread that feeds the ring, for the duration of its push burst. The claim
/// is by protocol, not by lock: the dataplane assigns each ring exactly one
/// feeding thread (DESIGN.md §7), and rule R1 of check_concurrency.py keeps
/// push sites inside token scopes.
class POPTRIE_SCOPED_CAPABILITY SpscProducerToken {
public:
    template <class T>
    explicit SpscProducerToken([[maybe_unused]] SpscRing<T>& r)
        POPTRIE_ACQUIRE(r.producer_role_)
    {
    }
    ~SpscProducerToken() POPTRIE_RELEASE() {}
    SpscProducerToken(const SpscProducerToken&) = delete;
    SpscProducerToken& operator=(const SpscProducerToken&) = delete;
};

/// Scoped claim of a ring's consumer end (the worker that drains it).
class POPTRIE_SCOPED_CAPABILITY SpscConsumerToken {
public:
    template <class T>
    explicit SpscConsumerToken([[maybe_unused]] SpscRing<T>& r)
        POPTRIE_ACQUIRE(r.consumer_role_)
    {
    }
    ~SpscConsumerToken() POPTRIE_RELEASE() {}
    SpscConsumerToken(const SpscConsumerToken&) = delete;
    SpscConsumerToken& operator=(const SpscConsumerToken&) = delete;
};

}  // namespace psync
