#include "sync/ebr.hpp"

#include <limits>
#include <thread>

namespace psync {

EbrDomain::Reader EbrDomain::register_reader()
{
    const MutexLock lock(reader_mutex_);
    if (!free_slots_.empty()) {
        auto* slot = free_slots_.back();
        free_slots_.pop_back();
        return Reader{this, slot};
    }
    slots_.emplace_back();
    return Reader{this, &slots_.back().epoch};
}

void EbrDomain::unregister_reader(std::atomic<std::uint64_t>* slot) noexcept
{
    // Force the slot quiescent: a Reader destroyed while formally "active"
    // (its thread died between enter() and exit()) can no longer touch the
    // structure, so pinning the epoch on its behalf would only leak memory.
    // order: release [cap:ebr] — sequences the dying section's structure reads
    // before the slot is seen free; pairs with min_active_epoch()'s scan.
    slot->store(kQuiescent, std::memory_order_release);
    const MutexLock lock(reader_mutex_);
    free_slots_.push_back(slot);
}

void EbrDomain::retire(std::function<void()> deleter)
{
    // order: relaxed [cap:ebr] — writer-thread-only read of a counter only
    // the writer advances; no cross-thread edge timestamps the retirement.
    const auto e = epoch_.load(std::memory_order_relaxed);
    limbo_.push_back({e, std::move(deleter)});
}

std::uint64_t EbrDomain::min_active_epoch() const noexcept
{
    // Pairs with the seq_cst fence in Reader::enter() (see the header's
    // Dekker argument): after this fence, any reader whose enter-fence
    // preceded ours is visible to the scan below; a reader whose enter-fence
    // follows ours will observe every pointer we published before calling
    // this, so it cannot reach the blocks we are about to free.
    fence_seq_cst();
    std::uint64_t min_epoch = std::numeric_limits<std::uint64_t>::max();
    const MutexLock lock(reader_mutex_);
    for (const auto& slot : slots_) {
        // order: acquire [cap:ebr] — pairs with exit()'s release: kQuiescent
        // observed means that section's reads happened-before our frees.
        const auto e = slot.epoch.load(std::memory_order_acquire);
        if (e != kQuiescent && e < min_epoch) min_epoch = e;
    }
    return min_epoch;
}

EbrDomain::Diag EbrDomain::diag() const
{
    Diag d;
    // order: relaxed [cap:ebr] — diagnostic snapshot on the writer thread;
    // the value is reported, never used to justify a free.
    d.current_epoch = epoch_.load(std::memory_order_relaxed);
    d.pending = limbo_.size();
    if (!limbo_.empty()) {
        d.oldest_retired_epoch = limbo_.front().epoch;
        d.newest_retired_epoch = limbo_.back().epoch;
        for (std::size_t i = 1; i < limbo_.size(); ++i)
            if (limbo_[i].epoch < limbo_[i - 1].epoch) d.limbo_sorted = false;
    }
    const MutexLock lock(reader_mutex_);
    d.slot_capacity = slots_.size();
    d.registered_readers = slots_.size() - free_slots_.size();
    for (const auto& slot : slots_) {
        // order: acquire [cap:ebr] — same pairing as min_active_epoch()'s
        // scan, so the auditor's invariants hold under concurrent readers.
        const auto e = slot.epoch.load(std::memory_order_acquire);
        if (e != kQuiescent && (!d.min_active_epoch || e < *d.min_active_epoch))
            d.min_active_epoch = e;
    }
    return d;
}

std::size_t EbrDomain::try_reclaim()
{
    // Advance first so that objects retired under the old epoch become
    // reclaimable as soon as current readers (who saw at most the old epoch)
    // leave.
    // order: acq_rel [cap:ebr] — release keeps the bump after the retirements
    // it covers; acquire keeps the single-edge RMW pairing with enter().
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    const auto min_active = min_active_epoch();
    std::size_t freed = 0;
    while (!limbo_.empty() && limbo_.front().epoch < min_active) {
        limbo_.front().deleter();
        limbo_.pop_front();
        ++freed;
    }
    return freed;
}

void EbrDomain::drain()
{
    while (!limbo_.empty()) {
        if (try_reclaim() == 0) std::this_thread::yield();
    }
}

}  // namespace psync
