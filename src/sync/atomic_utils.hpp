// sync/atomic_utils.hpp — helpers for the single-writer / many-reader
// publication protocol used by Poptrie's incremental update (§3.5).
//
// The updater builds replacement arrays privately, then publishes them with a
// single release store into a live field (a direct-pointing slot or a node's
// base0/base1). Readers pick the fields up with acquire loads. On x86 both
// compile to plain MOVs, so the hot lookup path pays nothing; the helpers
// exist to make the data race rules of the C++ memory model hold.
#pragma once

#include <atomic>
#include <memory>
#include <utility>

#include "sync/annotations.hpp"

namespace psync {

/// Acquire-load of a field that a concurrent updater may publish into.
/// The const_cast is confined here: std::atomic_ref requires a mutable
/// reference even for loads, but the load itself does not modify `loc`.
template <class T>
[[nodiscard]] inline T load_acquire(const T& loc) noexcept
{
    // order: acquire [cap:fib] — pairs with store_release(); everything the
    // updater wrote before publishing is visible once this load observes it.
    return std::atomic_ref<T>(const_cast<T&>(loc)).load(std::memory_order_acquire);
}

/// Relaxed load for fields only read together with an acquire-loaded index
/// (the data dependency orders the accesses on all supported targets, and the
/// preceding acquire covers the formal model).
template <class T>
[[nodiscard]] inline T load_relaxed(const T& loc) noexcept
{
    // order: relaxed [cap:fib] — callers reach this field through an index
    // obtained by a preceding load_acquire, which provides the ordering.
    return std::atomic_ref<T>(const_cast<T&>(loc)).load(std::memory_order_relaxed);
}

/// Release-store publication of a replacement index/value.
template <class T>
inline void store_release(T& loc, T value) noexcept
{
    // order: release [cap:fib] — sequences the private construction of the
    // replacement arrays before the index swing; pairs with load_acquire().
    std::atomic_ref<T>(loc).store(value, std::memory_order_release);
}

/// Owning pointer to an object one writer replaces whole while readers
/// traverse it: §3.5's "build privately, publish with one atomic store",
/// applied to an entire structure instead of one index. Readers take the
/// pointer with load() (acquire, pairing with publish()'s release) and may
/// keep it only inside a read-side critical section; publish() hands the
/// replaced object back so the writer can retire it through EBR. The writer
/// reaches the current object through get(), a plain read: it is the only
/// thread that ever stores the pointer.
template <class T>
class Published {
public:
    explicit Published(std::unique_ptr<T> object) noexcept : object_(object.release()) {}
    Published(Published&& other) noexcept : object_(std::exchange(other.object_, nullptr)) {}
    Published& operator=(Published&&) = delete;
    Published(const Published&) = delete;
    Published& operator=(const Published&) = delete;
    ~Published() { delete object_; }

    /// Reader: the object currently published.
    POPTRIE_HOT [[nodiscard]] const T* load() const noexcept { return load_acquire(object_); }

    /// Writer: the object currently published.
    [[nodiscard]] T& get() noexcept { return *object_; }
    [[nodiscard]] const T& get() const noexcept { return *object_; }

    /// Writer: publishes `fresh` and returns the object it replaced, which
    /// readers may still hold until their critical sections end.
    [[nodiscard]] std::unique_ptr<T> publish(std::unique_ptr<T> fresh) noexcept
    {
        std::unique_ptr<T> replaced{object_};
        store_release(object_, fresh.release());
        return replaced;
    }

private:
    T* object_;
};

}  // namespace psync
