// poptrie/lanes.hpp — the AVX-512 batch-lookup kernel for IPv4 images
// (DESIGN.md §12).
//
// lookup_pipelined.ipp overlaps the cache misses of independent lookups with
// scalar code and software prefetch. run_avx512 is the explicit-SIMD form of
// the same walk: eight lanes held in vector registers, node words fetched
// with masked 512-bit gathers, and the paper's popcount(vector & ((2 << v) -
// 1)) evaluated lane-parallel with native vpopcntq. SnapshotFib4 serves it
// when has_avx512() reports the CPU can run it; IPv6, the live trie and CPUs
// without the extension serve the pipelined walk.
//
// Concurrency: gathers are plain loads with no acquire ordering, so the
// kernel reads through batch::PlainView and is sound only over an immutable
// structure — a SnapshotFib image. The churn path, PoptrieEngine →
// Poptrie::lookup_batch, stays on the AtomicView pipelined walk.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netbase/ipv4.hpp"
#include "poptrie/poptrie.hpp"
#include "rib/route.hpp"
#include "sync/annotations.hpp"

namespace poptrie::lanes {

/// Does the CPU report avx512f and avx512vpopcntdq? The cpuid probe runs
/// once per process; false on every non-x86-64 build.
[[nodiscard]] bool has_avx512() noexcept;

/// The IPv4 view the kernel gathers from (SnapshotFib4::view()).
using View4 = batch::PlainView<std::uint32_t,
                               poptrie::Poptrie<netbase::Ipv4Addr>::Node>;

/// Resolves `n` keys eight at a time; a tail shorter than eight takes the
/// pipelined walk. Call only when has_avx512() is true, over an immutable
/// structure (see header comment).
POPTRIE_HOT void run_avx512(const View4& view, const std::uint32_t* keys,
                            rib::NextHop* out, std::size_t n) noexcept;

}  // namespace poptrie::lanes
