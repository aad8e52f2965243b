// poptrie/lanes.cpp — the AVX-512 batch-lookup kernel and its cpuid check.
//
// The kernel is a per-function ISA target (__attribute__((target(...))))
// rather than a file-level -mavx512f: the rest of the binary keeps the
// portable baseline (CI builds with POPTRIE_NATIVE=OFF), the cached cpuid
// check decides whether it may run, and no vector type crosses a non-target
// function boundary (which would trip -Wpsabi under -Werror).
//
// Kernel shape (8 lanes per group):
//   1. direct step — extract the top direct_bits of all 8 keys, one 32-bit
//      gather from the direct array; lanes whose slot carries the leaf flag
//      (MSB, tested as the sign bit) retire immediately.
//   2. walk steps — while any lane is active: gather the node qwords
//      (vector, base0|base1<<32) for active lanes via *masked* 64-bit
//      gathers (inactive lanes must not touch memory: an empty table has an
//      empty node pool, so even index 0 may be unmapped), compute the 6-bit
//      chunk in the 32-bit domain (vpsllvd's count>=32 -> 0 rule implements
//      chunk()'s off >= width convention for free), evaluate the paper's
//      two popcounts lane-parallel, then either descend
//      (index = base1 + popcount - 1) or retire
//      (leaf slot = base0 + popcount - 1).
//   3. retirement — leaves are 16-bit and no 16-bit gather exists, so
//      retiring lanes read leaves with scalar loads; out-of-order
//      retirement means each lane pays that exactly once.
//
// No explicit prefetch: a gather *is* the memory-level parallelism — all
// eight lane loads are in flight in one instruction.
#include "poptrie/lanes.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace poptrie::lanes {

#if defined(__x86_64__)

bool has_avx512() noexcept
{
    // cpuid probes are not free; resolve the features once per process.
    static const bool has = __builtin_cpu_supports("avx512f") != 0 &&
                            __builtin_cpu_supports("avx512vpopcntdq") != 0;
    return has;
}

// GCC PR105593: the 512-bit convert/extend intrinsics pad their result with
// an undefined vector internally, and -Wmaybe-uninitialized flags that
// header-internal temporary when the kernel is inlined. False positive —
// every lane we consume is written.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace {

/// One group of 8 lookups with the whole 64-bit lane state in one zmm per
/// quantity: a single masked gather per node qword, native vpopcntq, and
/// k-register lane masks. The 6-bit chunk is still computed in the 32-bit
/// domain (vpsllvd's count >= 32 -> 0 rule is what implements chunk()'s
/// off >= width convention; the 64-bit shifter would keep real bits).
__attribute__((target("avx2,avx512f,avx512vpopcntdq"))) void lookup8_avx512(
    const View4& view, const std::uint32_t* keys, rib::NextHop* out) noexcept
{
    const auto* nodeq = reinterpret_cast<const long long*>(view.nodes);
    const __m256i k8 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys));
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one64 = _mm512_set1_epi64(1);
    const bool use_leafvec = view.leaf_compression;

    alignas(32) std::uint32_t resolved[8];
    __m512i idx;  // 8 x u64 node indices
    __m512i off;  // 8 x u64 bit offsets (k-masked update needs the 64-bit domain)
    __mmask8 active;

    if (view.direct_bits != 0) {
        const __m128i count = _mm_cvtsi32_si128(static_cast<int>(32 - view.direct_bits));
        const __m256i slot = _mm256_srl_epi32(k8, count);
        const __m256i d =
            _mm256_i32gather_epi32(reinterpret_cast<const int*>(view.direct), slot, 4);
        const __m256i leafval = _mm256_and_si256(d, _mm256_set1_epi32(0x7fffffff));
        _mm256_store_si256(reinterpret_cast<__m256i*>(resolved), leafval);
        // Sign-extend the slots to qwords; the leaf flag (MSB of the u32)
        // becomes the sign, so one 64-bit compare yields the retire mask.
        const __m512i d64 = _mm512_cvtepi32_epi64(d);
        const __mmask8 isleaf = _mm512_cmplt_epi64_mask(d64, zero);
        active = static_cast<__mmask8>(~isleaf);
        idx = d64;
        off = _mm512_set1_epi64(static_cast<long long>(view.direct_bits));
    } else {
        idx = _mm512_set1_epi64(static_cast<long long>(view.root));
        off = zero;
        active = 0xff;
    }

    while (active != 0) {
        // The chunk shift runs in the 32-bit domain: vpsllvd's count >= 32
        // -> 0 rule implements chunk()'s off >= width convention.
        const __m256i off32 = _mm512_cvtepi64_epi32(off);
        const __m256i v8 =
            _mm256_srli_epi32(_mm256_sllv_epi32(k8, off32), 26);  // 26 = 32 - kStride
        // Node i spans qwords 3i (vector), 3i+1 (leafvec), 3i+2 (base0 |
        // base1 << 32).
        const __m512i q3 = _mm512_add_epi64(_mm512_add_epi64(idx, idx), idx);
        const __m256i q3i = _mm512_cvtepi64_epi32(q3);
        const __m256i onei = _mm256_set1_epi32(1);
        const __m512i vec =
            _mm512_mask_i32gather_epi64(zero, active, q3i, nodeq, 8);
        const __m512i bases = _mm512_mask_i32gather_epi64(
            zero, active, _mm256_add_epi32(q3i, _mm256_add_epi32(onei, onei)), nodeq, 8);
        const __m512i v64 = _mm512_cvtepu32_epi64(v8);
        const __mmask8 internal = _mm512_test_epi64_mask(
                                      _mm512_srlv_epi64(vec, v64), one64) &
                                  active;
        // (2 << v) - 1 without the v == 63 overflow: ~0 >> (63 - v).
        const __m512i minc = _mm512_srlv_epi64(
            _mm512_set1_epi64(-1), _mm512_sub_epi64(_mm512_set1_epi64(63), v64));
        const __m512i pcvec = _mm512_popcnt_epi64(_mm512_and_si512(vec, minc));
        const __m512i b1 = _mm512_srli_epi64(bases, 32);
        const __m512i nidx = _mm512_sub_epi64(_mm512_add_epi64(b1, pcvec), one64);

        // Retirement runs only in rounds that retire a lane, and its leafvec
        // gather is masked down to exactly the retiring lanes — the walk
        // itself never pays for the leaf qword.
        const __mmask8 retire = static_cast<__mmask8>(active & ~internal);
        if (retire != 0) {
            const __m512i lv =
                use_leafvec
                    ? _mm512_mask_i32gather_epi64(zero, retire,
                                                  _mm256_add_epi32(q3i, onei), nodeq, 8)
                    : _mm512_xor_si512(vec, _mm512_set1_epi64(-1));
            const __m512i pclv = _mm512_popcnt_epi64(_mm512_and_si512(lv, minc));
            const __m512i b0 =
                _mm512_and_si512(bases, _mm512_set1_epi64(0xffffffffLL));
            const __m512i slot = _mm512_sub_epi64(_mm512_add_epi64(b0, pclv), one64);
            alignas(64) std::uint64_t slots[8];
            _mm512_store_si512(slots, slot);
            // view.leaf() decodes the kLeaf8Bit tag, which flowed through
            // the 64-bit base0 arithmetic unchanged (bit 31 survives the
            // 0xffffffff mask).
            for (int l = 0; l < 8; ++l)
                if ((retire >> l) & 1)
                    resolved[l] = view.leaf(static_cast<std::uint32_t>(slots[l]));
        }

        idx = _mm512_mask_mov_epi64(idx, internal, nidx);
        off = _mm512_mask_add_epi64(off, internal, off, _mm512_set1_epi64(6));
        active = internal;
    }
    for (int l = 0; l < 8; ++l) out[l] = static_cast<rib::NextHop>(resolved[l]);
}

}  // namespace

void run_avx512(const View4& view, const std::uint32_t* keys, rib::NextHop* out,
                std::size_t n) noexcept
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) lookup8_avx512(view, keys + i, out + i);
    if (i < n) batch::lookup_batch_pipelined(view, keys + i, out + i, n - i);
}

#pragma GCC diagnostic pop

#else  // !__x86_64__

bool has_avx512() noexcept
{
    return false;
}

void run_avx512(const View4& view, const std::uint32_t* keys, rib::NextHop* out,
                std::size_t n) noexcept
{
    // Defensive: has_avx512() is false here, so no caller routes a burst in.
    batch::lookup_batch_pipelined(view, keys, out, n);
}

#endif  // __x86_64__

}  // namespace poptrie::lanes
