// fuzz/common.hpp — shared structure-aware mutator helpers for the fuzz
// harnesses.
//
// libFuzzer (and the standalone driver in driver_main.cpp) hands each harness
// an opaque byte string. Interpreting those bytes directly as addresses would
// make the interesting collisions — duplicate prefixes, sibling pairs, a /32
// inside a /8, an update that withdraws what a previous op announced —
// astronomically unlikely. The decoder here therefore spends most of its
// entropy on *relationships*: an op can derive its prefix from a previous
// op's prefix (same, sibling, parent, child) instead of minting a fresh one,
// and prefix lengths are drawn from a table biased toward the structural
// boundaries the lookup structures care about (/0, stride multiples, the
// direct-pointing cut, the host-route widths). Every byte string decodes to
// *some* valid op sequence, so the fuzzer can never waste executions on
// "parse errors" — the classic structure-aware fuzzing recipe.
//
// All helpers are bounded: op counts, history depth and pool sizes are capped
// so a pathological input costs milliseconds, not minutes (libFuzzer treats a
// slow input as a finding of the wrong kind).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "netbase/prefix.hpp"
#include "poptrie/config.hpp"
#include "rib/route.hpp"

namespace fuzz {

/// Sequential little-endian reader over the fuzz input. Reads past the end
/// return zero instead of failing: a truncated input decodes to a shorter
/// (still valid) op sequence, which keeps corpus minimization effective.
class ByteReader {
public:
    ByteReader(const std::uint8_t* data, std::size_t size) noexcept : p_(data), end_(data + size)
    {
    }

    [[nodiscard]] bool empty() const noexcept { return p_ == end_; }
    [[nodiscard]] std::size_t remaining() const noexcept
    {
        return static_cast<std::size_t>(end_ - p_);
    }

    [[nodiscard]] std::uint8_t u8() noexcept { return p_ == end_ ? 0 : *p_++; }

    [[nodiscard]] std::uint16_t u16() noexcept
    {
        return static_cast<std::uint16_t>(u8() | (std::uint16_t{u8()} << 8));
    }

    [[nodiscard]] std::uint32_t u32() noexcept
    {
        return u16() | (std::uint32_t{u16()} << 16);
    }

    [[nodiscard]] std::uint64_t u64() noexcept
    {
        return u32() | (std::uint64_t{u32()} << 32);
    }

    [[nodiscard]] netbase::u128 u128v() noexcept
    {
        const auto hi = u64();
        return (netbase::u128{hi} << 64) | u64();
    }

private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
};

/// Reads the address-family-sized integer for `Addr`.
template <class Addr>
[[nodiscard]] typename Addr::value_type read_key(ByteReader& in) noexcept
{
    if constexpr (Addr::kWidth == 32)
        return in.u32();
    else
        return in.u128v();
}

/// Maps one byte to a prefix length in [0, kWidth], biased toward the
/// structurally interesting lengths: /0 (default route), the full host width,
/// one off the host width, the 6-bit stride boundaries of Poptrie, the
/// direct-pointing cuts (16/17/18/19), and the BGP mode (/24 for v4, /48 for
/// v6). Half the byte range falls through to a uniform draw so no length is
/// unreachable.
template <class Addr>
[[nodiscard]] unsigned decode_length(std::uint8_t b) noexcept
{
    constexpr unsigned w = Addr::kWidth;
    // clang-format off
    constexpr unsigned interesting[] = {
        0, w, w - 1, 1, 6, 12, 18, 24,
        w >= 30 ? 30u : w, 8, 16, 17, 19,
        w == 32 ? 24u : 48u, w == 32 ? 25u : 64u, w / 2,
    };
    // clang-format on
    if (b < 128) return interesting[b % (sizeof(interesting) / sizeof(interesting[0]))];
    return b % (w + 1);
}

/// One decoded routing operation. `next_hop == rib::kNoRoute` withdraws the
/// prefix; otherwise it announces (insert or modify — a modify is an announce
/// over a prefix that is already present).
template <class Addr>
struct RouteOp {
    netbase::Prefix<Addr> prefix;
    rib::NextHop next_hop = rib::kNoRoute;
};

/// Decoding knobs. The defaults keep a single harness execution comfortably
/// under a millisecond of structure churn.
struct DecodeLimits {
    std::size_t max_ops = 192;
    std::size_t history = 32;  ///< how many recent prefixes derivation can reference
};

/// Decodes a route-op sequence. Op layout (per op, ~6–20 bytes):
///
///   byte 0  bits 0-2: derivation mode
///             0,1  fresh prefix from the stream (address + length byte)
///             2    duplicate of history[i] (same prefix, new hop / withdraw)
///             3    sibling of history[i] (last prefix bit flipped)
///             4    parent of history[i] (one bit shorter)
///             5    child of history[i] (one bit longer, branch from bit 3)
///             6    history[i] re-masked to a fresh length (nesting)
///             7    fresh prefix
///           bit 4: withdraw instead of announce (1 in 2 ops when set —
///                  withdrawals of both live and absent prefixes are legal
///                  and must be handled)
///   byte 1  history index / length byte (mode-dependent)
///   then    address bytes for fresh modes, 2 next-hop bytes for announces
///
/// Sibling-dense patterns emerge naturally: a corpus entry that repeats mode
/// 3/5 ops floods one subtree with adjacent prefixes.
template <class Addr>
[[nodiscard]] std::vector<RouteOp<Addr>> decode_ops(ByteReader& in,
                                                    const DecodeLimits& lim = {})
{
    using Prefix = netbase::Prefix<Addr>;
    std::vector<RouteOp<Addr>> ops;
    std::vector<Prefix> history;
    ops.reserve(lim.max_ops);
    while (!in.empty() && ops.size() < lim.max_ops) {
        const std::uint8_t tag = in.u8();
        const unsigned mode = tag & 0x7u;
        const bool withdraw = (tag & 0x10u) != 0;
        Prefix p;
        if (history.empty() || mode <= 1 || mode == 7) {
            const auto key = read_key<Addr>(in);
            p = Prefix{Addr{key}, decode_length<Addr>(in.u8())};
        } else {
            const Prefix& h = history[in.u8() % history.size()];
            switch (mode) {
            case 2: p = h; break;
            case 3:  // sibling: flip the last prefix bit
                if (h.length() == 0) {
                    p = h;
                } else {
                    const auto flip = static_cast<typename Addr::value_type>(
                        typename Addr::value_type{1} << (Addr::kWidth - h.length()));
                    p = Prefix{Addr{h.bits() ^ flip}, h.length()};
                }
                break;
            case 4: p = h.length() == 0 ? h : h.parent(); break;
            case 5:
                p = h.length() == Addr::kWidth ? h : h.child((tag >> 3) & 1u);
                break;
            default:  // 6: re-mask to a new length — nests or widens
                p = Prefix{h.address(), decode_length<Addr>(in.u8())};
                break;
            }
        }
        history.push_back(p);
        if (history.size() > lim.history) history.erase(history.begin());
        RouteOp<Addr> op;
        op.prefix = p;
        // Announce hops live in [1, 0x7FFF]: kNoRoute is the withdraw
        // encoding, and several baselines (SAIL, Lulea, DIR-24-8) reject
        // hops above their 15-bit payload by design — the differential
        // harness wants agreement checks, not structural-limit exits.
        op.next_hop =
            withdraw ? rib::kNoRoute : static_cast<rib::NextHop>(1 + (in.u16() & 0x7FFF));
        if (op.next_hop > 0x7FFF) op.next_hop = 0x7FFF;
        ops.push_back(op);
    }
    return ops;
}

/// Decodes a Poptrie configuration from one byte. Direct-pointing sizes are
/// capped at 18 bits (a 1 MiB top array) so a fuzz execution stays cheap.
[[nodiscard]] inline poptrie::Config decode_config(std::uint8_t b) noexcept
{
    poptrie::Config cfg;
    constexpr unsigned direct_choices[] = {0, 6, 12, 16, 17, 18};
    cfg.direct_bits = direct_choices[b % 6];
    cfg.leaf_compression = (b & 0x40u) != 0;
    cfg.route_aggregation = (b & 0x80u) != 0;
    // Dictionary-coded leaves: a compile (Poptrie(rib, cfg)) and compact()
    // code the leaf runs of a table with at most 256 distinct leaf values;
    // apply() writes 16-bit runs, so a table built op by op holds codes only
    // after a compact().
    cfg.leaf_dict = (b & 0x20u) != 0;
    return cfg;
}

/// Collects the differential probe set for a route list: every prefix's
/// first/last covered address and both one-off neighbours (the addresses
/// where a compressed structure's run boundaries sit), capped at `max_routes`
/// routes.
template <class Addr>
void boundary_probes(const rib::RouteList<Addr>& routes,
                     std::vector<typename Addr::value_type>& out,
                     std::size_t max_routes = 4096)
{
    const std::size_t n = routes.size() < max_routes ? routes.size() : max_routes;
    out.reserve(out.size() + n * 4);
    for (std::size_t i = 0; i < n; ++i) {
        const auto lo = routes[i].prefix.first_address().value();
        const auto hi = routes[i].prefix.last_address().value();
        out.push_back(lo);
        out.push_back(hi);
        out.push_back(lo - 1);  // wraps at 0: still a valid probe address
        out.push_back(hi + 1);
    }
}

/// Aborts with a readable banner. Both the libFuzzer build (which traps
/// abort() and saves the crashing input) and the standalone driver (which
/// reports the failing file) key off the process aborting.
[[noreturn]] inline void fail(const char* harness, const char* what, const std::string& detail)
{
    std::fprintf(stderr, "\n=== %s: %s ===\n%s\n", harness, what, detail.c_str());
    std::fflush(stderr);
    std::abort();
}

}  // namespace fuzz
