#!/usr/bin/env python3
"""make_fuzz_seeds.py -- deterministic seed-corpus generator for fuzz/corpus.

The committed seed corpus is generated, not hand-hexed: this script encodes
structurally interesting route tables in each harness's input format (see
fuzz/common.hpp for the op encoding) so the fuzzers start from deep program
states instead of spending their budget rediscovering "insert a route".
Regenerate with:  tools/make_fuzz_seeds.py [--out fuzz/corpus]

Seeds are deterministic (no RNG, no timestamps): regenerating must produce
byte-identical files or the corpus would churn in every PR.
"""

from __future__ import annotations

import argparse
import os
import struct

# --- encoding helpers (mirror fuzz/common.hpp's ByteReader/decode_ops) ------


def u16(v):
    return struct.pack("<H", v)


def u32(v):
    return struct.pack("<I", v)


def u128(v):
    # ByteReader::u128v reads hi u64 first, then lo.
    return struct.pack("<Q", (v >> 64) & (2**64 - 1)) + struct.pack("<Q", v & (2**64 - 1))


def length_byte(length, width):
    """A byte that decode_length maps to `length` via the uniform branch."""
    for b in range(128, 256):
        if b % (width + 1) == length:
            return bytes([b])
    raise ValueError(f"unencodable length {length} for width {width}")


def v4(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


def fresh4(addr, length, hop):
    """Mode-0 (fresh) IPv4 announce op."""
    return bytes([0x00]) + u32(addr) + length_byte(length, 32) + u16(hop - 1)


def fresh6(addr, length, hop):
    return bytes([0x00]) + u128(addr) + length_byte(length, 128) + u16(hop - 1)


def withdraw4(addr, length):
    return bytes([0x10]) + u32(addr) + length_byte(length, 32)


def dup(index, hop):
    """Mode-2 announce over history[index % len(history)] with a new hop."""
    return bytes([0x02, index]) + u16(hop - 1)


def sibling(index, hop):
    return bytes([0x03, index]) + u16(hop - 1)


def child(index, branch, hop):
    return bytes([0x05 | (branch << 3), index]) + u16(hop - 1)


def parent(index, hop):
    return bytes([0x04, index]) + u16(hop - 1)


def config(direct_bits, leaf_compression=True, route_aggregation=False, leaf_dict=False):
    """A byte decode_config maps to the given Poptrie configuration."""
    choices = [0, 6, 12, 16, 17, 18]
    b = choices.index(direct_bits)
    if leaf_dict:
        b |= 0x20
    if leaf_compression:
        b |= 0x40
    if route_aggregation:
        b |= 0x80
    return bytes([b])


# --- per-harness seeds -------------------------------------------------------


def seeds_differential():
    out = {}

    # Default-route-only: the whole address space answered by one /0 —
    # exercises the "leaf at the root" shape in every structure.
    out["default_route_only"] = (
        config(16) + b"\x00" + fresh4(0, 0, 10) + u32(v4(8, 8, 8, 8)) + u32(v4(255, 255, 255, 255))
    )

    # Full /24 sweep: 128 consecutive /24s under 10.42.0.0/16 with rotating
    # hops, under direct pointing that cuts through them (direct_bits=16).
    sweep = config(16) + b"\x00"
    for i in range(128):
        sweep += fresh4(v4(10, 42, i, 0), 24, 1 + (i % 7))
    out["full_24_sweep"] = sweep

    # Nested stack around the stride boundaries: /0 through /32 along one
    # path, so every level of the trie holds a route.
    nested = config(6, leaf_compression=True, route_aggregation=True) + b"\x00"
    for length in (0, 1, 6, 8, 12, 16, 17, 18, 19, 24, 25, 30, 31, 32):
        nested += fresh4(v4(192, 168, 37, 5), length, 1 + length)
    out["nested_path_v4"] = nested

    # IPv6 sparse: a handful of routes scattered across the 128-bit space,
    # typical DFZ lengths (/32, /48, /64) plus a host route and the default.
    v6 = config(18) + b"\x01"
    v6 += fresh6(0, 0, 1)
    v6 += fresh6(0x20010DB8 << 96, 32, 2)
    v6 += fresh6((0x20010DB8 << 96) | (0xCAFE << 64), 48, 3)
    v6 += fresh6((0x20010DB8 << 96) | (0xCAFE << 64) | (0x1 << 48), 64, 4)
    v6 += fresh6((0xFE80 << 112) | 0x1, 128, 5)
    out["ipv6_sparse"] = v6

    # Sibling flood: one fresh /24 then alternating sibling/child derivations
    # packing one 64-ary node with dense leaves.
    flood = config(16) + b"\x00" + fresh4(v4(10, 0, 0, 0), 24, 1)
    for i in range(60):
        flood += sibling(i % 8, 2 + i) + child(i % 8, i & 1, 40 + i)
    out["sibling_flood"] = flood

    # Dictionary-coded leaves (config bit 0x20): a /24 sweep with few
    # distinct hops, compacted by the harness into 8-bit dict runs under
    # s=18 direct pointing, then the full probe replay over the decode path.
    dict_sweep = config(18, leaf_dict=True) + b"\x00"
    for i in range(96):
        dict_sweep += fresh4(v4(10, 50 + (i // 48), i % 48, 0), 24, 1 + (i % 5))
    out["leaf_dict_sweep"] = dict_sweep

    # IPv6 under leaf_dict: sparse DFZ-style table, compact engages the
    # dictionary on the v6 trie's leaf runs.
    dict6 = config(16, leaf_dict=True) + b"\x01"
    dict6 += fresh6(0, 0, 1)
    for i in range(24):
        dict6 += fresh6((0x20010D00 + i) << 96, 32, 1 + (i % 3))
    out["leaf_dict_ipv6"] = dict6

    return out


def seeds_update_rebuild():
    out = {}

    # Announce/withdraw churn with checkpoints every 4 ops (sel=2 -> mask 3).
    churn = config(16) + bytes([0x02])
    for i in range(24):
        churn += fresh4(v4(10, 42, i, 0), 24, 1 + i)
    for i in range(12):
        churn += withdraw4(v4(10, 42, 2 * i, 0), 24)
    out["announce_withdraw_churn"] = churn

    # Same-prefix hop modification (mode-2 dups): checkpoint after every op.
    mods = config(6) + bytes([0x00]) + fresh4(v4(172, 16, 0, 0), 12, 1)
    for i in range(16):
        mods += dup(0, 2 + i)
    out["hop_modify_storm"] = mods

    # IPv6 with sparse checkpoints (sel bit7 set, mask 15).
    v6 = config(18) + bytes([0x84])
    v6 += fresh6(0x20010DB8 << 96, 32, 1)
    for i in range(20):
        v6 += child(0, i & 1, 2 + i)
    out["ipv6_child_walk"] = v6

    return out


def seeds_parser():
    out = {
        "addr_v4": b"192.168.0.1",
        "addr_v6": b"2001:db8::cafe:1",
        "prefix_v4": b"10.0.0.0/8",
        "prefix_v6": b"2001:db8::/32",
        "table_v4": b"0.0.0.0/0 1\n10.0.0.0/8 2\n10.1.0.0/16 3\n192.0.2.0/24 4\n",
        "table_v6": b"::/0 1\n2001:db8::/32 2\n2001:db8:cafe::/48 3\n",
        # Malformed forms the parsers must reject (not crash on):
        "reject_octet_overflow": b"999.1.1.1",
        "reject_prefix_too_long": b"1.2.3.4/33",
        "reject_double_colon_twice": b"1::2::3",
        "reject_trailing_garbage": b"10.0.0.0/8x 1\n",
    }
    return out


def seeds_buddy():
    out = {}

    # Power-of-two ladder: alloc 1,2,4,...,256 then free in reverse.
    ladder = bytes([0x0A])  # capacity 2^10
    for s in range(9):
        ladder += bytes([0x00, s])  # alloc 2^s
    ladder += bytes([0x07])  # audit checkpoint
    for i in range(9):
        ladder += bytes([0x03, 8 - i])  # free newest-first
    out["pow2_ladder"] = ladder

    # Fragmentation: odd sizes (2^s +/- 1), interleaved frees, an audit.
    frag = bytes([0x06])  # capacity 2^6
    for s in range(2, 7):
        frag += bytes([0x01, 0x40 | s])  # alloc 2^s - 1
        frag += bytes([0x02, 0x80 | s])  # alloc 2^s + 1
    frag += bytes([0x03, 0x01, 0x04, 0x02, 0x06])  # free, free, audit
    for s in range(2, 5):
        frag += bytes([0x00, 0x80 | s])
    frag += bytes([0x07])
    out["fragmentation_mix"] = frag

    return out


def seeds_aggregate():
    out = {}

    # Mergeable siblings: pairs of /25s with equal hops under distinct /24s —
    # the canonical aggregation input.
    sib = bytes([0x02])  # direct_bits=16, v4
    for i in range(12):
        sib += fresh4(v4(10, 7, i, 0), 25, 1 + (i % 3))
        sib += sibling(0, 1 + (i % 3))  # same hop as its pair: mergeable
    out["mergeable_siblings"] = sib

    # Redundant children: /16 cover with same-hop /24s inside (droppable),
    # plus one differing hop that must survive.
    red = bytes([0x01])  # direct_bits=6, v4
    red += fresh4(v4(10, 9, 0, 0), 16, 5)
    for i in range(10):
        red += fresh4(v4(10, 9, i, 0), 24, 5)
    red += fresh4(v4(10, 9, 200, 0), 24, 6)
    out["redundant_children"] = red

    # IPv6 nesting (sel bit7).
    v6 = bytes([0x83])
    v6 += fresh6(0x20010DB8 << 96, 32, 1)
    for i in range(8):
        v6 += child(0, i & 1, 1)  # same hop as parent: redundant
    out["ipv6_redundant_nest"] = v6

    return out


def seeds_snapshot_roundtrip():
    out = {}

    # Input layout (fuzz_snapshot_roundtrip.cpp): config byte, sel byte
    # (0x40 = compact before serialize, 0x80 = IPv6), u32 flip selector
    # (low bits pick the corrupted byte, top 3 bits the flipped bit), then
    # the common op stream and trailing probe keys.

    # Compacted v4 churn: announce a /24 sweep, withdraw half, compact,
    # snapshot. Flip selector 0 lands the corruption in the image header.
    churn = config(16) + bytes([0x40]) + u32(0)
    for i in range(24):
        churn += fresh4(v4(10, 42, i, 0), 24, 1 + i)
    for i in range(12):
        churn += withdraw4(v4(10, 42, 2 * i, 0), 24)
    out["compacted_churn_v4"] = churn

    # Uncompacted basic mode (no leafvec, no direct pointing): the snapshot
    # must capture a churned, never-compacted pool extent faithfully. The
    # flip selector points well past the header, into the node section.
    basic = config(0, leaf_compression=False) + bytes([0x00]) + u32(0x00000400)
    basic += fresh4(v4(192, 168, 0, 0), 16, 1)
    for i in range(16):
        basic += child(0, i & 1, 2 + i)
    out["uncompacted_basic_v4"] = basic

    # IPv6, compacted, direct_bits=18: deep child walk plus a host route;
    # high flip selector exercises bit 7 at a large payload offset.
    v6 = config(18) + bytes([0xC0]) + u32(0xE0010000)
    v6 += fresh6(0x20010DB8 << 96, 32, 1)
    for i in range(20):
        v6 += child(0, i & 1, 2 + i)
    v6 += fresh6((0xFE80 << 112) | 0x1, 128, 5)
    out["ipv6_compacted_walk"] = v6

    # Default route only: smallest meaningful image (one leaf run behind a
    # full direct table); corruption lands in the direct section.
    out["default_route_only"] = (
        config(16) + bytes([0x40]) + u32(0x00002000) + fresh4(0, 0, 10)
    )

    # Dictionary-coded v4 image (config bit 0x20, compacted so the 8-bit
    # leaf runs exist): a /24 sweep with few distinct hops under s=18 direct
    # pointing, restored and replayed through the batch walk. Corruption
    # lands in the node section.
    dict4 = config(18, leaf_dict=True) + bytes([0x40]) + u32(0x00000600)
    for i in range(96):
        dict4 += fresh4(v4(10, 50 + (i // 48), i % 48, 0), 24, 1 + (i % 5))
    out["leaf_dict_compacted_v4"] = dict4

    return out


HARNESSES = {
    "fuzz_differential": seeds_differential,
    "fuzz_update_rebuild": seeds_update_rebuild,
    "fuzz_parser": seeds_parser,
    "fuzz_buddy": seeds_buddy,
    "fuzz_aggregate": seeds_aggregate,
    "fuzz_snapshot_roundtrip": seeds_snapshot_roundtrip,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="fuzz/corpus", help="corpus root (default fuzz/corpus)")
    args = parser.parse_args()

    total = 0
    for harness, gen in HARNESSES.items():
        d = os.path.join(args.out, harness)
        os.makedirs(d, exist_ok=True)
        for name, blob in gen().items():
            path = os.path.join(d, name)
            with open(path, "wb") as f:
                f.write(blob)
            total += 1
    print(f"make_fuzz_seeds: wrote {total} seeds under {args.out}")


if __name__ == "__main__":
    main()
