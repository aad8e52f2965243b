#!/usr/bin/env python3
"""Deterministic binary corruption for the snapshot-image e2e tests.

    corrupt_file.py <mode> <path>

Modes mirror the failure classes --verify-image must catch:

  truncate  -- cut the file to half its size (header intact, payload short)
  flipbit   -- flip one bit in the middle of the payload (checksum mismatch)
  version   -- stamp format_version = 999 and RE-SEAL the header checksum,
               so the loader's rejection is the version check specifically,
               not a checksum side effect; exits 2 when the checksum mirror
               below does not reproduce the image's own header checksum

The header layout constants below must match snapshot::ImageHeader
(src/snapshot/snapshot.hpp): format_version is the uint32 at offset 8,
header_checksum the uint64 at offset 280 of the 288-byte header, computed
with snapshot::image_checksum (formats v3 to v5: xxHash64's round chained
over little-endian 8-byte words, a partial last word zero-extended) over the
header with the checksum field zeroed. Formats v4 and v5 changed only what
the sections hold (v4: the reachable runs, packed; v5: folded runs in the
leaf8 section), not the header, so these offsets hold for v5 images.
"""
import struct
import sys

HEADER_BYTES = 288
VERSION_OFF = 8
HEADER_CHECKSUM_OFF = 280
MASK = 0xFFFFFFFFFFFFFFFF


def image_checksum(data: bytes) -> int:
    h = 0x27D4EB2F165667C5
    for (word,) in struct.iter_unpack("<Q", data + bytes(-len(data) % 8)):
        h = (h + word * 0xC2B2AE3D27D4EB4F) & MASK
        h = (((h << 31) | (h >> 33)) & MASK) * 0x9E3779B185EBCA87 & MASK
    return h


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    mode, path = sys.argv[1], sys.argv[2]
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if len(data) <= HEADER_BYTES:
        print(f"corrupt_file.py: {path} is too small to be an image", file=sys.stderr)
        return 2

    if mode == "truncate":
        data = data[: len(data) // 2]
    elif mode == "flipbit":
        data[(HEADER_BYTES + len(data)) // 2] ^= 0x10
    elif mode == "version":
        header = bytearray(data[:HEADER_BYTES])
        header[HEADER_CHECKSUM_OFF : HEADER_CHECKSUM_OFF + 8] = bytes(8)
        # The mirror must reproduce the image's own seal before it re-seals.
        if image_checksum(bytes(header)) != struct.unpack_from("<Q", data, HEADER_CHECKSUM_OFF)[0]:
            print("corrupt_file.py: checksum mirror disagrees with the image", file=sys.stderr)
            return 2
        struct.pack_into("<I", header, VERSION_OFF, 999)
        data[:HEADER_BYTES] = header
        struct.pack_into("<Q", data, HEADER_CHECKSUM_OFF, image_checksum(bytes(header)))
    else:
        print(f"corrupt_file.py: unknown mode '{mode}'", file=sys.stderr)
        return 2

    with open(path, "wb") as f:
        f.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
