"""Decoding run masks into run indices: the one bit-walk primitive.

Every event of the engine is an ``int`` whose bit ``k`` is set iff run
``k`` is in the event.  Walking a mask one set bit at a time
(``lsb = m & -m; m ^= lsb``) costs a full-width big-int operation per
set bit — O(popcount x width), about 130 ms for a half-dense
65,536-run mask.  :func:`bit_positions` instead decodes the mask's
bytes through a 256-entry table of per-byte bit offsets, O(width) with
a small constant (about 2.5 ms on the same mask).  For very sparse
masks the per-bit walk is cheaper, so it is kept for those.

The static analyzer (rule RP012) flags per-bit walks outside this
module, so every mask decode goes through here.
"""

from __future__ import annotations

from typing import Iterator, List

__all__ = ["bit_positions", "bits"]

#: ``_BYTE_BITS[b]`` lists the set bit offsets of byte ``b``, ascending.
_BYTE_BITS = tuple(
    tuple(offset for offset in range(8) if byte >> offset & 1) for byte in range(256)
)

#: Below this many set bits the per-bit walk beats the byte decode
#: (measured crossover: about 80 set bits, whatever the mask width).
_SPARSE_BITS = 64


def bit_positions(mask: int) -> List[int]:
    """The set bit positions of a non-negative ``mask``, ascending."""
    if mask.bit_count() < _SPARSE_BITS:
        positions = []
        while mask:
            lsb = mask & -mask
            positions.append(lsb.bit_length() - 1)
            mask ^= lsb
        return positions
    # Decode from the lowest set bit: a subtree's mask starts deep
    # inside a wide run space, and the bytes below it are all zero.
    low = (mask & -mask).bit_length() - 1
    mask >>= low
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    table = _BYTE_BITS
    return [
        low + (i << 3) + offset
        for i, byte in enumerate(data)
        if byte
        for offset in table[byte]
    ]


def bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of ``mask``, ascending."""
    return iter(bit_positions(mask))
