"""Zero-swap nibble codecs and the one balance-preserving candidate kernel.

A codec exchanges the nibble value 0 with a partner e (e = 0 is the
identity) and fixes everything else; a byte boundary carries one per nibble
half, given by its (upper, lower) partners.  It hides zeros at table
boundaries without disturbing the first-order balance of the linear layer,
provided e passes the candidate condition for that boundary.

find_candidates scores every codec boundary of a stack of linear pairs at
once: e qualifies when the inputs whose encoded half-nibble is e carry the
same bit sums as those whose half-nibble is 0, for every bit plane the
boundary must stay balanced against."""

from __future__ import annotations

import numpy as np

from .binmat import COEFF, shear_maps, table_bits

_V = np.arange(16, dtype=np.uint8)
# NIB[e, v] is the nibble v under the codec swapping 0 with e: every zero-swap
# codec over every nibble.
NIB = np.where(_V == 0, _V[:, None], np.where(_V == _V[:, None], 0, _V)).astype(np.uint8)
NIB.flags.writeable = False


def codec_bytes(y, e_upper, e_lower):
    """Bytes y under the codec pair (e_upper, e_lower), elementwise with
    broadcasting; every codec is an involution, so this also decodes."""
    return (NIB[e_upper, y >> 4] << 4) | NIB[e_lower, y & 0xF]


def _planes() -> np.ndarray:
    """_PLANES[256b + y]: the bit planes boundary b is balanced against, at the
    input whose byte before the linear encoding is y, as 24 0/1 bytes viewed
    as three uint64 words.  Boundaries 0..2 carry ell * S(x) for ell = b + 1,
    so their input is x = S^-1(y / ell) and their planes are the 24 bits of
    S(x), 2 * S(x) and 3 * S(x); boundary 3 (XOR stages and the round output)
    carries a free byte, so its planes are the 8 bits of y itself."""
    planes = np.zeros((4, 256, 24), dtype=np.uint8)
    inverse = np.argsort(COEFF[:, 0], axis=-1)  # inverse[b, y]: the x with COEFF[b, 0, x] == y
    planes[:3] = table_bits(COEFF[:, 0]).transpose(2, 0, 1).reshape(256, 24)[inverse]
    planes[3, :, :8] = table_bits(np.arange(256, dtype=np.uint8)[None])[0].T
    planes = planes.view(np.uint64).reshape(1024, 3)  # row 256b + y
    planes.flags.writeable = False
    return planes


_PLANES = _planes()
_BOUNDARY_ROW = 256 * np.arange(4)[:, None]


def find_candidates(fg) -> np.ndarray:
    """The codec partners that keep each boundary of a (..., 2, 4) stack of
    linear pairs balanced: (..., 4, 2, 16) bool, indexed [boundary, half, e].

    Boundaries 0..2 are the table outputs of coefficients 1, 2 and 3 and
    boundary 3 the XOR stages and the round output; halves are (upper,
    lower).  e qualifies when, for every bit plane of its boundary, the
    inputs whose encoded half-nibble is 0 and those whose half-nibble is e
    carry identical bit sums; swapping 0 and e then moves inputs between two
    classes with identical sums, so no Walsh sum changes.  The identity e = 0
    always qualifies.  The condition is evaluated at key 0: a key only
    permutes the inputs, which leaves every class sum unchanged.

    Every encoding is a permutation, so each nibble class holds 16 encoded
    values z, and their inputs are the decode map at those z: dec[16v:16v+16]
    for the upper half, dec[v::16] for the lower.  One gather of _PLANES at
    dec then gives every class sum, eight byte lanes per uint64 add (a lane
    sums at most 16 ones, so no carry crosses lanes)."""
    dec = shear_maps(fg)[1]
    planes = _PLANES.take(dec[..., None, :] + _BOUNDARY_ROW, axis=0)  # [..., b, z, word]
    planes = planes.reshape(*dec.shape[:-1], 4, 16, 16, 3)  # [..., b, z >> 4, z & 0xF, word]
    classes = np.stack([np.einsum("...hlw->...hw", planes), np.einsum("...hlw->...lw", planes)], axis=-3)
    differ = classes ^ classes[..., :1, :]
    return (differ[..., 0] | differ[..., 1] | differ[..., 2]) == 0
