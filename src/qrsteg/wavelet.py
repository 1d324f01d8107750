"""Reversible single-level 2D Haar decomposition on integer planes.

The pair rule for adjacent samples (a, b) is s = floor((a + b) / 2),
d = a - b, with exact inverse b = s - floor(d / 2), a = d + b. Floor
always rounds toward minus infinity, which is what makes the inverse
algebraically exact and lets LSB edits in the detail bands survive a
reconstruct/decompose cycle bit for bit.

Rows are split first (averages to the left half, differences to the
right), then the columns of each half, giving four quarter-size bands:
LL and LH from the left half, HL and HH from the right.

The work dtype is the narrowest that stays exact. For uint8 planes it is
int16: LL stays in [0, 255] and the detail bands in [-510, 510]. An LSB
edit moves a coefficient by at most one, and every value the inverse
computes from such bands stays within +-2600. Any other input is taken as
generic integer samples and works in int64. The inverse runs in the
bands' common dtype, so its output is int16 for the bands of a uint8 plane.

LSB edits to HL and HH move each inverse sample by at most one, so a plane
clipped to [CLIP_LO, CLIP_HI], the paper's range, inverts inside [0, 255].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

CLIP_LO = 2
CLIP_HI = 253


@dataclass(eq=False)
class SubBands:
    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def __post_init__(self):
        shape = self.ll.shape
        if not all(m.shape == shape for m in (self.lh, self.hl, self.hh)):
            raise ShapeError("sub-bands differ in shape")


def _pair_fwd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (a + b) >> 1, a - b


def _pair_inv(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = s - (d >> 1)
    return d + b, b


def fwd_haar_int(plane: np.ndarray) -> SubBands:
    """Decompose an even-dimension integer plane into LL/LH/HL/HH."""
    if plane.ndim != 2:
        raise ShapeError("expected a 2D plane")
    h, w = plane.shape
    if h % 2 or w % 2 or h == 0 or w == 0:
        raise ShapeError(f"plane dimensions must be even and positive, got {w}x{h}")
    a = plane.astype(np.int16 if plane.dtype == np.uint8 else np.int64)
    s, d = _pair_fwd(a[:, 0::2], a[:, 1::2])
    ll, lh = _pair_fwd(s[0::2, :], s[1::2, :])
    hl, hh = _pair_fwd(d[0::2, :], d[1::2, :])
    return SubBands(ll=ll, lh=lh, hl=hl, hh=hh)


def inv_haar_int(bands: SubBands) -> np.ndarray:
    """Exact integer inverse of fwd_haar_int.

    The output has the bands' common dtype. It can leave [0, 255] if the
    bands were edited beyond what the input range allows; range policy is
    the caller's business.
    """
    h2, w2 = bands.ll.shape
    work = np.result_type(bands.ll, bands.lh, bands.hl, bands.hh)
    s = np.empty((h2 * 2, w2), dtype=work)
    d = np.empty((h2 * 2, w2), dtype=work)
    s[0::2, :], s[1::2, :] = _pair_inv(bands.ll, bands.lh)
    d[0::2, :], d[1::2, :] = _pair_inv(bands.hl, bands.hh)
    plane = np.empty((h2 * 2, w2 * 2), dtype=work)
    plane[:, 0::2], plane[:, 1::2] = _pair_inv(s, d)
    return plane
