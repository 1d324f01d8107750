"""Bilevel payload images and their bit-packed byte form.

The cipher works on bytes while the embedder writes single bits, so a
payload image is packed MSB-first: bit index b lands in byte b // 8 at
position 7 - (b % 8). Unused trailing bits of the final byte are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError

DARK_THRESHOLD = 128  # raster value below this is a dark module (bit 1)


@dataclass(frozen=True, eq=False)
class QrPlane:
    """A bilevel image as a (height, width) array of {0, 1}; 1 = dark."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ShapeError(f"bad plane size {self.width}x{self.height}")
        if self.bits.shape != (self.height, self.width):
            raise ShapeError("bit array does not match declared size")
        if self.bits.min() < 0 or self.bits.max() > 1:
            raise ShapeError("plane bits must be 0 or 1")


@dataclass(frozen=True, eq=False)
class PackedPayload:
    bit_count: int
    data: bytes

    def __post_init__(self):
        if len(self.data) != (self.bit_count + 7) // 8:
            raise ShapeError("packed byte count does not match bit count")


def load_qr(raster: np.ndarray) -> QrPlane:
    """Threshold an 8-bit grayscale raster into a bilevel plane."""
    if raster.ndim != 2 or raster.size == 0:
        raise FormatError("expected a non-empty single-channel raster")
    bits = (raster < DARK_THRESHOLD).astype(np.uint8)
    h, w = raster.shape
    return QrPlane(width=w, height=h, bits=bits)


def render(plane: QrPlane) -> np.ndarray:
    """Back to 8-bit grayscale: dark module 0, light module 255."""
    return (plane.bits == 0).view(np.uint8) * np.uint8(255)


def pack(plane: QrPlane) -> PackedPayload:
    data = np.packbits(plane.bits.reshape(-1)).tobytes()
    return PackedPayload(bit_count=plane.width * plane.height, data=data)


def unpack(payload: PackedPayload, width: int, height: int) -> QrPlane:
    if payload.bit_count != width * height:
        raise ShapeError(
            f"payload holds {payload.bit_count} bits, plane needs {width * height}"
        )
    bits = np.unpackbits(np.frombuffer(payload.data, dtype=np.uint8), count=payload.bit_count)
    return QrPlane(width=width, height=height, bits=bits.reshape(height, width))


def payload_from_bits(bits: np.ndarray) -> PackedPayload:
    """Pack a flat {0,1} bit array MSB-first; pads the final byte with zero bits."""
    return PackedPayload(bit_count=int(bits.size), data=np.packbits(bits).tobytes())
