"""Synthetic covers and payload images.

Benchmarks and tests run on generated clips so nothing depends on
downloaded datasets. The gradient generator stands in for natural
footage: smooth shading, a little texture, slow motion.
"""

from __future__ import annotations

import numpy as np

from .bitplane import QrPlane
from .videoio import FrameYuv420, VideoMeta


def gradient_video(width: int, height: int, frames: int, *, seed: int = 0) -> tuple[VideoMeta, list[FrameYuv420]]:
    """Natural-looking stand-in: drifting diagonal shade plus mild texture."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 1.0, width)
    ys = np.linspace(0.0, 1.0, height)
    base = 40 + 170 * (0.6 * xs[None, :] + 0.4 * ys[:, None])
    out = []
    for i in range(frames):
        drift = 6.0 * np.sin(2 * np.pi * (i / max(frames, 1) + xs[None, :]))
        texture = rng.normal(0.0, 2.5, size=(height, width))
        y = np.clip(base + drift + texture, 0, 255).astype(np.uint8)
        cu = np.clip(118 + 24 * xs[None, : width // 2 * 2 : 2] + rng.normal(0, 1.5, (height // 2, width // 2)), 0, 255)
        cv = np.clip(134 - 20 * ys[None, : height // 2 * 2 : 2].T + rng.normal(0, 1.5, (height // 2, width // 2)), 0, 255)
        out.append(FrameYuv420(y=y, u=cu.astype(np.uint8), v=cv.astype(np.uint8)))
    return VideoMeta(width=width, height=height, frame_rate="30:1"), out


def noise_video(width: int, height: int, frames: int, *, seed: int = 0) -> tuple[VideoMeta, list[FrameYuv420]]:
    rng = np.random.default_rng(seed)
    out = [
        FrameYuv420(
            y=rng.integers(0, 256, (height, width), dtype=np.uint8),
            u=rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
            v=rng.integers(0, 256, (height // 2, width // 2), dtype=np.uint8),
        )
        for _ in range(frames)
    ]
    return VideoMeta(width=width, height=height, frame_rate="30:1"), out


def moving_block_video(width: int, height: int, frames: int, *, seed: int = 0) -> tuple[VideoMeta, list[FrameYuv420]]:
    """Flat background with a bright square wandering across it."""
    rng = np.random.default_rng(seed)
    side = max(4, min(width, height) // 4)
    out = []
    for i in range(frames):
        y = np.full((height, width), 92, dtype=np.uint8)
        top = int((height - side) * (0.5 + 0.5 * np.sin(i * 0.7)) / 1.0) % max(height - side, 1)
        left = (i * 3 + int(rng.integers(0, 2))) % max(width - side, 1)
        y[top : top + side, left : left + side] = 210
        u = np.full((height // 2, width // 2), 120, dtype=np.uint8)
        v = np.full((height // 2, width // 2), 136, dtype=np.uint8)
        out.append(FrameYuv420(y=y, u=u, v=v))
    return VideoMeta(width=width, height=height, frame_rate="30:1"), out


def qr_like_plane(width: int, height: int, *, seed: int = 0, module: int = 4) -> QrPlane:
    """A bilevel image with QR-style finder squares and random modules.

    Only the look matters: payloads are opaque bits to the pipeline, so
    no symbology rules are applied.
    """
    rng = np.random.default_rng(seed)
    mods_w = max(1, width // module)
    mods_h = max(1, height // module)
    grid = rng.integers(0, 2, size=(mods_h, mods_w), dtype=np.uint8)

    def finder(r, c):
        size = min(7, mods_h, mods_w)
        block = np.zeros((size, size), dtype=np.uint8)
        block[:, :] = 1
        if size > 2:
            block[1:-1, 1:-1] = 0
        if size > 4:
            block[2:-2, 2:-2] = 1
        grid[r : r + size, c : c + size] = block

    if mods_h >= 15 and mods_w >= 15:  # leave small grids mostly random
        finder(0, 0)
        finder(0, mods_w - 7)
        finder(mods_h - 7, 0)
    bits = np.kron(grid, np.ones((module, module), dtype=np.uint8))
    bits = bits[:height, :width]
    if bits.shape != (height, width):  # pad when module does not divide evenly
        padded = np.zeros((height, width), dtype=np.uint8)
        padded[: bits.shape[0], : bits.shape[1]] = bits
        bits = padded
    return QrPlane(width=width, height=height, bits=bits)
