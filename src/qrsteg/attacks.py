"""Channel noise models for robustness experiments.

Conventions follow the common numerical-toolkit definitions on
normalized intensities: gaussian and speckle operate on samples scaled
to [0, 1] and clamp before rescaling, poisson draws use the raw 8-bit
value as the rate, and salt & pepper replaces samples with 0 or 255.
All three planes are attacked. Seeding is per frame, so clips can be
processed in any order or in parallel with identical output.

The random draws (which generator calls, in which order, of which shapes)
are fixed: pinned outputs depend on them. Only the arithmetic around them
is free to change, and gaussian and speckle do theirs in place on the
noise array they draw. IEEE addition and multiplication are commutative,
so noise + x and noise * x give the same samples as x + noise and
x * noise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError
from .videoio import FrameYuv420

@dataclass(frozen=True)
class AttackSpec:
    kind: str
    density: float = 0.0  # salt_pepper
    mean: float = 0.0  # gaussian
    variance: float = 0.0  # gaussian, speckle

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FormatError(f"unknown attack kind {self.kind!r}")
        for name in ("density", "mean", "variance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FormatError(f"attack {name} {value} is not finite")
            object.__setattr__(self, name, value + 0.0)  # -0.0 becomes +0.0: numpy rejects -0
        if self.kind == "salt_pepper" and not 0.0 <= self.density <= 1.0:
            raise FormatError(f"salt & pepper density {self.density} outside [0, 1]")
        if self.variance < 0.0:
            raise FormatError(f"negative variance {self.variance}")
        if self.kind == "speckle" and not math.isfinite(3.0 * self.variance):
            # speckle draws from +-sqrt(3 * variance), which must be finite
            raise FormatError(f"speckle variance {self.variance} too large")

    def label(self) -> str:
        names, params, _ = _GRAMMAR[self.kind]
        return ":".join([names[0], *(f"{getattr(self, param):g}" for param in params)])

    @classmethod
    def parse(cls, text: str) -> "AttackSpec":
        """Parse a CLI spec string, one of the SPEC_FORMS.

        Each parameter is an ASCII decimal real: digits with an optional
        "-", fraction and exponent. float() alone would also read "_",
        spaces and non-ASCII digits, so "sp:0_1" would replace every sample.
        """
        name, *values = text.strip().split(":")
        for kind, (names, params, _) in _GRAMMAR.items():
            if name.lower() in names and len(values) == len(params):
                if not all(map(_DECIMAL_REAL.fullmatch, values)):
                    raise FormatError(f"bad attack parameter in {text!r}: not an ASCII decimal number")
                return cls(kind, **{param: float(value) for param, value in zip(params, values)})
        raise FormatError(f"cannot parse attack spec {text!r}")


def _per_plane(frame: FrameYuv420, fn) -> FrameYuv420:
    return FrameYuv420(y=fn(frame.y), u=fn(frame.u), v=fn(frame.v))


def _to_samples(noisy: np.ndarray) -> np.ndarray:
    """round(clip(noisy, 0, 1) * 255) as uint8, computed in place on noisy."""
    np.clip(noisy, 0.0, 1.0, out=noisy)
    noisy *= 255.0
    return np.round(noisy, out=noisy).astype(np.uint8)


def salt_pepper(frame: FrameYuv420, density: float, rng: np.random.Generator) -> FrameYuv420:
    def corrupt(plane):
        hit = rng.random(plane.shape) < density
        values = rng.integers(0, 2, plane.shape, dtype=np.uint8) * np.uint8(255)
        return np.where(hit, values, plane)

    return _per_plane(frame, corrupt)


def gaussian(frame: FrameYuv420, mean: float, variance: float, rng: np.random.Generator) -> FrameYuv420:
    sigma = float(np.sqrt(variance))

    def corrupt(plane):
        noisy = rng.normal(mean, sigma, plane.shape)
        noisy += plane / 255.0
        return _to_samples(noisy)

    return _per_plane(frame, corrupt)


def poisson(frame: FrameYuv420, rng: np.random.Generator) -> FrameYuv420:
    def corrupt(plane):
        draws = rng.poisson(plane.astype(np.float64))
        return np.clip(draws, 0, 255, out=draws).astype(np.uint8)

    return _per_plane(frame, corrupt)


def speckle(frame: FrameYuv420, variance: float, rng: np.random.Generator) -> FrameYuv420:
    # multiplicative zero-mean uniform noise with the requested variance
    limit = float(np.sqrt(3.0 * variance))

    def corrupt(plane):
        noisy = rng.uniform(-limit, limit, plane.shape)
        noisy += 1.0
        noisy *= plane / 255.0
        return _to_samples(noisy)

    return _per_plane(frame, corrupt)


_DECIMAL_REAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")

# kind -> (spec names, the first being the label's; parameters in spec order; attack)
_GRAMMAR = {
    "salt_pepper": (("sp", "salt_pepper", "saltpepper"), ("density",), salt_pepper),
    "gaussian": (("gauss", "gaussian"), ("mean", "variance"), gaussian),
    "poisson": (("poisson",), (), poisson),
    "speckle": (("speckle",), ("variance",), speckle),
}
KINDS = tuple(_GRAMMAR)
# The spec each kind parses from, parameters by initial: sp:D, gauss:M:V, poisson, speckle:V.
SPEC_FORMS = tuple(":".join([names[0], *(param[0].upper() for param in params)])
                   for names, params, _ in _GRAMMAR.values())


def apply_attack(frame: FrameYuv420, spec: AttackSpec, rng: np.random.Generator) -> FrameYuv420:
    _, params, attack = _GRAMMAR[spec.kind]
    return attack(frame, *(getattr(spec, param) for param in params), rng)


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, frame_index])


def attack_video(
    frames: Iterable[FrameYuv420], specs: list[AttackSpec], seed: int
) -> Iterator[FrameYuv420]:
    """Apply the attack list in order to every frame; an empty list passes through."""
    for index, frame in enumerate(frames):
        rng = frame_rng(seed, index)
        for spec in specs:
            frame = apply_attack(frame, spec, rng)
        yield frame
