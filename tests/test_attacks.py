import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsteg.attacks import (
    AttackSpec,
    apply_attack,
    attack_video,
    frame_rng,
    gaussian,
    poisson,
    salt_pepper,
    speckle,
)
from qrsteg.errors import FormatError
from qrsteg.videoio import FrameYuv420


def constant_frame(value, w=64, h=64):
    return FrameYuv420(
        y=np.full((h, w), value, dtype=np.uint8),
        u=np.full((h // 2, w // 2), value, dtype=np.uint8),
        v=np.full((h // 2, w // 2), value, dtype=np.uint8),
    )


def frames_equal(a, b):
    return (
        np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    )


def test_spec_parsing():
    assert AttackSpec.parse("sp:0.01") == AttackSpec(kind="salt_pepper", density=0.01)
    assert AttackSpec.parse("gauss:0:0.01") == AttackSpec(kind="gaussian", mean=0.0, variance=0.01)
    assert AttackSpec.parse("poisson") == AttackSpec(kind="poisson")
    assert AttackSpec.parse("speckle:0.05") == AttackSpec(kind="speckle", variance=0.05)
    for bad in ("sp", "sp:2", "gauss:0", "speckle", "wibble:1", "gauss:a:b"):
        with pytest.raises(FormatError):
            AttackSpec.parse(bad)


def test_spec_labels_roundtrip():
    for text in ("sp:0.1", "gauss:0:0.01", "poisson", "speckle:0.05"):
        assert AttackSpec.parse(text).label() == text


# The spec grammar as docs and the CLI help state it: every name of a kind
# (the first is the label's) and its parameters in spec order.
SPEC_NAMES = {
    "salt_pepper": ("sp", "salt_pepper", "saltpepper"),
    "gaussian": ("gauss", "gaussian"),
    "poisson": ("poisson",),
    "speckle": ("speckle",),
}
SPEC_PARAMS = {
    "salt_pepper": {"density": st.floats(0.0, 1.0)},
    "gaussian": {"mean": st.floats(allow_nan=False, allow_infinity=False), "variance": st.floats(0.0, 1e308)},
    "poisson": {},
    "speckle": {"variance": st.floats(0.0, 1e307)},  # 3 * variance must stay finite, also rounded by :g
}


@st.composite
def spelled_specs(draw):
    """(kind, one of its spec names in any letter case, its finite parameters in spec order)."""
    kind = draw(st.sampled_from(sorted(SPEC_NAMES)))
    name = draw(st.sampled_from(SPEC_NAMES[kind]))
    upper = draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
    spelled = "".join(c.upper() if up else c for c, up in zip(name, upper))
    return kind, spelled, {param: draw(values) for param, values in SPEC_PARAMS[kind].items()}


@settings(max_examples=300)
@given(spelled_specs())
def test_every_spec_name_parses_as_the_short_name(case):
    kind, spelled, params = case
    values = [repr(value) for value in params.values()]
    spec = AttackSpec.parse(":".join([spelled, *values]))
    assert spec == AttackSpec.parse(":".join([SPEC_NAMES[kind][0], *values])) == AttackSpec(kind, **params)
    # A parameter :g prints exactly (6 significant digits) survives label and parse.
    exact = AttackSpec(kind, **{param: float(f"{value:g}") for param, value in params.items()})
    assert AttackSpec.parse(exact.label()) == exact


def test_salt_pepper_density_zero_is_identity():
    frame = constant_frame(128)
    out = salt_pepper(frame, 0.0, frame_rng(1, 0))
    assert frames_equal(out, frame)


def test_salt_pepper_density_one_saturates():
    out = salt_pepper(constant_frame(128), 1.0, frame_rng(1, 0))
    for plane in (out.y, out.u, out.v):
        assert set(np.unique(plane)) <= {0, 255}


def test_salt_pepper_hit_fraction():
    # mid-gray cover: every corruption is visible; ~10^6 luma samples
    frame = constant_frame(128, w=1000, h=1000)
    out = salt_pepper(frame, 0.01, frame_rng(7, 0))
    fraction = float((out.y != 128).mean())
    assert abs(fraction - 0.01) < 0.002


def test_gaussian_sigma_on_normalized_scale():
    frame = constant_frame(128, w=512, h=512)
    out = gaussian(frame, 0.0, 0.01, frame_rng(3, 0))
    spread = (out.y.astype(float) - 128.0).std()
    assert abs(spread - 25.5) < 0.6  # sqrt(0.01) * 255
    assert out.y.dtype == np.uint8


def test_gaussian_zero_variance_is_identity_up_to_rounding():
    frame = constant_frame(77)
    out = gaussian(frame, 0.0, 0.0, frame_rng(3, 0))
    assert frames_equal(out, frame)


def test_gaussian_extreme_variance_stays_in_range():
    out = gaussian(constant_frame(128), 0.0, 100.0, frame_rng(4, 0))
    assert out.y.min() >= 0 and out.y.max() <= 255


def test_poisson_zero_stays_zero():
    out = poisson(constant_frame(0), frame_rng(5, 0))
    assert not out.y.any() and not out.u.any() and not out.v.any()


def test_poisson_moments():
    frame = constant_frame(100, w=450, h=450)  # > 10^5 luma draws
    out = poisson(frame, frame_rng(6, 0))
    samples = out.y.astype(float)
    assert abs(samples.mean() - 100.0) < 1.0
    assert abs(samples.var() - 100.0) < 10.0
    assert samples.min() >= 0 and samples.max() <= 255


def test_speckle_zero_variance_is_identity():
    frame = constant_frame(200)
    assert frames_equal(speckle(frame, 0.0, frame_rng(8, 0)), frame)


def test_speckle_zero_signal_stays_zero():
    out = speckle(constant_frame(0), 0.05, frame_rng(8, 0))
    assert not out.y.any()


def test_speckle_multiplicative_spread():
    # at 128 the multiplier never clips, so std = s * sqrt(V) holds exactly
    frame = constant_frame(128, w=512, h=512)
    out = speckle(frame, 0.05, frame_rng(9, 0))
    spread = (out.y.astype(float) - out.y.mean()).std()
    assert abs(spread - 128 * np.sqrt(0.05)) < 0.7


def test_attacks_preserve_dimensions():
    frame = constant_frame(90, w=32, h=16)
    for spec in (
        AttackSpec.parse("sp:0.2"),
        AttackSpec.parse("gauss:0:0.01"),
        AttackSpec.parse("poisson"),
        AttackSpec.parse("speckle:0.05"),
    ):
        out = apply_attack(frame, spec, frame_rng(10, 0))
        assert out.y.shape == frame.y.shape and out.u.shape == frame.u.shape


def test_seeded_determinism():
    frames = [constant_frame(64), constant_frame(192)]
    spec = [AttackSpec.parse("sp:0.3"), AttackSpec.parse("gauss:0:0.01")]
    a = list(attack_video(frames, spec, seed=123))
    b = list(attack_video(frames, spec, seed=123))
    c = list(attack_video(frames, spec, seed=124))
    for fa, fb in zip(a, b):
        assert frames_equal(fa, fb)
    assert not all(frames_equal(fa, fc) for fa, fc in zip(a, c))


def test_empty_spec_list_passes_through():
    frames = [constant_frame(50)]
    out = list(attack_video(frames, [], seed=0))
    assert frames_equal(out[0], frames[0])


def oracle_attack(frame, spec, rng):
    """The attack arithmetic as first written, out of place: apply_attack must equal it."""

    def corrupt(plane):
        if spec.kind == "salt_pepper":
            hit = rng.random(plane.shape) < spec.density
            values = rng.integers(0, 2, plane.shape, dtype=np.uint8) * np.uint8(255)
            return np.where(hit, values, plane)
        if spec.kind == "gaussian":
            sigma = float(np.sqrt(spec.variance))
            noisy = plane.astype(np.float64) / 255.0 + rng.normal(spec.mean, sigma, plane.shape)
            return np.round(np.clip(noisy, 0.0, 1.0) * 255.0).astype(np.uint8)
        if spec.kind == "poisson":
            return np.clip(rng.poisson(plane.astype(np.float64)), 0, 255).astype(np.uint8)
        limit = float(np.sqrt(3.0 * spec.variance))
        factor = 1.0 + rng.uniform(-limit, limit, plane.shape)
        noisy = plane.astype(np.float64) / 255.0 * factor
        return np.round(np.clip(noisy, 0.0, 1.0) * 255.0).astype(np.uint8)

    return FrameYuv420(y=corrupt(frame.y), u=corrupt(frame.u), v=corrupt(frame.v))


ORACLE_SPECS = ["sp:0", "sp:0.01", "sp:0.5", "sp:1", "gauss:0:0", "gauss:0:0.01", "gauss:0.3:0",
                "gauss:-0.2:0.05", "gauss:0.1:2", "poisson", "speckle:0", "speckle:0.05", "speckle:3"]


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_attack_matches_the_out_of_place_oracle(text):
    spec = AttackSpec.parse(text)
    rng = np.random.default_rng(19)
    edges = np.array([0, 1, 2, 127, 128, 253, 254, 255], dtype=np.uint8)
    frames = [
        FrameYuv420(y=rng.integers(0, 256, (48, 64), dtype=np.uint8),
                    u=rng.integers(0, 256, (24, 32), dtype=np.uint8),
                    v=np.resize(edges, (24, 32))),
        constant_frame(0),
        constant_frame(255),
    ]
    for seed in range(3):
        for index, frame in enumerate(frames):
            ours, theirs = frame_rng(seed, index), frame_rng(seed, index)
            got = apply_attack(frame, spec, ours)
            want = oracle_attack(frame, spec, theirs)
            assert frames_equal(got, want)
            assert all(p.dtype == np.uint8 for p in (got.y, got.u, got.v))
            # the same draws, no more and no fewer
            assert ours.bit_generator.state == theirs.bit_generator.state
