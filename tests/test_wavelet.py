import itertools

import numpy as np
import pytest

from qrsteg.errors import ShapeError
from qrsteg.stego import set_lsb
from qrsteg.wavelet import SubBands, fwd_haar_int, inv_haar_int

FIG_IMAGE_3X3 = np.array([[12, 66, 23], [204, 138, 76], [0, 94, 51]])


def test_constant_input_has_zero_detail():
    bands = fwd_haar_int(np.full((8, 8), 10))
    assert (bands.ll == 10).all()
    assert not bands.lh.any() and not bands.hl.any() and not bands.hh.any()


def test_pair_rule_hand_example():
    # Rows of (12, 7): s = floor(19/2) = 9, d = 5; the column pass over
    # two identical rows leaves them in ll and hl with zero detail.
    plane = np.array([[12, 7], [12, 7]])
    bands = fwd_haar_int(plane)
    assert bands.ll.item() == 9
    assert bands.hl.item() == 5
    assert bands.lh.item() == 0 and bands.hh.item() == 0
    assert (inv_haar_int(bands) == plane).all()


def test_inverse_floor_semantics_on_negative_detail():
    # s = 9, d = -5: b = 9 - floor(-5/2) = 12, a = -5 + 12 = 7
    bands = SubBands(
        ll=np.array([[9]]), lh=np.array([[0]]), hl=np.array([[-5]]), hh=np.array([[0]])
    )
    assert inv_haar_int(bands).tolist() == [[7, 12], [7, 12]]


def test_zero_bands_give_zero_plane():
    z = np.zeros((3, 5), dtype=np.int64)
    assert not inv_haar_int(SubBands(ll=z, lh=z, hl=z, hh=z)).any()


def test_roundtrip_padded_demo_image():
    padded = np.zeros((4, 4), dtype=np.int64)
    padded[:3, :3] = FIG_IMAGE_3X3
    assert (inv_haar_int(fwd_haar_int(padded)) == padded).all()


def test_roundtrip_exhaustive_2x2_corner_values():
    values = (0, 1, 127, 128, 254, 255)
    for a, b, c, d in itertools.product(values, repeat=4):
        plane = np.array([[a, b], [c, d]])
        assert (inv_haar_int(fwd_haar_int(plane)) == plane).all()


def test_roundtrip_random_matrices():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        plane = rng.integers(0, 256, size=(16, 16))
        assert (inv_haar_int(fwd_haar_int(plane)) == plane).all()


def test_roundtrip_rectangular_and_offsize():
    rng = np.random.default_rng(5)
    for h, w in ((2, 10), (10, 2), (6, 20), (34, 12)):
        plane = rng.integers(0, 256, size=(h, w))
        assert (inv_haar_int(fwd_haar_int(plane)) == plane).all()


def test_band_value_ranges():
    rng = np.random.default_rng(77)
    for _ in range(50):
        bands = fwd_haar_int(rng.integers(0, 256, size=(32, 32)))
        assert bands.ll.min() >= 0 and bands.ll.max() <= 255
        for band in (bands.lh, bands.hl, bands.hh):
            assert band.min() >= -510 and band.max() <= 510


def test_lsb_edits_survive_reconstruction():
    # The property the embedder depends on: writing detail-band LSBs on a
    # [2, 253] plane keeps pixels in range and a second decomposition
    # returns exactly the edited coefficients.
    rng = np.random.default_rng(2024)
    for _ in range(50):
        plane = np.clip(rng.integers(0, 256, size=(16, 16)), 2, 253)
        bands = fwd_haar_int(plane)
        hl = 2 * (bands.hl >> 1) + rng.integers(0, 2, bands.hl.shape)
        hh = 2 * (bands.hh >> 1) + rng.integers(0, 2, bands.hh.shape)
        stego = inv_haar_int(SubBands(ll=bands.ll, lh=bands.lh, hl=hl, hh=hh))
        assert stego.min() >= 0 and stego.max() <= 255
        assert np.abs(stego - plane).max() <= 2
        again = fwd_haar_int(stego)
        assert (again.hl == hl).all() and (again.hh == hh).all()
        assert (again.ll == bands.ll).all() and (again.lh == bands.lh).all()


def test_rejects_odd_dimensions():
    with pytest.raises(ShapeError):
        fwd_haar_int(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        fwd_haar_int(np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        inv_haar_int(
            SubBands(
                ll=np.zeros((2, 2)), lh=np.zeros((2, 2)), hl=np.zeros((2, 2)), hh=np.zeros((2, 3))
            )
        )


def assert_same_bands(got, want):
    for name in ("ll", "lh", "hl", "hh"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_uint8_planes_work_in_int16():
    bands = fwd_haar_int(np.zeros((4, 6), dtype=np.uint8))
    assert {b.dtype for b in (bands.ll, bands.lh, bands.hl, bands.hh)} == {np.dtype(np.int16)}
    assert inv_haar_int(bands).dtype == np.int16
    # any other input keeps the generic int64 work dtype
    for dtype in (np.int16, np.int32, np.int64, np.uint16, np.float64):
        assert fwd_haar_int(np.zeros((4, 6), dtype=dtype)).hl.dtype == np.int64
        assert inv_haar_int(fwd_haar_int(np.zeros((4, 6), dtype=dtype))).dtype == np.int64


def test_uint8_input_matches_int64_input_on_all_corner_quads():
    # Extremes of the uint8 range, where the +-510 bound is reached.
    values = np.array((0, 1, 2, 127, 128, 253, 254, 255))
    quads = np.array(list(itertools.product(values, repeat=4)))  # every 2x2 block
    plane = quads.reshape(-1, 2, 2).transpose(1, 0, 2).reshape(2, -1)
    narrow = fwd_haar_int(plane.astype(np.uint8))
    wide = fwd_haar_int(plane.astype(np.int64))
    assert_same_bands(narrow, wide)
    assert narrow.hh.min() == -510 and narrow.hh.max() == 510
    assert np.array_equal(inv_haar_int(narrow), plane)


def test_uint8_input_matches_int64_input_on_random_planes():
    rng = np.random.default_rng(612)
    for h, w in ((2, 2), (16, 16), (288, 352), (34, 12)):
        plane = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        narrow, wide = fwd_haar_int(plane), fwd_haar_int(plane.astype(np.int64))
        assert_same_bands(narrow, wide)
        assert np.array_equal(inv_haar_int(narrow), inv_haar_int(wide))


def test_inverse_of_lsb_edited_bands_matches_int64():
    # Worst case for the int16 inverse: extreme planes with every detail LSB
    # forced, which pushes detail bands to +-511.
    rng = np.random.default_rng(37)
    for _ in range(200):
        plane = rng.choice(np.array([0, 1, 254, 255], dtype=np.uint8), size=(8, 8))
        bands = fwd_haar_int(plane)
        bits = [rng.integers(0, 2, bands.hl.shape) for _ in range(2)]
        narrow = SubBands(ll=bands.ll, lh=bands.lh,
                          hl=set_lsb(bands.hl, bits[0].astype(np.int16)),
                          hh=set_lsb(bands.hh, bits[1].astype(np.int16)))
        wide = SubBands(ll=bands.ll.astype(np.int64), lh=bands.lh.astype(np.int64),
                        hl=2 * (bands.hl.astype(np.int64) // 2) + bits[0],
                        hh=2 * (bands.hh.astype(np.int64) // 2) + bits[1])
        assert narrow.hl.dtype == np.int16
        out = inv_haar_int(narrow)
        assert out.dtype == np.int16
        assert np.array_equal(out, inv_haar_int(wide))
        assert np.abs(out).max() < 2600
