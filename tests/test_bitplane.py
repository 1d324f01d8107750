import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrsteg import bitplane
from qrsteg.bitplane import PackedPayload, QrPlane, load_qr, pack, render, unpack
from qrsteg.errors import FormatError, ShapeError


def reference_pack(bits):
    # Independent MSB-first packer: bit b -> byte b//8, position 7 - b%8.
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i // 8] |= 1 << (7 - i % 8)
    return bytes(out)


def test_load_qr_all_black():
    plane = load_qr(np.zeros((4, 6), dtype=np.uint8))
    assert plane.bits.all()
    assert (plane.width, plane.height) == (6, 4)


def test_load_qr_standard_payload_size():
    plane = load_qr(np.full((144, 176), 255, dtype=np.uint8))
    assert plane.bits.size == 25_344
    assert not plane.bits.any()


def test_load_qr_checkerboard_threshold():
    raster = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    assert load_qr(raster).bits.tolist() == [[1, 0], [0, 1]]


def test_load_qr_threshold_boundary():
    raster = np.array([[127, 128]], dtype=np.uint8)
    assert load_qr(raster).bits.tolist() == [[1, 0]]


def test_load_qr_rejects_empty():
    with pytest.raises(FormatError):
        load_qr(np.zeros((0, 0), dtype=np.uint8))
    with pytest.raises(FormatError):
        load_qr(np.zeros(8, dtype=np.uint8))


def test_pack_single_byte_vector():
    bits = np.array([[1, 0, 0, 1, 0, 1, 1, 0]], dtype=np.uint8)
    payload = pack(QrPlane(width=8, height=1, bits=bits))
    assert payload.data == b"\x96"
    assert payload.data == reference_pack(bits.reshape(-1))


def test_pack_standard_payload_is_3168_bytes():
    plane = QrPlane(width=176, height=144, bits=np.ones((144, 176), dtype=np.uint8))
    assert len(pack(plane).data) == 3168


def test_pack_pads_final_byte_with_zeros():
    bits = np.ones((1, 3), dtype=np.uint8)
    payload = pack(QrPlane(width=3, height=1, bits=bits))
    assert payload.data == b"\xe0"  # 111 then five zero pad bits


@pytest.mark.parametrize("bad", [2, -1])
def test_plane_refuses_bits_other_than_0_and_1(bad):
    bits = np.zeros((2, 3), dtype=np.int16)
    bits[1, 2] = bad
    with pytest.raises(ShapeError):
        QrPlane(width=3, height=2, bits=bits)


@pytest.mark.parametrize("dtype", [bool, np.uint8])
def test_plane_accepts_bool_and_uint8_bits(dtype):
    bits = (np.arange(6).reshape(2, 3) % 2).astype(dtype)
    assert QrPlane(width=3, height=2, bits=bits).bits is bits


def test_unpack_rejects_dimension_mismatch():
    payload = PackedPayload(bit_count=8, data=b"\x00")
    with pytest.raises(ShapeError):
        unpack(payload, 3, 3)


def test_roundtrip_random_planes():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        w = int(rng.integers(1, 40))
        h = int(rng.integers(1, 40))
        bits = rng.integers(0, 2, size=(h, w)).astype(np.uint8)
        plane = QrPlane(width=w, height=h, bits=bits)
        back = unpack(pack(plane), w, h)
        assert np.array_equal(back.bits, bits)


@settings(max_examples=200)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_roundtrip_property(w, h, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=(h, w)).astype(np.uint8)
    plane = QrPlane(width=w, height=h, bits=bits)
    assert np.array_equal(unpack(pack(plane), w, h).bits, bits)
    assert pack(plane).data == reference_pack(bits.reshape(-1))


def test_payload_from_bits_matches_pack():
    bits = np.array([[1, 1, 0], [0, 1, 0]], dtype=np.uint8)
    plane = QrPlane(width=3, height=2, bits=bits)
    packed = bitplane.payload_from_bits(bits.reshape(-1))
    assert packed.bit_count == 6
    assert packed.data == pack(plane).data == bytes([0b11001000])


def test_render_then_load_is_identity():
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=(17, 23)).astype(np.uint8)
    plane = QrPlane(width=23, height=17, bits=bits)
    assert np.array_equal(load_qr(render(plane)).bits, plane.bits)


@pytest.mark.parametrize("shape", [(1, 1), (17, 23), (144, 176)])
def test_render_matches_the_where_form(shape):
    rng = np.random.default_rng(shape[0])
    for bits in (rng.integers(0, 2, size=shape), np.zeros(shape), np.ones(shape)):
        plane = QrPlane(width=shape[1], height=shape[0], bits=bits.astype(np.uint8))
        image = render(plane)
        assert image.dtype == np.uint8 and image.shape == shape
        assert np.array_equal(image, np.where(plane.bits != 0, 0, 255).astype(np.uint8))
