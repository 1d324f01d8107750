import io

import numpy as np
import pytest

from qrsteg import synth, videoio
from qrsteg.errors import FormatError, ShapeError
from qrsteg.videoio import (
    FrameYuv420,
    VideoMeta,
    read_pgm,
    read_raw_yuv,
    read_y4m,
    write_pgm,
    write_y4m,
)


def make_frames(n, w=8, h=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        FrameYuv420(
            y=rng.integers(0, 256, (h, w), dtype=np.uint8),
            u=rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
            v=rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
        )
        for _ in range(n)
    ]


def test_header_parse_cif():
    buf = io.BytesIO(b"YUV4MPEG2 W352 H288 F30:1 Ip A1:1 C420jpeg\n")
    meta, frames = read_y4m(buf)
    assert (meta.width, meta.height) == (352, 288)
    assert meta.frame_rate == "30:1"
    assert list(frames) == []


def test_bad_magic_rejected():
    with pytest.raises(FormatError):
        read_y4m(io.BytesIO(b"JUNK W2 H2\n"))


def test_non_420_colorspace_rejected():
    with pytest.raises(FormatError):
        read_y4m(io.BytesIO(b"YUV4MPEG2 W4 H4 C444\n"))


def test_c420_variants_accepted():
    for cs in (b"C420", b"C420jpeg", b"C420paldv", b"C420mpeg2"):
        meta, _ = read_y4m(io.BytesIO(b"YUV4MPEG2 W4 H4 " + cs + b"\n"))
        assert meta.colorspace.encode() == cs


def test_truncated_frame_is_an_error():
    data = b"YUV4MPEG2 W4 H4\nFRAME\n" + bytes(10)  # needs 24
    meta, frames = read_y4m(io.BytesIO(data))
    with pytest.raises(FormatError):
        list(frames)


def test_y4m_roundtrip_preserves_frame_payloads():
    frames = make_frames(2)
    meta = VideoMeta(width=8, height=6, frame_rate="30:1")
    buf = io.BytesIO()
    assert write_y4m(meta, frames, buf) == 2
    buf.seek(0)
    meta2, it = read_y4m(buf)
    back = list(it)
    assert len(back) == 2
    for a, b in zip(frames, back):
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
    # writing again reproduces the exact same bytes
    buf2 = io.BytesIO()
    write_y4m(meta2, back, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_y4m_empty_video_is_header_only():
    buf = io.BytesIO()
    write_y4m(VideoMeta(width=4, height=4), [], buf)
    assert buf.getvalue().endswith(b"\n")
    assert b"FRAME" not in buf.getvalue()


def test_frame_size_accounting():
    # One CIF frame occupies 352*288*1.5 = 152,064 payload bytes.
    assert VideoMeta(width=352, height=288).frame_bytes() == 152_064


def test_write_rejects_mismatched_frames():
    frames = make_frames(1, w=8, h=6)
    with pytest.raises(ShapeError):
        write_y4m(VideoMeta(width=16, height=6), frames, io.BytesIO())


def test_frame_params_after_marker_are_skipped():
    frame = make_frames(1, w=2, h=2)[0]
    payload = frame.y.tobytes() + frame.u.tobytes() + frame.v.tobytes()
    data = b"YUV4MPEG2 W2 H2\nFRAME Xtag\n" + payload
    _, it = read_y4m(io.BytesIO(data))
    got = list(it)
    assert len(got) == 1 and np.array_equal(got[0].y, frame.y)


def test_raw_yuv_single_frame():
    data = bytes(range(24))  # 4x4 -> 16 + 4 + 4
    frames = list(read_raw_yuv(io.BytesIO(data), 4, 4))
    assert len(frames) == 1
    assert frames[0].y.tolist()[0] == [0, 1, 2, 3]
    assert frames[0].u.tolist() == [[16, 17], [18, 19]]


def test_raw_yuv_rejects_trailing_bytes():
    with pytest.raises(FormatError):
        list(read_raw_yuv(io.BytesIO(bytes(25)), 4, 4))


def test_raw_yuv_frame_count_arithmetic():
    data = bytes(24 * 5)
    assert len(list(read_raw_yuv(io.BytesIO(data), 4, 4))) == 5


def test_pgm_roundtrip():
    image = np.arange(48, dtype=np.uint8).reshape(6, 8)
    buf = io.BytesIO()
    write_pgm(image, buf)
    buf.seek(0)
    assert np.array_equal(read_pgm(buf), image)


def test_pgm_header_layout():
    buf = io.BytesIO()
    write_pgm(np.zeros((2, 3), dtype=np.uint8), buf)
    assert buf.getvalue() == b"P5\n3 2\n255\n" + bytes(6)


def test_pgm_comments_and_whitespace():
    data = b"P5 # binary pgm\n# size follows\n 3\t2 \n255\n" + bytes(6)
    assert read_pgm(io.BytesIO(data)).shape == (2, 3)


def test_pgm_rejects_wrong_magic_and_maxval():
    with pytest.raises(FormatError):
        read_pgm(io.BytesIO(b"P2\n1 1\n255\n0"))
    with pytest.raises(FormatError):
        read_pgm(io.BytesIO(b"P5\n1 1\n65535\n\x00\x00"))


@pytest.mark.parametrize("fields", [b"+2 1_1 0255", b"3 +2 255", b"3 2 +255", b"-3 2 255"])
def test_pgm_header_fields_must_be_ascii_digits(fields):
    # int() would take a sign and "_": the first header once read as an 11x2 image.
    with pytest.raises(FormatError, match="is not a decimal integer"):
        read_pgm(io.BytesIO(b"P5 " + fields + b"\n" + bytes(66)))


class CountingStream(io.BytesIO):
    """A BytesIO that counts the bytes read from it."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.bytes_read = 0

    def read(self, size=-1):
        out = super().read(size)
        self.bytes_read += len(out)
        return out


@pytest.mark.parametrize("field", range(4), ids=["magic", "width", "height", "maxval"])
def test_pgm_refuses_a_long_header_token_unread(field):
    # Growing a token byte by byte is quadratic in its length: a 1 MB width
    # token once took 19 s to refuse. No more than cap + 1 bytes of it are read.
    cap = videoio._PGM_TOKEN_MAX
    fields = [b"P5", b"3", b"2", b"255"]
    fields[field] = b"9" * 1_000_000
    stream = CountingStream(b" ".join(fields) + b"\n" + bytes(6))
    with pytest.raises(FormatError, match=f"PGM header token longer than {cap} bytes"):
        read_pgm(stream)
    assert stream.bytes_read <= len(b" ".join(fields[:field] + [b""])) + cap + 1
    # A token of exactly cap bytes is read whole.
    assert read_pgm(io.BytesIO(b"P5 " + b"0" * (cap - 1) + b"3 2 255\n" + bytes(6))).shape == (2, 3)


def test_y4m_refuses_a_long_frame_parameter_line_unread():
    # The bytes after FRAME were read one at a time to a newline, with no
    # limit: a 1 MB parameter line took 0.33 s to refuse. Now no more than
    # cap + 1 of its bytes are read.
    cap = videoio._Y4M_LINE_MAX
    header = b"YUV4MPEG2 W2 H2\n"
    frame = b"FRAME\n" + bytes(6)
    stream = CountingStream(header + frame + b"FRAME " + b"X" * 1_000_000 + b"\n" + bytes(6))
    _, frames = read_y4m(stream)
    next(frames)
    with pytest.raises(FormatError, match=f"Y4M frame parameter line longer than {cap} bytes"):
        next(frames)
    assert stream.bytes_read <= len(header + frame + b"FRAME") + cap + 1
    # A parameter line of exactly cap bytes, newline included, is read whole.
    _, frames = read_y4m(io.BytesIO(header + b"FRAME" + b" " * (cap - 1) + b"\n" + bytes(6)))
    assert next(frames).y.shape == (2, 2)


def test_meta_refuses_a_header_longer_than_read_y4m_takes():
    # "YUV4MPEG2 W<digits> H2 F25:1 Ip A1:1 C420jpeg\n" is 38 bytes and the width's digits.
    cap = videoio._Y4M_LINE_MAX
    widest = VideoMeta(width=int("2" * (cap - 38)), height=2)
    stream = io.BytesIO()
    assert write_y4m(widest, [], stream) == 0
    assert len(stream.getvalue()) == cap
    stream.seek(0)
    assert read_y4m(stream)[0] == widest
    with pytest.raises(FormatError, match=f"^Y4M header line of {cap + 1} bytes is longer than {cap} bytes$"):
        VideoMeta(width=int("2" * (cap - 37)), height=2)


@pytest.mark.parametrize(
    "field,value,token",
    [("frame_rate", "bogus", "Fbogus"), ("frame_rate", 7, "F7"), ("frame_rate", "30", "F30"),
     ("interlace", "Ix", "Ix"), ("interlace", "p", "p"), ("aspect", "A1", "A1"),
     ("colorspace", "C420p10", "C420p10"), ("colorspace", "420jpeg", "420jpeg")],
)
def test_meta_rejects_a_value_the_y4m_header_rules_refuse(field, value, token):
    # The rules read_y4m applies to F, I, A and C live in VideoMeta, so every reader shares them.
    with pytest.raises(FormatError, match=f"Y4M header token {token!r} is not"):
        VideoMeta(width=16, height=16, **{field: value})


@pytest.mark.parametrize("header", [b"YUV4MPEG2 W16 H16 Fbogus F30:1\n", b"YUV4MPEG2 W16 H16 W18\n"],
                         ids=["bad-then-good-frame-rate", "width-twice"])
def test_read_y4m_refuses_a_tag_given_twice(header):
    # One value per tag, so the value VideoMeta proves is the one the header gives.
    with pytest.raises(FormatError, match="Y4M header gives [FW] twice"):
        read_y4m(io.BytesIO(header))


def test_meta_rejects_odd_dimensions():
    # A frame proves its luma by the same rule, with the same message, for odd and zero sizes.
    for width, height in ((3, 4), (4, 5), (0, 4), (4, 0)):
        message = f"^video dimensions must be even and positive, got {width}x{height}$"
        with pytest.raises(ShapeError, match=message):
            VideoMeta(width=width, height=height)
        with pytest.raises(ShapeError, match=message):
            FrameYuv420(
                y=np.zeros((height, width), dtype=np.uint8),
                u=np.zeros((height // 2, width // 2), dtype=np.uint8),
                v=np.zeros((height // 2, width // 2), dtype=np.uint8),
            )
    with pytest.raises(ShapeError):
        FrameYuv420(
            y=np.zeros((4, 4), dtype=np.uint8),
            u=np.zeros((2, 3), dtype=np.uint8),
            v=np.zeros((2, 2), dtype=np.uint8),
        )


def test_synth_generators_shape_and_determinism():
    for maker in (synth.gradient_video, synth.noise_video, synth.moving_block_video):
        meta, frames = maker(16, 12, 3, seed=5)
        meta2, frames2 = maker(16, 12, 3, seed=5)
        assert (meta.width, meta.height) == (16, 12) and len(frames) == 3
        for a, b in zip(frames, frames2):
            assert np.array_equal(a.y, b.y) and np.array_equal(a.u, b.u)


def test_synth_qr_plane_is_bilevel():
    plane = synth.qr_like_plane(32, 32, seed=1)
    assert plane.bits.shape == (32, 32)
    assert set(np.unique(plane.bits)) <= {0, 1}
    assert not np.array_equal(plane.bits, synth.qr_like_plane(32, 32, seed=2).bits)
