"""Streaming readers and writers for the containers the pipeline touches.

Y4M for video in and out, headerless planar 4:2:0 for raw captures, and
binary PGM for payload images. Readers yield one frame at a time so
memory stays flat regardless of clip length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError, ShapeError, quoted

Y4M_MAGIC = b"YUV4MPEG2"
# VideoMeta's field for each header tag; all but W, H and F keep their tag letter, as VideoMeta.tokens prints them
_Y4M_TAG_FIELDS = {"W": "width", "H": "height", "F": "frame_rate", "I": "interlace", "A": "aspect", "C": "colorspace"}
# The form of each token but W and H: only the 8-bit 4:2:0 colorspaces, which differ in chroma siting
_Y4M_TOKEN_FORMS = {"F": "F[0-9]+:[0-9]+", "I": "I[ptbm?]", "A": "A[0-9]+:[0-9]+", "C": "C420(jpeg|paldv|mpeg2)?"}
# The longest Y4M header line read, the stream's or a frame's after FRAME,
# newline included; a longer one is refused after _Y4M_LINE_MAX + 1 bytes.
_Y4M_LINE_MAX = 512


@dataclass(eq=False)
class FrameYuv420:
    """One 4:2:0 frame: full-size luma plus quarter-size chroma planes."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        h, w = self.y.shape
        VideoMeta.check_size(w, h)
        if self.u.shape != (h // 2, w // 2) or self.v.shape != (h // 2, w // 2):
            raise ShapeError("chroma planes must be half-size in both dimensions")

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class VideoMeta:
    """A Y4M stream header, frozen; building one proves it by the header rules of docs/wire_format.md."""

    width: int
    height: int
    frame_rate: str = "25:1"
    interlace: str = "Ip"
    aspect: str = "A1:1"
    colorspace: str = "C420jpeg"

    def __post_init__(self):
        self.check_size(self.width, self.height)
        for token, form in zip(self.tokens()[2:], _Y4M_TOKEN_FORMS.values()):
            if not (isinstance(token, str) and re.fullmatch(form, token)):
                raise FormatError(f"Y4M header token {quoted(token)} is not of the form {form}")
        if (size := len(self.header())) > _Y4M_LINE_MAX:  # read_y4m would refuse it
            raise FormatError(f"Y4M header line of {size} bytes is longer than {_Y4M_LINE_MAX} bytes")

    @staticmethod
    def check_size(width: int, height: int) -> None:
        """Raise ShapeError unless a 4:2:0 frame can be width x height: both even and positive."""
        if width <= 0 or height <= 0 or width % 2 or height % 2:
            raise ShapeError(f"video dimensions must be even and positive, got {width}x{height}")

    def tokens(self) -> tuple[str, ...]:
        """The header's tokens after the magic: W, H, F, I, A, C."""
        return f"W{self.width}", f"H{self.height}", f"F{self.frame_rate}", self.interlace, self.aspect, self.colorspace

    def header(self) -> bytes:
        """The stream header line write_y4m prints, newline included."""
        return " ".join([Y4M_MAGIC.decode(), *self.tokens()]).encode("ascii") + b"\n"

    def check_frame(self, frame: FrameYuv420) -> None:
        """Raise ShapeError unless frame has this header's width and height."""
        if (frame.width, frame.height) != (self.width, self.height):
            raise ShapeError(f"frame is {frame.width}x{frame.height}, expected {self.width}x{self.height}")

    def frame_bytes(self) -> int:
        return self.width * self.height * 3 // 2


# Largest single read. A header may declare a frame of 10^18 bytes, and
# stream.read(n) allocates all n bytes before it reads any.
_READ_CHUNK = 1 << 24


def _read_exact(stream, n: int, what: str) -> bytes:
    chunks = []
    while n > 0 and (chunk := stream.read(min(n, _READ_CHUNK))):
        chunks.append(chunk)
        n -= len(chunk)
    if n:
        raise FormatError(f"truncated stream while reading {what}")
    return b"".join(chunks)


def _split_frame(data: bytes, width: int, height: int) -> FrameYuv420:
    ysize = width * height
    csize = ysize // 4
    y = np.frombuffer(data[:ysize], dtype=np.uint8).reshape(height, width)
    u = np.frombuffer(data[ysize : ysize + csize], dtype=np.uint8).reshape(height // 2, width // 2)
    v = np.frombuffer(data[ysize + csize :], dtype=np.uint8).reshape(height // 2, width // 2)
    # copies so frames stay independent of the read buffer
    return FrameYuv420(y=y.copy(), u=u.copy(), v=v.copy())


def _read_y4m_line(stream, what: str) -> bytes:
    """The bytes of stream up to its next newline, which is read but not returned."""
    line = bytearray()
    while not line.endswith(b"\n"):
        ch = stream.read(1)
        if not ch:
            raise FormatError(f"truncated stream while reading {what}")
        line += ch
        if len(line) > _Y4M_LINE_MAX:
            raise FormatError(f"{what} longer than {_Y4M_LINE_MAX} bytes")
    return bytes(line[:-1])


def read_y4m(stream) -> tuple[VideoMeta, Iterator[FrameYuv420]]:
    """Parse the stream header and return (meta, frame iterator)."""
    fields = _read_y4m_line(stream, "Y4M header line").split(b" ")
    if fields[0] != Y4M_MAGIC:
        raise FormatError("not a Y4M stream (bad magic)")
    tags = {}  # VideoMeta's arguments, only those the header gives: VideoMeta holds the defaults and rules
    for token in filter(None, fields[1:]):
        tag, value = chr(token[0]), token[1:].decode("ascii", "replace")
        if (field := _Y4M_TAG_FIELDS.get(tag)) is None:
            continue
        if field in tags:  # so the value VideoMeta proves is the only one given
            raise FormatError(f"Y4M header gives {tag} twice")
        if tag in ("W", "H"):
            if not value.isdigit():
                raise FormatError(f"Y4M header token {tag}{value} is not a decimal integer")
            tags[field] = int(value)
        else:
            tags[field] = value if tag == "F" else tag + value
    if "width" not in tags or "height" not in tags:
        raise FormatError("Y4M header lacks W or H")
    meta = VideoMeta(**tags)

    def frames() -> Iterator[FrameYuv420]:
        nbytes = meta.frame_bytes()
        while True:
            marker = stream.read(5)
            if not marker:
                return
            if marker != b"FRAME":
                raise FormatError(f"expected FRAME marker, got {marker!r}")
            _read_y4m_line(stream, "Y4M frame parameter line")  # skipped
            yield _split_frame(_read_exact(stream, nbytes, "frame data"), meta.width, meta.height)

    return meta, frames()


def write_y4m(meta: VideoMeta, frames: Iterable[FrameYuv420], stream) -> int:
    """Emit header plus FRAME-delimited planes; returns the frame count."""
    stream.write(meta.header())
    count = 0
    for frame in frames:
        meta.check_frame(frame)
        stream.write(b"FRAME\n")
        stream.write(frame.y.tobytes())
        stream.write(frame.u.tobytes())
        stream.write(frame.v.tobytes())
        count += 1
    return count


def read_raw_yuv(stream, width: int, height: int) -> Iterator[FrameYuv420]:
    """Iterate frames of a headerless planar 4:2:0 stream."""
    nbytes = VideoMeta(width=width, height=height).frame_bytes()
    while first := stream.read(1):
        # sizes, not nbytes: a parsed size has at most the 4,300 digits str() prints, nbytes may have more
        data = first + _read_exact(stream, nbytes - 1, f"a raw {width}x{height} frame")
        yield _split_frame(data, width, height)


# --- binary PGM -------------------------------------------------------------


# The longest PGM header token read: the magic and three decimal fields need
# a few bytes each, and a longer one is refused at once, unread.
_PGM_TOKEN_MAX = 32


def _next_pgm_token(stream) -> bytes:
    token = b""
    while True:
        ch = stream.read(1)
        if not ch:
            raise FormatError("truncated PGM header")
        if ch == b"#":  # comment to end of line
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        if len(token) == _PGM_TOKEN_MAX:
            raise FormatError(f"PGM header token longer than {_PGM_TOKEN_MAX} bytes")
        token += ch


def read_pgm(stream) -> np.ndarray:
    """Read a binary (P5) PGM with maxval 255 into a (h, w) uint8 array."""
    if _next_pgm_token(stream) != b"P5":
        raise FormatError("not a binary PGM (magic must be P5)")
    fields = []
    for _ in range(3):  # width, height and maxval, each checked before the next is read
        token = _next_pgm_token(stream)
        if not token.isdigit():  # ASCII digits only: int() would also take a sign or "_"
            raise FormatError(f"PGM header field {token!r} is not a decimal integer")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported PGM maxval {maxval}; only 255 is handled")
    data = _read_exact(stream, width * height, "PGM pixels")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(image: np.ndarray, stream) -> None:
    if image.ndim != 2 or image.size == 0:
        raise ShapeError("PGM writer expects a non-empty 2D array")
    h, w = image.shape
    stream.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
    stream.write(image.astype(np.uint8).tobytes())
