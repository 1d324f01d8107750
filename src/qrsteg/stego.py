"""The embedding and extraction pipeline.

Per frame: the luma plane is clipped to [CLIP_LO, CLIP_HI], which keeps
the edited reconstruction inside [0, 255] (see wavelet), and decomposed
with the reversible integer Haar transform; two encrypted payload bit
streams go into the LSBs of the HL and HH detail coefficients, the other
two into the LSBs of the U and V chroma samples. Each level's bits go to
carrier positions given by one keyed index (the payload shuffle composed
with the carrier order), and every frame gets a fresh keystream whose
public values land in a sidecar the extractor consumes. Because the
transform is an exact integer bijection, a second decomposition of the
stored stego frame returns the edited coefficients bit for bit.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import elgamal, permute
from .bitplane import QrPlane
from .elgamal import ElGamalPrivate, ElGamalPublic, Keystream
from .errors import CapacityError, CryptoError, FormatError, ShapeError, quoted
from .quality import QualityReport
from .videoio import FrameYuv420, VideoMeta
from .wavelet import CLIP_HI, CLIP_LO, SubBands, fwd_haar_int, inv_haar_int

QR_LEVELS = ("L", "M", "Q", "H")

# The carrier each level's bits go to (FrameCoder._carriers), then the tag of its keyed order.
CARRIERS = {"L": "HL", "M": "HH", "Q": "U", "H": "V"}
CARRIER_TAGS = {
    "L": permute.TAG_COEFF_HL,
    "M": permute.TAG_COEFF_HH,
    "Q": permute.TAG_CHROMA_U,
    "H": permute.TAG_CHROMA_V,
}
PAYLOAD_TAGS = {
    "L": permute.TAG_PAYLOAD_L,
    "M": permute.TAG_PAYLOAD_M,
    "Q": permute.TAG_PAYLOAD_Q,
    "H": permute.TAG_PAYLOAD_H,
}
LEVEL_INDEX = {level: i for i, level in enumerate(QR_LEVELS)}

SIDECAR_FORMAT = "qrsteg-sidecar"
SIDECAR_VERSION = 1


@dataclass(frozen=True)
class StegoConfig:
    """Key material for one run, proved when built; private key only needed to extract.

    The public key passes validate (once per key object) and a private key,
    when given, must be its other half (elgamal.check_key_pair), so no stage
    downstream checks either again.
    """

    key: permute.StegoKey
    public: ElGamalPublic
    private: ElGamalPrivate | None = None

    def __post_init__(self):
        self.public.validate()
        if self.private is not None:
            elgamal.check_key_pair(self.public, self.private)


@dataclass
class FramePayload:
    """Per-level keystreams plus the cipher bits the carriers take.

    bundles[level] is the keystream the sender drew; its public values
    regenerate its key bytes at the receiver. bits[level] holds the level's
    capacity_bits cipher bits: plane bit b XOR keystream bit b, MSB-first.
    """

    bundles: dict[str, Keystream]
    bits: dict[str, np.ndarray]


def set_lsb(value, bit):
    """Force the floor-parity LSB: 2 * floor(v / 2) + bit. Never moves floor(v / 2).

    Computed as v ^ ((v ^ bit) & 1), which flips bit 0 of v exactly when it
    differs from bit. In two's complement, as numpy integers and Python ints
    both behave, bit 0 is v - 2 * floor(v / 2) and the other bits are
    floor(v / 2), so this is the floor form without a floor division. It
    keeps the dtype of v, uint8 included (v & ~1 would not: ~1 is negative).
    """
    return value ^ ((value ^ bit) & 1)


def get_lsb(value):
    """Floor-parity LSB: v - 2 * floor(v / 2), always 0 or 1.

    In two's complement that is bit 0, v & 1, for negative v as well.
    """
    return value & 1


def clip_cover(frame: FrameYuv420) -> FrameYuv420:
    """The cover as the embedder actually uses it: luma limited to [CLIP_LO, CLIP_HI]."""
    return FrameYuv420(y=np.clip(frame.y, CLIP_LO, CLIP_HI), u=frame.u.copy(), v=frame.v.copy())


class FrameCoder:
    """Embeds and extracts single frames of one geometry under one key.

    Each level's payload shuffle and carrier order are built once here and
    composed into one placement index: cipher bit j goes to carrier element
    place[j]. The indexes depend only on (key, size) and are reused across frames.
    """

    def __init__(self, key: permute.StegoKey, width: int, height: int):
        self.meta = VideoMeta(width, height)  # proves the geometry by the video header rule
        self.capacity_bits = (width // 2) * (height // 2)  # per carrier
        self._place: dict[str, np.ndarray] = {}
        plan = permute.DrawPlan(self.capacity_bits)
        for level in QR_LEVELS:
            carrier = plan.permutation(key, CARRIER_TAGS[level])
            shuffle = plan.permutation(key, PAYLOAD_TAGS[level])
            self._place[level] = place = np.empty_like(carrier)
            place[shuffle] = carrier  # cipher bit shuffle[t] goes to carrier element carrier[t]

    @staticmethod
    def _carriers(bands: SubBands, u: np.ndarray, v: np.ndarray) -> dict[str, np.ndarray]:
        """Each level's carrier array, the one CARRIERS names."""
        return {"L": bands.hl, "M": bands.hh, "Q": u, "H": v}

    def qr_shape(self) -> tuple[int, int]:
        """(width, height) every payload plane must have."""
        return self.meta.width // 2, self.meta.height // 2

    def embed(self, frame: FrameYuv420, payload: FramePayload) -> FrameYuv420:
        self.meta.check_frame(frame)
        for level in QR_LEVELS:
            bits = payload.bits.get(level)
            if bits is None or bits.size != self.capacity_bits:
                raise CapacityError(
                    f"level {level} carries {0 if bits is None else bits.size} bits, "
                    f"carrier holds exactly {self.capacity_bits}"
                )
        cover = clip_cover(frame)
        bands = fwd_haar_int(cover.y)
        for level, carrier in self._carriers(bands, cover.u, cover.v).items():
            flat = carrier.reshape(-1)  # a view: every carrier is C-contiguous
            idx = self._place[level]
            flat[idx] = set_lsb(flat[idx], payload.bits[level].astype(carrier.dtype))
        y = inv_haar_int(bands)
        if y.min() < 0 or y.max() > 255:
            raise ShapeError("internal error: reconstruction left the sample range")
        return FrameYuv420(y=y.astype(np.uint8), u=cover.u, v=cover.v)

    def extract(self, frame: FrameYuv420) -> dict[str, np.ndarray]:
        """Recover the four ciphertext bit streams in original bit order."""
        self.meta.check_frame(frame)
        carriers = self._carriers(fwd_haar_int(frame.y), frame.u, frame.v)
        return {
            level: get_lsb(carrier.reshape(-1)[self._place[level]]).astype(np.uint8, copy=False)
            for level, carrier in carriers.items()
        }


def payload_rng(key: permute.StegoKey, level: str, frame_index: int) -> permute.Splitmix64:
    """Ephemeral-exponent stream for one (frame, level), derived so frames
    can be processed in any order with identical results."""
    seed = permute.derive_seed(key.seed, permute.TAG_KEY_DRAW, LEVEL_INDEX[level], frame_index)
    return permute.Splitmix64(seed)


def prepare_payload(
    qr_set: Mapping[str, QrPlane], cfg: StegoConfig, frame_index: int, coder: FrameCoder
) -> FramePayload:
    """Encrypt one four-plane payload set: each level's plane bits (0 or 1) XOR a fresh keystream.

    The four keystreams are drawn together (elgamal.keystreams), each from
    its own payload_rng, once every plane has passed its checks.
    """
    qw, qh = coder.qr_shape()
    n = coder.capacity_bits
    for level in QR_LEVELS:
        plane = qr_set.get(level)
        if plane is None:
            raise CapacityError(f"payload set lacks level {level}")
        if (plane.width, plane.height) != (qw, qh):
            raise CapacityError(
                f"level {level} plane is {plane.width}x{plane.height}, cover needs {qw}x{qh}"
            )
    rngs = [payload_rng(cfg.key, level, frame_index) for level in QR_LEVELS]
    bundles = dict(zip(QR_LEVELS, elgamal.keystreams(cfg.public, (n + 7) // 8, rngs)))
    bits = {level: _key_bits(bundles[level].key_bytes, n) ^ qr_set[level].bits.ravel() for level in QR_LEVELS}
    return FramePayload(bundles=bundles, bits=bits)


def _key_bits(key: bytes, count: int) -> np.ndarray:
    """The first count bits of a keystream, MSB-first: bit b is bit 7 - b % 8 of byte b // 8."""
    return np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=count)


@dataclass(frozen=True)
class Sidecar:
    """Everything the extractor needs besides the keys and the stego video.

    Secret bits never appear here: per frame and level it records only the
    sender public values that regenerate the keystream. Proved when built,
    so read takes back all that write stores; the frame records, which
    embed_video appends, are read's to check.
    """

    video: VideoMeta
    key_fingerprint: str
    frames: list[dict[str, list[int]]] = field(default_factory=list)

    def __post_init__(self):
        fingerprint = self.key_fingerprint
        if not (isinstance(fingerprint, str) and re.fullmatch("[0-9a-f]{16}", fingerprint)):
            raise FormatError(f"sidecar key_fingerprint {quoted(fingerprint)} is not 16 lowercase hex digits")

    # the payload plane size and keystream bytes per level follow from the video size
    qr_width = property(lambda self: self.video.width // 2)
    qr_height = property(lambda self: self.video.height // 2)
    plain_len = property(lambda self: (self.qr_width * self.qr_height + 7) // 8)

    def to_json(self) -> str:
        """The text json.dumps(doc, indent=1) gives for the whole document.

        With indent set, json.dumps runs its pure-Python encoder, so only
        the head goes through it; the frames block is joined from strings.
        """
        head = {
            "format": SIDECAR_FORMAT,
            "version": SIDECAR_VERSION,
            "video": {
                "width": self.video.width,
                "height": self.video.height,
                "frame_count": len(self.frames),
                "frame_rate": self.video.frame_rate,
            },
            "qr": {"width": self.qr_width, "height": self.qr_height},
            "plain_len": self.plain_len,
            "key_fingerprint": self.key_fingerprint,
        }
        return f'{json.dumps(head, indent=1)[:-2]},\n "frames": {_frames_json(self.frames)}\n}}'

    @classmethod
    def from_json(cls, text: str) -> "Sidecar":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to parse
            raise FormatError(f"sidecar is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != SIDECAR_FORMAT:
            raise FormatError("not a qrsteg sidecar")
        if doc.get("version") != SIDECAR_VERSION:
            raise FormatError(f"unsupported sidecar version {quoted(doc.get('version'))}")
        try:
            video = doc["video"]
            meta = VideoMeta(_json_int(video["width"]), _json_int(video["height"]),
                             video.get("frame_rate", VideoMeta.frame_rate))
            qr_size = (_json_int(doc["qr"]["width"]), _json_int(doc["qr"]["height"]))
            plain_len = _json_int(doc["plain_len"])
            side = cls(meta, doc["key_fingerprint"], [_frame_record(record) for record in doc["frames"]])
            frame_count = _json_int(video["frame_count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed sidecar field: {exc}") from exc
        if frame_count != len(side.frames):
            raise FormatError(
                f"sidecar frame_count {frame_count} disagrees with its {len(side.frames)} frame records"
            )
        if qr_size != (side.qr_width, side.qr_height):
            raise FormatError(
                f"sidecar qr size {qr_size[0]}x{qr_size[1]} is not half of the {meta.width}x{meta.height} video"
            )
        if plain_len != side.plain_len:
            raise FormatError(f"sidecar plain_len {plain_len} disagrees with the payload size")
        return side

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="ascii")

    @classmethod
    def read(cls, path: str | Path) -> "Sidecar":
        """The sidecar in path; every failure is a FormatError that names the file."""
        try:
            text = Path(path).read_text(encoding="ascii")
        except (OSError, ValueError) as exc:  # ValueError: a byte that is not ASCII
            raise FormatError(f"cannot read sidecar {path}: {exc}") from exc
        try:
            return cls.from_json(text)
        except FormatError as exc:
            raise FormatError(f"sidecar {path}: {exc}") from exc


def _json_block(items: list[str], depth: int, brackets: str) -> str:
    """items as json.dumps(indent=1) lays out an array ("[]") or object ("{}") at nesting depth."""
    if not items:
        return brackets
    pad = " " * depth
    return f"{brackets[0]}\n{pad} " + f",\n{pad} ".join(items) + f"\n{pad}{brackets[1]}"


def _frames_json(frames: list[dict[str, list[int]]]) -> str:
    """The sidecar's "frames" value, public values as decimal strings, laid out as json.dumps would."""
    records = []
    for record in frames:
        levels = []
        for level, publics in record.items():
            # all values as one item, pre-joined with the separator _json_block uses at depth 3
            values = '"' + '",\n    "'.join(map(str, publics)) + '"'
            levels.append(f"{json.dumps(level)}: " + _json_block([values] if publics else [], 3, "[]"))
        records.append(_json_block(levels, 2, "{}"))
    return _json_block(records, 1, "[]")


def _frame_record(record) -> dict[str, list[int]]:
    """One sidecar frame: exactly the four levels, each a list of public values."""
    if not isinstance(record, dict) or set(record) != set(QR_LEVELS):
        raise FormatError(f"sidecar frame must hold exactly the levels {', '.join(QR_LEVELS)}")
    if not all(isinstance(publics, list) for publics in record.values()):
        raise FormatError("sidecar public values must be lists")
    return {level: elgamal.parse_decimals(record[level]) for level in QR_LEVELS}


def _json_int(value) -> int:
    """A sidecar count or size: a JSON integer, as the writer stores it."""
    if type(value) is not int:  # rejects floats, strings and booleans
        raise ValueError(f"{quoted(value)} is not a JSON integer")
    return value


def new_sidecar(cfg: StegoConfig, coder: FrameCoder, frame_rate: str = VideoMeta.frame_rate) -> Sidecar:
    return Sidecar(VideoMeta(coder.meta.width, coder.meta.height, frame_rate), cfg.key.fingerprint())


def embed_video(
    frames: Iterable[FrameYuv420],
    qr_set: Mapping[str, QrPlane],
    cfg: StegoConfig,
    coder: FrameCoder,
    sidecar: Sidecar,
    report: QualityReport,
    keys: list[dict[str, bytes]] | None = None,
) -> Iterator[FrameYuv420]:
    """Embed the payload set into every frame.

    Each frame appends its sender public values to the sidecar and its
    fidelity to the report and, when a keys list is given, its key bytes
    (FramePayload.bundles[level].key_bytes) to that list. Every frame
    draws fresh ephemeral exponents, so the same payload still produces
    different ciphertext from frame to frame.
    """
    for index, frame in enumerate(frames):
        payload = prepare_payload(qr_set, cfg, index, coder)
        sidecar.frames.append({lvl: list(payload.bundles[lvl].sender_publics) for lvl in QR_LEVELS})
        if keys is not None:
            keys.append({lvl: payload.bundles[lvl].key_bytes for lvl in QR_LEVELS})
        stego = coder.embed(frame, payload)
        report.embedded_bits += len(QR_LEVELS) * coder.capacity_bits
        report.add_frame(frame, stego)
        yield stego


@dataclass
class ExtractedSet:
    """One frame's recovered payload planes, keyed by level."""

    planes: dict[str, QrPlane]


def frame_keystreams(
    frames: Sequence[Mapping[str, Sequence[int]]], cfg: StegoConfig, plain_len: int
) -> list[dict[str, bytes]]:
    """The four keystreams of each sidecar frame record; a record's frame index is its position.

    Each level replays the sender's exponents from payload_rng and proves
    its public values against them as a whole, and every level of every
    record shares one table of alpha (elgamal.replay_keystreams). That
    gives the d^x bytes only when the private key matches the public key,
    which cfg proved when it was built. Noise changes the carried bits,
    never the keys, so callers decoding several copies of a frame can
    derive its keys once and reuse them.
    """
    levels = [(record[level], payload_rng(cfg.key, level, i)) for i, record in enumerate(frames) for level in QR_LEVELS]
    keys = iter(elgamal.replay_keystreams(levels, cfg.public, _private_key(cfg), plain_len))
    return [{level: next(keys) for level in QR_LEVELS} for _ in frames]


def _private_key(cfg: StegoConfig) -> ElGamalPrivate:
    if cfg.private is None:
        raise CryptoError("extraction requires the private key")
    return cfg.private


def decrypt_streams(
    streams: Mapping[str, np.ndarray], keys: Mapping[str, bytes], qr_width: int, qr_height: int
) -> ExtractedSet:
    """XOR each level's extracted bits with the first bits of its keystream, MSB-first."""
    bit_count = qr_width * qr_height
    key_len = (bit_count + 7) // 8
    planes: dict[str, QrPlane] = {}
    for level in QR_LEVELS:
        bits, key = streams[level], keys[level]
        if bits.size != bit_count:
            raise ShapeError(f"level {level} stream has {bits.size} bits, payload needs {bit_count}")
        if len(key) != key_len:
            raise FormatError(f"level {level} keystream has {len(key)} bytes, payload needs {key_len}")
        plain = _key_bits(key, bit_count) ^ bits
        planes[level] = QrPlane(qr_width, qr_height, plain.reshape(qr_height, qr_width))
    return ExtractedSet(planes=planes)


def decode_frame_streams(
    streams: Mapping[str, np.ndarray],
    publics_by_level: Mapping[str, Sequence[int]],
    cfg: StegoConfig,
    qr_width: int,
    qr_height: int,
    plain_len: int,
) -> ExtractedSet:
    """Decrypt extracted ciphertext bit streams back into payload planes.

    Keys come from the d^x rule, elgamal.regenerate_keystream; extract_video
    gets the same bytes faster from frame_keystreams, given the frame indexes.
    """
    private = _private_key(cfg)
    keys = {
        level: elgamal.regenerate_keystream(tuple(publics_by_level[level]), cfg.public.p, private, plain_len)
        for level in QR_LEVELS
    }
    return decrypt_streams(streams, keys, qr_width, qr_height)


def extract_video(
    frames: Iterable[FrameYuv420], cfg: StegoConfig, sidecar: Sidecar
) -> Iterator[ExtractedSet]:
    """Recover one payload set per frame using the sidecar's key material.

    The first frame must match the sidecar geometry. Every sidecar frame's
    keystreams are then derived, on one table sized to them all, before the
    coder is built, so a bad public value or a short list in any frame fails
    the run before any output, also when the video holds no frame.
    """
    frames = iter(frames)
    first = next(frames, None)
    if first is not None:
        sidecar.video.check_frame(first)
    keys = frame_keystreams(sidecar.frames, cfg, sidecar.plain_len)
    if first is None:
        return
    coder = FrameCoder(cfg.key, sidecar.video.width, sidecar.video.height)
    for index, frame in enumerate(itertools.chain([first], frames)):
        if index >= len(keys):
            raise FormatError(f"sidecar records {len(keys)} frames, video has more")
        yield decrypt_streams(coder.extract(frame), keys[index], sidecar.qr_width, sidecar.qr_height)
