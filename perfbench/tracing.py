"""Traced run: the same session rebuilt from qrsteg's public library calls.

Each CLI command of a cycle is replayed as a job made of the calls the
command makes, with a span around every call into a layer. Spans stay in
memory and are written out when the run ends.

Where one public call contains another layer (``prepare_payload`` runs
``stream_encrypt``, ``FrameCoder.embed`` runs the Haar pair), the inner
function is timed again on the same inputs as a *probe* span whose parent
is the outer span. The outer layer's self time is then its duration minus
its probes' durations; the report labels it as derived. Probe time is work
the CLI does not do, so it is left out of the traced wall time that shares
are taken of, and shows up in the tracing overhead instead.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from qrsteg.attacks import AttackSpec, apply_attack, frame_rng
from qrsteg.bitplane import PackedPayload, load_qr, pack, payload_from_bits, render, unpack
from qrsteg.cli import parse_seed_text
from qrsteg.elgamal import (
    CipherBundle,
    load_private_key,
    load_public_key,
    regenerate_keystream,
    stream_decrypt,
    stream_encrypt,
    xor_bytes,
)
from qrsteg.permute import StegoKey, derive_seed
from qrsteg.quality import QualityReport, mse, ssim
from qrsteg.stego import (
    CARRIER_TAGS,
    PAYLOAD_TAGS,
    QR_LEVELS,
    FrameCoder,
    Sidecar,
    StegoConfig,
    clip_cover,
    decode_frame_streams,
    new_sidecar,
    payload_rng,
    prepare_payload,
)
from qrsteg.synth import qr_like_plane
from qrsteg.videoio import read_pgm, read_y4m, write_pgm, write_y4m
from qrsteg.wavelet import fwd_haar_int, inv_haar_int

from workloads import SWEEP_ATTACKS, Session, Tally, sha256_file

NOISE_SALT = 0x7E57  # the replayed sweep draws its own attack noise


@dataclass
class Span:
    cycle: int
    name: str
    parent: int | None  # index of the enclosing span, or of the span a probe measures
    probe: bool
    n: int  # frames (or calls) of work this span counts toward its layer
    start: float = 0.0
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.cycle = 0
        self.counts: dict[str, int] = defaultdict(int)  # per-cycle counters, reset per cycle
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, n: int = 1, probe_of: int | None = None):
        parent = probe_of if probe_of is not None else (self._stack[-1] if self._stack else None)
        index = len(self.spans)
        record = Span(self.cycle, name, parent, probe_of is not None, n)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield index
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value


# --- replayed jobs --------------------------------------------------------------


def _embed_frame(tr: Tracer, coder, cfg, planes, packed, index, frame, *, clip_mse: bool):
    """prepare_payload + FrameCoder.embed for one frame, with their probes."""
    with tr.span("quality.mse", n=1):
        ref = clip_cover(frame)
        if clip_mse:
            mse(frame, ref)
    with tr.span("stego.prepare") as outer:
        payload = prepare_payload(planes, cfg, index, coder)
    with tr.span("elgamal.encrypt", probe_of=outer):
        bundles = {lvl: stream_encrypt(packed[lvl], cfg.public, payload_rng(cfg.key, lvl, index))
                   for lvl in QR_LEVELS}
    tr.count("elgamal.draws", sum(len(b.sender_publics) for b in bundles.values()))
    if any(bundles[lvl].sender_publics != payload.bundles[lvl].sender_publics for lvl in QR_LEVELS):
        raise RuntimeError("probe stream_encrypt disagrees with prepare_payload")
    with tr.span("stego.embed") as outer:
        stego = coder.embed(frame, payload)
    with tr.span("wavelet.fwd", probe_of=outer):
        bands = fwd_haar_int(ref.y)
    with tr.span("wavelet.inv", probe_of=outer):
        inv_haar_int(bands)
    with tr.span("quality.mse", n=0):
        report = QualityReport()
        report.add_frame(ref, stego)
    return payload, stego


def _build_coder(tr: Tracer, key, width, height) -> FrameCoder:
    with tr.span("permute.coder_build"):
        coder = FrameCoder(key, width, height)
    tr.count("permute.elements_shuffled", (len(CARRIER_TAGS) + len(PAYLOAD_TAGS)) * coder.capacity_bits)
    return coder


def _read_clip(tr: Tracer, path, limit=None):
    with open(path, "rb") as handle:
        meta, frames = read_y4m(handle)
        out = []
        with tr.span("videoio.y4m_read", n=0) as index:
            for frame in frames:
                out.append(frame)
                if limit is not None and len(out) >= limit:
                    break
        tr.spans[index].n = len(out)
    return meta, out


def job_embed(tr: Tracer, s: Session, dest) -> None:
    """Replays ``qrsteg embed``; writes the stego video and sidecar under dest."""
    with tr.span("elgamal.key_io"):
        pub = load_public_key(s.pub)
    key = StegoKey(seed=parse_seed_text(str(s.seed)))
    cfg = StegoConfig(key=key, public=pub)
    with tr.span("videoio.pgm_read"):
        planes = {}
        for level in QR_LEVELS:
            with open(s.qr[level], "rb") as handle:
                planes[level] = load_qr(read_pgm(handle))
    meta, frames = _read_clip(tr, s.cover)
    coder = _build_coder(tr, key, meta.width, meta.height)
    sidecar = new_sidecar(cfg, coder, meta.frame_rate)
    with tr.span("elgamal.key_io"):
        pub.validate()
    packed = {lvl: pack(planes[lvl]).data for lvl in QR_LEVELS}
    stego_frames = []
    for index, frame in enumerate(frames):
        payload, stego = _embed_frame(tr, coder, cfg, planes, packed, index, frame, clip_mse=True)
        sidecar.frames.append({lvl: list(payload.bundles[lvl].sender_publics) for lvl in QR_LEVELS})
        stego_frames.append(stego)
    tr.count("frames.embedded", len(stego_frames))
    with open(dest / "stego.y4m", "wb") as out, tr.span("videoio.y4m_write", n=len(stego_frames)):
        write_y4m(meta, stego_frames, out)
    with tr.span("cli.sidecar_write"):
        sidecar.write(dest / "stego.y4m.sidecar.json")


def job_extract(tr: Tracer, s: Session, dest, tally: Tally) -> None:
    """Replays ``qrsteg extract`` on dest's stego video; payloads must be bit-exact."""
    with tr.span("elgamal.key_io"):
        pub = load_public_key(s.pub)
        priv = load_private_key(s.priv)
    key = StegoKey(seed=parse_seed_text(str(s.seed)))
    cfg = StegoConfig(key=key, public=pub, private=priv)
    with tr.span("cli.sidecar_read"):
        sidecar = Sidecar.read(dest / "stego.y4m.sidecar.json")
    out_dir = dest / "recovered"
    out_dir.mkdir(exist_ok=True)
    meta, frames = _read_clip(tr, dest / "stego.y4m")
    coder = _build_coder(tr, key, meta.width, meta.height)
    bad = []
    for index, frame in enumerate(frames):
        with tr.span("stego.extract") as outer:
            streams = coder.extract(frame)
        with tr.span("wavelet.fwd", probe_of=outer):
            fwd_haar_int(frame.y)
        publics = sidecar.frames[index]
        with tr.span("stego.decode") as outer:
            result = decode_frame_streams(streams, publics, cfg, sidecar.qr_width,
                                          sidecar.qr_height, sidecar.plain_len)
        bundles = [CipherBundle(tuple(publics[lvl]), payload_from_bits(streams[lvl]).data,
                                sidecar.plain_len) for lvl in QR_LEVELS]
        with tr.span("elgamal.decrypt", probe_of=outer):
            for bundle in bundles:
                stream_decrypt(bundle, pub.p, priv)
        with tr.span("bitplane.unpack_render"):
            images = {lvl: render(result.planes[lvl]) for lvl in QR_LEVELS}
        with tr.span("videoio.pgm_write"):
            for lvl in QR_LEVELS:
                with open(out_dir / f"{index:04d}_{lvl}.pgm", "wb") as out:
                    write_pgm(images[lvl], out)
        if any((images[lvl] != s.originals[lvl]).any() for lvl in QR_LEVELS):
            bad.append(index)
    tally.add(len(frames), len(bad), f"traced extract: frames {bad} not bit-exact" if bad else None)


def _decode(tr: Tracer, coder, frame, keys, qw, qh, references) -> list[float]:
    """One attacked-frame decode of the sweep, scored by SSIM per level."""
    with tr.span("stego.extract") as outer:
        streams = coder.extract(frame)
    with tr.span("wavelet.fwd", probe_of=outer):
        fwd_haar_int(frame.y)
    with tr.span("bitplane.unpack_render"):
        packed = {lvl: payload_from_bits(streams[lvl]).data for lvl in QR_LEVELS}
    with tr.span("elgamal.decrypt", n=0):
        plain = {lvl: xor_bytes(packed[lvl], keys[lvl]) for lvl in QR_LEVELS}
    with tr.span("bitplane.unpack_render", n=0):
        images = {lvl: render(unpack(PackedPayload(qw * qh, plain[lvl]), qw, qh)) for lvl in QR_LEVELS}
    with tr.span("quality.ssim", n=len(QR_LEVELS)):
        scores = [ssim(references[lvl], images[lvl]) for lvl in QR_LEVELS]
    tr.count("bench.decodes")
    return scores


def job_sweep(tr: Tracer, s: Session, tally: Tally) -> None:
    """Replays ``qrsteg bench`` over the corpus; the clean row must be exactly 1."""
    w = s.w
    with tr.span("elgamal.key_io"):
        pub = load_public_key(s.pub)
        priv = load_private_key(s.priv)
    seed = parse_seed_text(str(s.seed))
    key = StegoKey(seed=seed)
    cfg = StegoConfig(key=key, public=pub, private=priv)
    specs = [AttackSpec.parse(text) for text in SWEEP_ATTACKS]
    clean_ok = True
    for clip in sorted(s.corpus.glob("*.y4m")):
        meta, frames = _read_clip(tr, clip, w.sweep_frames)
        coder = _build_coder(tr, key, meta.width, meta.height)
        qw, qh = coder.qr_shape()
        with tr.span("synth.payloads"):
            planes = {lvl: qr_like_plane(qw, qh, seed=i) for i, lvl in enumerate(QR_LEVELS)}
            references = {lvl: render(plane) for lvl, plane in planes.items()}
        sidecar = new_sidecar(cfg, coder, meta.frame_rate)
        with tr.span("elgamal.key_io"):
            pub.validate()
        packed = {lvl: pack(planes[lvl]).data for lvl in QR_LEVELS}
        stego_frames = []
        for index, frame in enumerate(frames):
            payload, stego = _embed_frame(tr, coder, cfg, planes, packed, index, frame, clip_mse=False)
            sidecar.frames.append({lvl: list(payload.bundles[lvl].sender_publics) for lvl in QR_LEVELS})
            stego_frames.append(stego)
        tr.count("frames.embedded", len(stego_frames))
        subset = stego_frames[: w.sweep_frames]
        with tr.span("elgamal.decrypt", n=len(subset)):
            cache = [{lvl: regenerate_keystream(tuple(rec[lvl]), pub.p, priv, sidecar.plain_len)
                      for lvl in QR_LEVELS} for rec in sidecar.frames[: len(subset)]]
        tr.count("bench.keystream_regens", len(cache))
        for index, frame in enumerate(subset):
            scores = _decode(tr, coder, frame, cache[index], qw, qh, references)
            clean_ok = clean_ok and scores == [1.0] * len(QR_LEVELS)
        for attack_index, spec in enumerate(specs):
            for seed_index in range(w.attack_seeds):
                noise_seed = derive_seed(seed, NOISE_SALT, attack_index, seed_index)
                for index, frame in enumerate(subset):
                    with tr.span(f"attacks.{spec.kind}"):
                        noisy = apply_attack(frame, spec, frame_rng(noise_seed, index))
                    _decode(tr, coder, noisy, cache[index], qw, qh, references)
    clean = len(w.corpus) * w.sweep_frames
    tally.add(w.sweep_decodes, 0 if clean_ok else clean,
              None if clean_ok else "traced sweep: clean-channel SSIM is not exactly 1.0")


def traced_cycle(tr: Tracer, s: Session, tally: Tally) -> dict:
    """Replays one session with spans; returns that cycle's summary."""
    dest = s.work / "traced"
    dest.mkdir(exist_ok=True)
    first = len(tr.spans)
    tr.counts = defaultdict(int)
    with tr.span("job.embed", n=0):
        job_embed(tr, s, dest)
    if s.digests and s.digests["stego"] != sha256_file(dest / "stego.y4m"):
        tally.problem("traced embed wrote a different stego video than the CLI")
    with tr.span("job.extract", n=0):
        job_extract(tr, s, dest, tally)
    with tr.span("job.sweep", n=0):
        job_sweep(tr, s, tally)
    summary = summarize(tr.spans[first:], first)
    summary["counts"] = dict(tr.counts)
    tr.cycle += 1
    return summary


# --- report ---------------------------------------------------------------------


def summarize(spans: list[Span], first: int) -> dict:
    """Self time and work count per layer for one cycle's spans.

    ``first`` is the global index of spans[0]; parents are global indexes.
    A job span's self time is the glue between layer calls: unattributed.
    """
    nested = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            nested[span.parent - first] += span.seconds
    layers: dict[str, dict] = {}
    jobs: dict[str, float] = {}
    glue_s = probe_s = 0.0
    for index, span in enumerate(spans):
        self_s = span.seconds - nested[index]
        if span.name.startswith("job."):
            jobs[span.name[4:]] = span.seconds
            glue_s += self_s
            continue
        layer = layers.setdefault(span.name, {"self_s": 0.0, "n": 0, "derived": False})
        layer["self_s"] += self_s
        layer["n"] += span.n
        if span.probe:
            probe_s += span.seconds
            layers[spans[span.parent - first].name]["derived"] = True
    wall_s = sum(jobs.values())
    # Probes hang off the span they measure, not off their job, so the
    # jobs' self time still holds them; take them out of the glue.
    return {"wall_s": wall_s, "probe_s": probe_s, "base_s": wall_s - probe_s,
            "glue_s": glue_s - probe_s, "jobs": jobs, "layers": layers}


def _per_unit(layer: str, scale: float = 1e3):
    def value(summary):
        entry = summary["layers"][layer]
        return entry["self_s"] / entry["n"] * scale
    return value


def _count(name: str):
    return lambda summary: summary["counts"][name]


# name -> (unit, value from one cycle summary). Times are per frame the
# layer handled, except where the unit or the name says per call or build.
LAYER_METRICS = {
    "permute.coder_build_s": ("s", _per_unit("permute.coder_build", 1.0)),
    "permute.elements_shuffled": ("count", _count("permute.elements_shuffled")),
    "elgamal.encrypt_ms": ("ms", _per_unit("elgamal.encrypt")),
    "elgamal.draws": ("count", lambda sm: sm["counts"]["elgamal.draws"] / sm["counts"]["frames.embedded"]),
    "elgamal.decrypt_ms": ("ms", _per_unit("elgamal.decrypt")),
    "stego.prepare_self_ms": ("ms", _per_unit("stego.prepare")),
    "stego.embed_self_ms": ("ms", _per_unit("stego.embed")),
    "stego.extract_self_ms": ("ms", _per_unit("stego.extract")),
    "stego.decode_self_ms": ("ms", _per_unit("stego.decode")),
    "wavelet.fwd_ms": ("ms", _per_unit("wavelet.fwd")),
    "wavelet.inv_ms": ("ms", _per_unit("wavelet.inv")),
    "bitplane.unpack_render_ms": ("ms", _per_unit("bitplane.unpack_render")),
    "videoio.y4m_read_ms": ("ms", _per_unit("videoio.y4m_read")),
    "videoio.y4m_write_ms": ("ms", _per_unit("videoio.y4m_write")),
    "videoio.pgm_write_ms": ("ms", _per_unit("videoio.pgm_write")),
    "cli.sidecar_write_ms": ("ms", _per_unit("cli.sidecar_write")),
    "cli.sidecar_read_ms": ("ms", _per_unit("cli.sidecar_read")),
    "quality.mse_ms": ("ms", _per_unit("quality.mse")),
    "quality.ssim_ms": ("ms", _per_unit("quality.ssim")),
    "quality.ssim_calls": ("count", lambda sm: sm["layers"]["quality.ssim"]["n"]),
    "attacks.sp_ms": ("ms", _per_unit("attacks.salt_pepper")),
    "attacks.gauss_ms": ("ms", _per_unit("attacks.gaussian")),
    "attacks.poisson_ms": ("ms", _per_unit("attacks.poisson")),
    "attacks.speckle_ms": ("ms", _per_unit("attacks.speckle")),
    "bench.decodes": ("count", _count("bench.decodes")),
    "bench.keystream_regens": ("count", _count("bench.keystream_regens")),
    "trace.wall_ms": ("ms", lambda sm: sm["base_s"] * 1e3),
    "trace.probe_ms": ("ms", lambda sm: sm["probe_s"] * 1e3),
    "trace.unattributed_share": ("ratio", lambda sm: sm["glue_s"] / sm["base_s"]),
}


def layer_metrics(summaries: list[dict], untraced_cycle_s: list[float], keygen_s: float) -> dict:
    """Median over traced cycles of every per-layer metric, plus tracing overhead."""
    values = {name: statistics.median(fn(sm) for sm in summaries)
              for name, (unit, fn) in LAYER_METRICS.items()}
    values["elgamal.keygen_s"] = keygen_s
    untraced_ms = statistics.median(untraced_cycle_s) * 1e3
    traced_ms = statistics.median(sm["wall_s"] for sm in summaries) * 1e3
    values["trace.untraced_ms"] = untraced_ms
    values["trace.overhead_ms"] = traced_ms - untraced_ms
    values["trace.overhead_share"] = (traced_ms - untraced_ms) / untraced_ms
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units.update({"elgamal.keygen_s": "s", "trace.untraced_ms": "ms",
                  "trace.overhead_ms": "ms", "trace.overhead_share": "ratio"})
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def layer_table(summaries: list[dict]) -> list[dict]:
    """Per layer: median self time per cycle and its share of the traced wall time."""
    base_ms = statistics.median(sm["base_s"] for sm in summaries) * 1e3
    rows = []
    for name in sorted({name for sm in summaries for name in sm["layers"]}):
        self_ms = statistics.median(sm["layers"].get(name, {"self_s": 0.0})["self_s"] for sm in summaries) * 1e3
        derived = any(sm["layers"].get(name, {}).get("derived") for sm in summaries)
        rows.append({"layer": name, "self_ms": self_ms, "share": self_ms / base_ms,
                     "base_ms": base_ms, "derived": derived})
    rows.sort(key=lambda row: -row["self_ms"])
    return rows


def print_report(rows: list[dict], metrics: dict) -> None:
    base = rows[0]["base_ms"] if rows else 0.0
    print(f"traced cycle wall time (probes excluded): {base:.1f} ms, median over traced cycles")
    print(f"  {'layer':28s} {'self ms':>10s} {'share':>7s}")
    for row in rows:
        note = "  (derived: outer minus probes)" if row["derived"] else ""
        print(f"  {row['layer']:28s} {row['self_ms']:10.2f} {row['share']:7.1%}{note}")
    m = {name: entry["value"] for name, entry in metrics.items()}
    print(f"  {'unattributed':28s} {m['trace.unattributed_share'] * base:10.2f} "
          f"{m['trace.unattributed_share']:7.1%}  (of {base:.1f} ms)")
    print(f"probes (inner layers re-timed on the same inputs): {m['trace.probe_ms']:.1f} ms per cycle")
    print(f"tracing overhead: traced {m['trace.untraced_ms'] + m['trace.overhead_ms']:.1f} ms - "
          f"untraced {m['trace.untraced_ms']:.1f} ms = {m['trace.overhead_ms']:.1f} ms "
          f"({m['trace.overhead_share']:.1%} of the untraced cycle)")
