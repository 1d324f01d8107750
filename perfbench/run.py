"""qrsteg benchmark: one workload at one seed, measured for a fixed time.

    python3 perfbench/run.py --workload clip_256 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``. ``--trace 0`` measures the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones. The last line of standard
output is one JSON object; the full record of the run, with its samples,
metadata and robustness table, is appended to ``.perfbench/results.jsonl``.
``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that a flipped stego bit is counted as a failure.
"""

from __future__ import annotations

import os

# Single-threaded numerics, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0  # the seed whose stego video and sidecar digests are pinned


def import_program():
    """Put the checkout's src/ first on the path; refuse any other qrsteg."""
    if not (SRC / "qrsteg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'qrsteg'}; run inside a full checkout")
    sys.path.insert(0, str(SRC))
    import qrsteg

    if Path(qrsteg.__file__).resolve().parent != SRC / "qrsteg":
        sys.exit(f"perfbench: imported qrsteg from {qrsteg.__file__}, not from {SRC}")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(w, seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "geometry": f"{w.width}x{w.height}",
        "clip_frames": w.frames,
        "corpus": list(w.corpus),
        "key": f"{w.key_bits}-bit safe prime" if w.key_bits else "p = 997 demo key",
        "seed": seed,
        "threads_env": os.environ["OMP_NUM_THREADS"],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def spread(values: list[float]) -> dict:
    """Minimum, median and quartiles, as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": med, "q3": q3, "n": len(values)}


E2E_UNITS = {
    "setup_s": "s",
    "embed_fps": "frame/s",
    "extract_fps": "frame/s",
    "sweep_s": "s",
    "sidecar_bytes_per_frame": "B/frame",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Runs set-up and one cycle until ``seconds`` have passed; returns the run record."""
    import tracing
    from calibrate import HostClock
    from workloads import WORKLOADS, Session, Tally, cli_cycle

    w = WORKLOADS[size][name]
    pins = None
    if seed == DEFAULT_SEED:
        pins = json.loads((BENCH / "pinned.json").read_text())[size][name]
    work = OUT / f"work-{name}-{os.getpid()}"
    session = Session(w, seed, work, pins)
    tally = Tally()
    tracer = tracing.Tracer()
    samples, summaries, setups = [], [], []
    # Untraced runs scale every command by the host's speed around it: see
    # calibrate.py. Traced runs report raw wall times.
    clock = None if trace else HostClock()
    try:
        deadline = time.perf_counter() + seconds
        while True:
            # Set-up is repeated before every cycle, so that its samples
            # spread over the run like those of the commands.
            start = time.perf_counter()
            steps = session.setup()
            setups.append({"total_s": time.perf_counter() - start, **steps})
            if clock is not None:
                setups[-1]["total_ref_s"] = clock.to_reference(setups[-1]["total_s"])
            samples.append(cli_cycle(session, tally, clock))
            if trace:
                summaries.append(tracing.traced_cycle(tracer, session, tally))
            now = time.perf_counter()
            if now + (now - start) > deadline:  # the next cycle would overrun
                break
        digests = dict(session.digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": name, "size": size, "seed": seed, "seconds": seconds, "trace": int(trace),
        "meta": metadata(w, seed), "setup": setups, "samples": samples,
        "attempted": tally.attempted, "failed": tally.failed,
        "ops_failed_ratio": tally.failed / tally.attempted if tally.attempted else 1.0,
        "correct": tally.correct and tally.attempted > 0, "problems": tally.problems,
        "digests": digests, "robustness": session.robustness, "fidelity": session.fidelity,
    }
    if trace:
        keygen_s = statistics.median(step["keygen_s"] for step in setups)
        cycle_s = [sample["cycle_s"] for sample in samples]
        record["metrics"] = tracing.layer_metrics(summaries, cycle_s, keygen_s)
        record["layers"] = tracing.layer_table(summaries)
        record["spans"] = len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{name}-s{seed}.jsonl", "w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span.__dict__) + "\n")
    else:
        keys = ("embed_s", "extract_s", "sweep_s", "embed_ref_s", "extract_ref_s", "sweep_ref_s",
                "sidecar_bytes_per_frame")
        values = {key: [sample[key] for sample in samples] for key in keys}
        values["setup_s"] = [step["total_s"] for step in setups]
        values["setup_ref_s"] = [step["total_ref_s"] for step in setups]
        values["kernel_s"] = clock.kernel_s
        record["spread"] = sp = {key: spread(vals) for key, vals in values.items()}
        # A time metric is the median over the run's calls of their
        # host-scaled times: see "Host speed" in README.md.
        measured = {
            "setup_s": sp["setup_ref_s"]["median"],
            "embed_fps": w.frames / sp["embed_ref_s"]["median"],
            "extract_fps": w.frames / sp["extract_ref_s"]["median"],
            "sweep_s": sp["sweep_ref_s"]["median"],
            "sidecar_bytes_per_frame": sp["sidecar_bytes_per_frame"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_ratio": 1.0 - record["ops_failed_ratio"],
        }
        record["metrics"] = {key: {"value": measured[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    return record


def print_record(record: dict) -> None:
    meta = record["meta"]
    print(f"{record['workload']} seed {record['seed']}: {meta['geometry']}, {meta['key']}, "
          f"{len(record['samples'])} cycles, git {meta['git_sha']}, {meta['nproc']} cpus ({meta['cpu']}), "
          f"python {meta['python']}, numpy {meta['numpy']}")
    print(f"ops: {record['failed']} failed of {record['attempted']} attempted "
          f"(ops_failed_ratio {record['ops_failed_ratio']:.4g})")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if record["trace"]:
        import tracing

        tracing.print_report(record["layers"], record["metrics"])
    else:
        for key, entry in record["spread"].items():
            unit = "B/frame" if key.startswith("sidecar") else "s"
            print(f"  {key:26s} min {entry['min']:.6g} {unit}, median {entry['median']:.6g} "
                  f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}], n={entry['n']}")
        for key, entry in record["metrics"].items():
            print(f"  metric {key:19s} {entry['value']:.6g} {entry['unit']}")
    if record["robustness"]:
        print("robustness (mean recovered-payload SSIM, L M Q H):")
        for attack, row in record["robustness"].items():
            print(f"  {attack:14s} " + " ".join(f"{v:8.4f}" for v in row))


def smoke() -> int:
    """Every workload at tiny size, traced and untraced, plus a flipped-bit fault."""
    from workloads import WORKLOADS, Session, flipped_lsb_case

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS["smoke"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            record = run_workload(name, DEFAULT_SEED, 0, bool(trace), "smoke")
            want = {entry["name"]: entry["unit"] for entry in declared[kind]}
            got = {key: entry["unit"] for key, entry in record["metrics"].items()}
            good = record["correct"] and got == want
            if trace:
                good = good and record["metrics"]["trace.unattributed_share"]["value"] < 0.1
            ok = ok and good
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({record['attempted']} ops, {record['failed']} failed, problems {record['problems']}"
                  + ("" if got == want else f", metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
                  + ")")
    session = Session(WORKLOADS["smoke"]["clip_demo"], DEFAULT_SEED, OUT / f"work-fault-{os.getpid()}", None)
    try:
        session.setup()
        tally = flipped_lsb_case(session)
    finally:
        shutil.rmtree(session.work, ignore_errors=True)
    caught = tally.failed == 1 and not tally.correct
    ok = ok and caught
    print(f"smoke flipped stego LSB: {'counted as a failure' if caught else 'NOT CAUGHT'} "
          f"({tally.failed} of {tally.attempted} frames failed: {tally.problems})")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("clip_256", "clip_demo", "sweep_demo"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                        help="JSON-lines file the run record is appended to")
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, then exit")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_program()
    if args.smoke:
        return smoke()

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as out:
        out.write(json.dumps(record) + "\n")
    print_record(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
