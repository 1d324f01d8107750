#!/usr/bin/env python3
"""Run the Tier-1 suite and check that only the known C8 bands fail.

Usage: python3 scripts/tier1.py   (from any directory)

Runs ROADMAP.md's Tier-1 command,
    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
with a JUnit XML report added so the outcome of every test can be read
back. Exits 0 only when the failing tests (failures and errors) are
exactly the five C8 robustness bands that ROADMAP.md "Current state"
lists. Otherwise it prints each other failure, and each of the five that
now passes, and exits 1. No test is skipped, deselected or edited.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KNOWN_FAILURES = {
    f"tests.test_acceptance::test_c08_robustness_band[{band}]"
    for band in ("sp:0.1-0.75", "gauss:0:0.01-0.88", "gauss:0:0.1-0.68", "poisson-0.97", "speckle:0.05-0.9")
}


def _failed_ids(report: Path) -> set[str]:
    """The test cases the JUnit report marks failed or errored, as classname::name."""
    return {
        f"{case.get('classname')}::{case.get('name')}"
        for case in ET.parse(report).iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", f"--junitxml={report}"]
        code = subprocess.run(command, cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not report.exists():
            print(f"tier1: pytest exited {code} without a complete run")
            return 1
        failed = _failed_ids(report)
    unexpected = sorted(failed - KNOWN_FAILURES)
    now_passing = sorted(KNOWN_FAILURES - failed)
    for node in unexpected:
        print(f"tier1: unexpected failure: {node}")
    for node in now_passing:
        print(f"tier1: known C8 failure now passes: {node}")
    ok = not unexpected and not now_passing
    print(f"tier1: {'OK' if ok else 'FAIL'}: {len(failed)} failed, "
          f"{len(failed & KNOWN_FAILURES)} of {len(KNOWN_FAILURES)} known C8 bands among them")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
