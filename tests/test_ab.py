"""Smoke test of tools/ab.py, the in-process A/B timing of the benchmark's ops."""

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab.py")

_spec = importlib.util.spec_from_file_location("digest", os.path.join(ROOT, "tools", "digest.py"))
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

MS = r"\d+\.\d{3}"
FIGURES = rf"base={MS} change={MS} control={MS} change/base={MS} control/base={MS}"


def test_a_tree_against_itself_reports_every_op(tmp_path):
    # The first 3 ops of each workload's 2-second plan, on this checkout
    # three times over, in a process of its own: pytest's process keeps
    # the one nabladelay it imported.  Per workload, one line per kind,
    # whose op counts sum to 3, then the total and median-op lines.
    done = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--seconds", "2", "--limit", "3", "--passes", "2"],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for name in digest.WORKLOADS:
        own = [line for line in lines if line.startswith(f"{name} ")]
        assert len(own) >= 3, lines
        for label, line in zip(("total", "median-op"), own[-2:]):
            assert re.fullmatch(rf"{name} {label} ops=3 {FIGURES}", line), line
        counts = []
        for line in own[:-2]:
            match = re.fullmatch(rf"{name} ([a-z_:-]+) ops=(\d+) {FIGURES}", line)
            assert match and match[1] not in ("total", "median-op"), line
            counts.append(int(match[2]))
        assert sum(counts) == 3
    assert all(line.startswith(tuple(f"{name} " for name in digest.WORKLOADS)) for line in lines)
    assert not os.listdir(tmp_path)

