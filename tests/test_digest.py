"""Smoke test of tools/digest.py, the byte digest of the benchmark's ops."""

import importlib.util
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "digest.py")

_spec = importlib.util.spec_from_file_location("digest", TOOL)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_a_tree_against_itself_has_no_differences(tmp_path):
    # The first 3 ops of each workload's 2-second plan, run twice on this
    # checkout: every op keeps its bytes and status.
    done = subprocess.run(
        [sys.executable, TOOL, ROOT, ROOT, "--seconds", "2", "--limit", "3"],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(digest.WORKLOADS)
    for line, name in zip(lines, digest.WORKLOADS):
        assert re.fullmatch(rf"{name} ops=3 differ=0 flips=0 failed=(\d+) -> \1", line), line


def record(index, status, **parts):
    hashes = dict.fromkeys(digest.PARTS, "0")
    hashes.update(parts)
    return {"workload": "point-query", "index": index, "kind": "ml_eval", "status": status,
            "detail": f"detail {index}", "parts": hashes}


def test_report_lines_name_differences_and_flips():
    base = [record(1, "ok"), record(2, "ok"), record(3, "known"), record(4, "ok")]
    change = [record(1, "ok"), record(2, "ok", result="1", warnings="2"), record(3, "ok"),
              record(4, "known", error="3")]
    lines, left_ok = digest.compare(base, change)
    assert lines == [
        "DIFF point-query 2 ml_eval result,warnings",
        "FLIP point-query 3 ml_eval known -> ok: detail 3",
        "DIFF point-query 4 ml_eval error",
        "FLIP point-query 4 ml_eval ok -> known: detail 4",
        "point-query ops=4 differ=2 flips=2 failed=1 -> 1",
    ]
    assert left_ok
    assert digest.compare(base, base) == (["point-query ops=4 differ=0 flips=0 failed=1 -> 1"],
                                               False)
