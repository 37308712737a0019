"""Golden digests: the sha256 of every file one fixed CLI script writes,
and of each command's standard output.

The script runs in a temporary directory with relative paths. Bit-identity
is promised per environment, so the digests are recorded with the Python,
numpy and scipy versions they were made under. A deliberate output change
records them again:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from ptodist import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

_GEN = [
    ("topk-a.plds", ["--family", "topk", "--gamma", "0.0", "--instances", "10", "--resources", "6", "--seed", "1"]),
    ("topk-b.plds", ["--family", "topk", "--gamma", "1.2", "--instances", "10", "--resources", "6", "--seed", "2"]),
    ("topk-c.plds", ["--family", "topk", "--gamma", "0.6", "--instances", "10", "--resources", "6", "--seed", "3"]),
    ("topk-t.plds", ["--family", "topk", "--gamma", "0.65", "--instances", "10", "--resources", "6", "--seed", "4"]),
    ("inv1-s.plds", ["--family", "inventory", "--mean-seed", "1", "--theta-seed", "5", "--instances", "20",
                     "--seed", "1"]),
    ("inv1-t.plds", ["--family", "inventory", "--mean-seed", "2", "--theta-seed", "5", "--instances", "20",
                     "--seed", "2"]),
    ("inv1-u.plds", ["--family", "inventory", "--mean-seed", "6", "--theta-seed", "5", "--instances", "20",
                     "--seed", "6"]),
    ("inv1-v.plds", ["--family", "inventory", "--mean-seed", "7", "--theta-seed", "5", "--instances", "20",
                     "--seed", "7"]),
    ("inv3-s.plds", ["--family", "inventory", "--features", "3", "--mean-seed", "3", "--theta-seed", "6",
                     "--instances", "20", "--seed", "3"]),
    ("inv3-t.plds", ["--family", "inventory", "--features", "3", "--mean-seed", "4", "--theta-seed", "6",
                     "--instances", "20", "--seed", "4"]),
    ("grid-s.plds", ["--family", "grid", "--p", "6", "--cost-seed", "1", "--map-seed", "2", "--instances", "8"]),
    ("grid-t.plds", ["--family", "grid", "--p", "6", "--cost-seed", "3", "--map-seed", "2", "--instances", "8"]),
]

SCRIPT = [["gen", *args, "--out", name] for name, args in _GEN] + [
    ["dist", "topk-a.plds", "topk-t.plds"],
    ["dist", "topk-a.plds", "topk-t.plds", "--alpha-x", "0.2", "--alpha-y", "0.3", "--alpha-w", "0.5",
     "--breakdown", "breakdown-topk.csv"],
    ["dist", "topk-b.plds", "topk-t.plds", "--mode", "symmetrized"],
    ["dist", "topk-a.plds", "topk-b.plds", "--solver", "sinkhorn", "--epsilon", "0.05"],
    ["transfer", "--source", "topk-a.plds", "--source", "topk-b.plds", "--target", "topk-t.plds",
     "--budget", "200", "--out", "transfer-topk.csv"],
    ["transfer", "--source", "inv1-s.plds", "--target", "inv1-t.plds", "--budget", "200", "--seed", "1",
     "--out", "transfer-inv1.csv"],
    ["transfer", "--source", "inv3-s.plds", "--target", "inv3-t.plds", "--budget", "200", "--seed", "2",
     "--out", "transfer-inv3.csv"],
    ["transfer", "--source", "grid-s.plds", "--target", "grid-t.plds", "--budget", "100",
     "--out", "transfer-grid.csv"],
    ["sweep", "--source", "topk-a.plds", "--source", "topk-b.plds", "--source", "topk-c.plds",
     "--target", "topk-t.plds", "--resolution", "2", "--budget", "200", "--out", "sweep-topk.csv"],
    ["sweep", "--source", "inv1-s.plds", "--source", "inv1-u.plds", "--source", "inv1-v.plds",
     "--target", "inv1-t.plds", "--resolution", "2", "--budget", "200", "--seed", "1", "--out", "sweep-inv.csv"],
    ["bound", "--source", "inv1-s.plds", "--target", "inv1-t.plds", "--k1", "1", "--k2", "1",
     "--budget", "200", "--out", "bound-inv.csv"],
    ["bound", "--source", "topk-a.plds", "--target", "topk-t.plds", "--budget", "200", "--out", "bound-topk.csv"],
    ["repro", "--config", "repro.cfg", "--out-dir", "repro"],
]

REPRO_CONFIG = "seed=3\nbudget=300\nresolution=2\ninstances=10\n"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def run_script(workdir: Path) -> dict:
    """Runs :data:`SCRIPT` in ``workdir``; returns the exit codes, the sha256
    of each command's standard output and of every file written, by relative
    path."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        Path("repro.cfg").write_text(REPRO_CONFIG)
        codes, stdout = [], []
        for argv in SCRIPT:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                codes.append(cli.main(argv))
            stdout.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    finally:
        os.chdir(old)
    files = {p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(workdir.rglob("*")) if p.is_file() and p.name != "repro.cfg"}
    return {"exit_codes": codes, "stdout": stdout, "files": files}


def test_cli_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_script(tmp_path)
    where = f"recorded under {golden['versions']}, run under {versions()}"
    assert got["exit_codes"] == golden["exit_codes"], where
    for argv, digest, want in zip(SCRIPT, got["stdout"], golden["stdout"]):
        assert digest == want, f"standard output differs: {' '.join(argv)}; {where}"
    assert sorted(got["files"]) == sorted(golden["files"]), where
    for name, digest in golden["files"].items():
        assert got["files"][name] == digest, f"first differing file: {name}; {where}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": versions(), **run_script(Path(tmp))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"recorded {len(record['files'])} digests to {GOLDEN}", file=sys.stderr)
