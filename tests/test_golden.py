"""Byte identity of the CLI's output: each argv of `golden_outputs.json` runs
through `cli.run` in-process and must give the recorded exit code and the
recorded sha256 of its stdout (or of its --out file) and of its stderr.

A change that alters any byte of these outputs fails here.  A deliberate
change of output records the file again,

    PYTHONPATH=src python tests/test_golden.py

and keeps only the entries it means to change, each named in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from gmspec import cli

GOLDEN = Path(__file__).with_name("golden_outputs.json")
FORMATS = ("json", "csv", "text")

# spectrum-deep's six triples, one arrangement each
_DEEP = ("5,1,0", "0,4,2", "3,1,2", "5,0,0", "1,3,1", "2,1,2")
# K = 10^20 + 5*10^8 + 1 has 21 digits, so no row takes K's text
_PINNED = "2,0," + str(10**20 + 5 * 10**8 - 4)
_HUGE_K = "0,0,1" + "0" * 1200
_OVER_LIMIT_K = "1" + "0" * 1000 + ",0,0"
_OTHER = (
    ["seq", "--k", "1,2,0", "--sigma", "id", "--t", "2/5"],
    ["node", "--t", "2/3", "--k", "1,2,0"],
    ["cohn", "--t", "3/5", "--k", "1,2,0", "--sigma", "(1 2 3)"],
    ["lagrange", "--seq", "1,1,1,2,2,2"],
    ["alpha", "--t", "1/2", "--k", "0,0,0"],
    ["qform", "--seq", "1,1,2,2"],
    ["distance", "--from", "0,0", "--to", "3,2", "--k", "1,2,0", "--sigma", "id"],
    ["tables"],
)
# deep big-integer paths of the tree walk: a depth-10 spectrum, 14- and
# 13-step node descents under asymmetric k, and the zigzag refusal at depth 14
_DEEP_WALKS = (
    ["--format", "csv", "spectrum", "--k", "1,2,0", "--depth", "10"],
    ["node", "--t", "377/610", "--k", "3,1,2", "--sigma", "(1 3)"],
    ["cohn", "--t", "233/377", "--k", "0,2,4"],
    ["--out", "{out}", "spectrum", "--k", _OVER_LIMIT_K, "--depth", "14"],
)


def golden_argvs() -> list[list[str]]:
    """The recorded argvs; "{out}" stands for a --out path in a fresh directory."""
    argvs = [
        ["--format", fmt, "spectrum", "--k", k, "--depth", "8"] for k in _DEEP for fmt in FORMATS
    ]
    argvs += [["--format", fmt, "spectrum", "--kmax", "2", "--depth", "4"] for fmt in FORMATS]
    argvs += [["--format", fmt, "spectrum", "--k", _PINNED, "--depth", "3"] for fmt in FORMATS]
    argvs += [["--format", fmt, *argv] for argv in _OTHER for fmt in FORMATS]
    argvs += [["verify", "--suite", "all"]]
    for fmt in FORMATS:  # domain errors: one stderr line, no --out file
        argvs += [
            ["--format", fmt, "spectrum", "--depth", "-1", "--out", "{out}"],
            ["--format", fmt, "--out", "{out}", "spectrum", "--k", _HUGE_K, "--depth", "0"],
            ["--format", fmt, "--out", "{out}", "spectrum", "--k", _OVER_LIMIT_K, "--depth", "3"],
        ]
    argvs += [list(argv) for argv in _DEEP_WALKS]
    return argvs


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def outcome(argv: list[str]) -> dict:
    """The exit code of `cli.run(argv)` and the sha256 of its stderr and of
    its stdout, or of its --out file (None when the file was not left)."""
    out, err = io.BytesIO(), io.BytesIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "F")
        args = [target if a == "{out}" else a for a in argv]
        streams = [io.TextIOWrapper(b, encoding="utf-8", newline="") for b in (out, err)]
        with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
            code = cli.run(args)
        for s in streams:
            s.flush()
        if "{out}" in argv:
            data = Path(target).read_bytes() if os.path.exists(target) else None
            assert out.getvalue() == b""
        else:
            data = out.getvalue()
    return {"argv": argv, "code": code, "out": _sha(data), "err": _sha(err.getvalue())}


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_argv():
    assert [case["argv"] for case in _recorded()] == golden_argvs()


@pytest.mark.parametrize("i", range(len(golden_argvs())),
                         ids=[" ".join(argv)[:80] for argv in golden_argvs()])
def test_cli_output_is_byte_identical(i):
    case = _recorded()[i]
    assert outcome(case["argv"]) == case


if __name__ == "__main__":
    cases = [outcome(argv) for argv in golden_argvs()]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"{len(cases)} outcomes written to {GOLDEN}", file=sys.stderr)
