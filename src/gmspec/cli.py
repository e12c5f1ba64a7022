"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 domain error (bad mathematical
input), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .exact import Mat2, QuadSurd
from .farey import IrreducibleFraction
from .gmtree import GMParams, gm_node, parse_sigma
from .cohn import cohn_closed_form, cohn_recursive
from .lattice import admissible_sequence, gm_distance
from .spectrum import (
    TRANSITION_CAVEAT,
    alpha_fixed_point,
    enumerate_spectrum,
    lagrange_value,
    qform_of,
    transition_scan,
)
from .tables import reproduce_tables
from .verify import SUITE_NAMES, run_suite

USAGE_ERROR, DOMAIN_ERROR, VERIFY_ERROR = 1, 2, 3


class _OutError(Exception):
    """The --out file could not be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exit code is 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", default="0,0,0", help="coefficients k1,k2,k3 (default 0,0,0)")
    p.add_argument("--sigma", default="id", help="permutation in cycle notation (default id)")


_K_EXPECTED = "--k expects three comma-separated integers"


def _ints_of(text: str, count: int | None, expected: str) -> tuple[int, ...]:
    """The comma-separated integers of text, exactly `count` of them unless
    count is None; otherwise a ValueError saying what was expected."""
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        vals = None
    if vals is None or (count is not None and len(vals) != count):
        raise ValueError(f"{expected}, got {text!r}")
    return vals


def _params_of(args) -> GMParams:
    return GMParams(*_ints_of(args.k, 3, _K_EXPECTED), parse_sigma(args.sigma))


def _surd_payload(x: QuadSurd) -> dict:
    return {**x.to_json(), "str": str(x), "decimal": x.decimal()}


def _emit(args, text: str, payload) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    elif args.format == "csv":
        out = _to_csv(payload)
    else:
        out = text
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise _OutError(exc) from exc
    else:
        print(out)


def _to_csv(payload) -> str:
    """One CSV row per payload entry; every entry has the same keys, and
    each value is a scalar or a list."""
    buf = io.StringIO()
    rows = payload if isinstance(payload, list) else [payload]
    w = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [])
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue().rstrip("\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="write output to this path instead of stdout"
    )
    top = _Parser(prog="gmspec", description=__doc__, parents=[common])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name: str, help: str):  # noqa: A002 - argparse's own keyword
        return sub.add_parser(name, help=help, parents=[common])

    p = add_parser("seq", help="admissible sequence of a fraction label")
    _add_params(p)
    p.add_argument("--t", required=True)

    p = add_parser("cohn", help="matrix attached to a fraction label")
    _add_params(p)
    p.add_argument("--t", required=True)
    p.add_argument("--method", choices=("closed", "recursive"), default="closed")

    p = add_parser("node", help="solution-tree vertex at a fraction label")
    _add_params(p)
    p.add_argument("--t", required=True)

    for name, what in (
        ("lagrange", "spectrum value of a periodic block"),
        ("alpha", "purely periodic value of a block"),
        ("qform", "quadratic form attached to a block"),
    ):
        p = add_parser(name, help=what)
        _add_params(p)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--seq")
        g.add_argument("--t")

    p = add_parser("distance", help="lattice distance between two points")
    _add_params(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)

    p = add_parser("spectrum", help="enumerated spectrum of a coefficient triple")
    p.add_argument("--k", default="0,0,0")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--kmax", type=int, help="scan all triples up to kmax in the transition window")

    p = add_parser("tables", help="recompute and compare all golden table rows")

    p = add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    return top


def _block_of(args) -> tuple[int, ...]:
    if args.seq is not None:
        return _ints_of(args.seq, None, "expected a comma-separated integer sequence")
    t = IrreducibleFraction.parse(args.t)
    return admissible_sequence(t, _params_of(args))


def run(argv: list[str]) -> int:
    top = build_parser()
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # the output flags may come before or after the subcommand
    args.format = getattr(args, "format", "text")
    args.out = getattr(args, "out", None)
    try:
        return _dispatch(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"gmspec: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except _OutError as exc:
        print(f"gmspec: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "seq":
        s = admissible_sequence(IrreducibleFraction.parse(args.t), _params_of(args))
        _emit(args, ",".join(map(str, s)), {"t": args.t, "s": list(s)})
    elif cmd == "cohn":
        t = IrreducibleFraction.parse(args.t)
        fn = cohn_closed_form if args.method == "closed" else cohn_recursive
        m: Mat2 = fn(t, _params_of(args))
        _emit(args, str(m), {"t": args.t, "matrix": m.to_list()})
    elif cmd == "node":
        node = gm_node(IrreducibleFraction.parse(args.t), _params_of(args))
        _emit(args, str(node), {
            "t": args.t,
            "left": [node.left.value, node.left.pos],
            "mid": [node.mid.value, node.mid.pos],
            "right": [node.right.value, node.right.pos],
        })
    elif cmd == "lagrange":
        val = lagrange_value(_block_of(args))
        _emit(args, str(val), _surd_payload(val))
    elif cmd == "alpha":
        val = alpha_fixed_point(_block_of(args))
        _emit(args, str(val), _surd_payload(val))
    elif cmd == "qform":
        q = qform_of(_block_of(args))
        _emit(args, str(q), {"a": str(q.a), "b": str(q.b), "c": str(q.c)})
    elif cmd == "distance":
        pt = "expected a lattice point 'x,y'"
        d = gm_distance(_ints_of(args.src, 2, pt), _ints_of(args.dst, 2, pt), _params_of(args))
        _emit(args, str(d), {"distance": d})
    elif cmd == "spectrum":
        return _spectrum_cmd(args)
    elif cmd == "tables":
        return _tables_cmd(args)
    elif cmd == "verify":
        return _verify_cmd(args)
    return 0


def _spectrum_cmd(args) -> int:
    k = _ints_of(args.k, 3, _K_EXPECTED)
    text = args.format == "text"
    if args.kmax is not None:
        hits = transition_scan(args.kmax, args.depth)
        payload = [el.to_json() for _, el in hits]
        lines = [f"note: {TRANSITION_CAVEAT}"] + [
            f"k=({kk[0]},{kk[1]},{kk[2]}) {el.value} = {row['decimal']}"
            for (kk, el), row in zip(hits, payload)
        ] if text else []
        _emit(args, "\n".join(lines), payload)
        return 0
    elems = enumerate_spectrum(k, args.depth)
    payload = [el.to_json() for el in elems]
    lines = [
        f"{el.value} = {row['decimal']}  (t={el.t}, n={el.n}, pos={el.pos}, "
        f"sigma={row['sigma']})"
        for el, row in zip(elems, payload)
    ] if text else []
    _emit(args, "\n".join(lines), payload)
    return 0


def _tables_cmd(args) -> int:
    results = reproduce_tables()
    bad = [r for r in results if not r.ok]
    lines = [r.describe() for r in results]
    lines.append(f"{len(results) - len(bad)}/{len(results)} rows match")
    payload = [
        {"label": r.row.label, "t": str(r.row.t), "ok": r.ok, "mismatches": list(r.mismatches)}
        for r in results
    ]
    _emit(args, "\n".join(lines), payload)
    return VERIFY_ERROR if bad else 0


def _verify_cmd(args) -> int:
    results = run_suite(args.suite)
    lines = [r.describe() for r in results]
    if args.suite in ("transition", "all"):
        lines.append(f"note: {TRANSITION_CAVEAT}")
    payload = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    _emit(args, "\n".join(lines), payload)
    return 0 if all(r.ok for r in results) else VERIFY_ERROR


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
