"""The whole-payload CLI renderer that the streaming emitter of gmspec.cli is
checked against.

* `old_emit` takes the same (args, lines, payload, entries, fields) as
  `cli._emit`, ignores the pre-rendered JSON entries, holds the whole output
  as one string (`"\\n".join` of the text lines, `json.dumps(payload,
  indent=2)`, or a buffered `csv.DictWriter` whose header is `fields` or else
  the first row's keys, with the trailing newline stripped) and prints it, or
  writes it to --out, with one newline added.
* `old_spectrum_row` builds a spectrum row by merging `QuadSurd.to_json()`,
  with the sigma name found by a scan of every cycle name.
* `old_build_parser` builds the whole parser at once: every subcommand's
  parser, with the shared flags copied in from the `common` and `params`
  parent parsers.  `gmspec.cli.build_parser` builds a subcommand's parser
  only when its name is parsed, and must print, parse and refuse the same.
"""

from __future__ import annotations

import argparse
import csv
import io
import json

from gmspec import cli
from gmspec.gmtree import parse_sigma
from gmspec.spectrum import SpectrumElement
from gmspec.verify import SUITE_NAMES

CYCLE_NAMES = ("id", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)")


def _to_csv(payload, fields) -> str:
    buf = io.StringIO()
    rows = payload if isinstance(payload, list) else [payload]
    w = csv.DictWriter(buf, fieldnames=list(fields or (rows[0] if rows else [])))
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue().rstrip("\n")


def old_emit(args, lines, payload, entries=None, fields=None) -> None:
    text = "\n".join(lines)
    if not isinstance(payload, dict):
        payload = list(payload)
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    elif args.format == "csv":
        out = _to_csv(payload, fields)
    else:
        out = text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def old_format_sigma(sigma) -> str:
    for name in CYCLE_NAMES:
        if parse_sigma(name) == sigma:
            return name
    raise ValueError(f"not a permutation of (1,2,3): {sigma}")


def old_spectrum_row(el: SpectrumElement) -> dict:
    return {
        "k1": el.params.k1,
        "k2": el.params.k2,
        "k3": el.params.k3,
        "sigma": old_format_sigma(el.params.sigma),
        "t": str(el.t),
        "n": el.n,
        "pos": el.pos,
        **el.value.to_json(),
        "decimal": el.value.decimal(),
    }


def old_build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS)
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="write output to this path instead of stdout"
    )
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--k", default="0,0,0", help="coefficients k1,k2,k3 (default 0,0,0)")
    params.add_argument("--sigma", default="id", help="permutation in cycle notation (default id)")
    description = "Command-line front end.\n\nExit codes: 0 success, 1 usage error or output " \
        "that could not be written,\n2 domain error (bad mathematical input), 3 verification " \
        "failure.\n"
    top = cli._Parser(prog="gmspec", description=description, parents=[common])
    sub = top.add_subparsers(dest="command", required=True, parser_class=cli._Parser)

    def add_parser(name: str, handler, what: str, *parents: argparse.ArgumentParser):
        p = sub.add_parser(name, help=what, parents=[common, *parents])
        p.set_defaults(handler=handler)
        return p

    p = add_parser("seq", cli._seq_cmd, "admissible sequence of a fraction label", params)
    p.add_argument("--t", required=True)

    p = add_parser("cohn", cli._cohn_cmd, "matrix attached to a fraction label", params)
    p.add_argument("--t", required=True)
    p.add_argument("--method", choices=("closed", "recursive"), default="closed")

    p = add_parser("node", cli._node_cmd, "solution-tree vertex at a fraction label", params)
    p.add_argument("--t", required=True)

    for name, handler, what in (
        ("lagrange", cli._lagrange_cmd, "spectrum value of a periodic block"),
        ("alpha", cli._alpha_cmd, "purely periodic value of a block"),
        ("qform", cli._qform_cmd, "quadratic form attached to a block"),
    ):
        p = add_parser(name, handler, what, params)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--seq")
        g.add_argument("--t")

    p = add_parser("distance", cli._distance_cmd, "lattice distance between two points", params)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)

    p = add_parser("spectrum", cli._spectrum_cmd, "enumerated spectrum of a coefficient triple")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--k", help="coefficients k1,k2,k3 (default 0,0,0)")
    g.add_argument("--kmax", type=int, help="scan all triples up to kmax in the transition window")
    p.add_argument("--depth", type=int, default=4)

    add_parser("tables", cli._tables_cmd, "recompute and compare all golden table rows")

    p = add_parser("verify", cli._verify_cmd, "run an invariant suite")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    return top
