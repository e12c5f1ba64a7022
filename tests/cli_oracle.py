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
"""

from __future__ import annotations

import csv
import io
import json

from gmspec.gmtree import parse_sigma
from gmspec.spectrum import SpectrumElement

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
