"""Command-line front end.

Exit codes: 0 success, 1 usage error or output that could not be written,
2 domain error (bad mathematical input), 3 verification failure.

A `gmspec` process loads only what its subcommand runs.  `import gmspec`
loads no submodule, and this module imports `spectrum`, `exact`, `farey` and
`gmtree` (what `spectrum` needs anyway) plus the standard library's
argparse.  `build_parser` builds the top parser and lists each subcommand's
name and help; a subcommand's parser is built when argparse resolves its
name, so a run builds two parsers.  `cohn`, `lattice`, `tables`, `verify`,
`csv` and `json` are imported by the handlers and output branches that use
them: `spectrum --format json` loads none of them, nor `snake`.

`spectrum --k` writes its rows from the integers of the walk: each row is
one tuple (n, pos, num, den, params, q, D, r) from
`spectrum._spectrum_rows`, and its text, JSON entry or CSV dict is
rendered from that tuple by `_spectrum_rendered`, with no `QuadSurd`,
label or `SpectrumElement` built for it; a surd is built only for a row
below its class limit, whose decimal needs `decimal_str`.  `--kmax` reads
the same tuples off the elements of `transition_scan`.
`spectrum.enumerate_spectrum` still returns elements to library callers.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys
from typing import Callable, Iterable, Iterator, Sequence

from .exact import Mat2, QuadSurd, _format_sig, _past_limit, _spectrum_surd, decimal_str
from .farey import IrreducibleFraction, _check_int_length, _echo
from .gmtree import GMParams, format_sigma, gm_node, parse_sigma
from .spectrum import (
    TRANSITION_CAVEAT,
    SpectrumElement,
    _spectrum_rows,
    _zigzag_rows,
    alpha_fixed_point,
    enumerate_spectrum,  # not called here: the benchmark's tracer wraps this name in cli
    lagrange_value,
    qform_of,
    transition_scan,
)

USAGE_ERROR, DOMAIN_ERROR, VERIFY_ERROR = 1, 2, 3

# Largest num + den of a --t label.  A label's admissible sequence has at most
# 2 (num + den) entries and its tree values about 2.5 (num + den) bits, so this
# bounds the work of every label command.  `lagrange`, the slowest, is cubic in
# the block length.  `lagrange_value` on the block, timed in-process (min of 3)
# on a 2-core Xeon under CPython 3.11, takes 0.53 s on the 1,026-entry block of
# 511/513 under (1,2,0), 1.3 s and 1.8 s on the 2,046-entry blocks of 1/1023
# under (0,0,0) and (1,2,0), and 1.4-2.0 s on 2,048-entry blocks (1,2 repeated;
# random entries 1..5).  A --seq block may have as many entries as the longest
# label block, with 4 * LABEL_SIZE_LIMIT bits over all its entries.
# The label num/den is the segment from the origin to (den, num), so
# `distance` takes points with |dx| + |dy| at most LABEL_SIZE_LIMIT.
LABEL_SIZE_LIMIT = 1024

# Largest `spectrum --depth`, for --k and --kmax alike.  A tree has
# 2^(depth+1) - 1 vertices, so each level doubles the work and the output;
# `--kmax` walks only the K = 4 trees past the root.  At this depth
# `--k 1,2,0 --format json` writes 126 MB and `--k 2,3,4` 173 MB, as larger
# coefficients lengthen n.
SPECTRUM_DEPTH_LIMIT = 14

# Largest `spectrum --kmax`.  The scan lists only the 9 + 6 (kmax - 1)
# triples that can reach the window, with no loop over all (kmax + 1)^3: the
# 9 with K = 3 + k1 + k2 + k3 of 4 or 5, whose trees it walks (K = 5 at the
# root only), and the permutations of (m,1,0), 2 <= m <= kmax, whose one hit
# it writes from its integers; it builds one surd per distinct window value.
# At this limit `transition_scan(30, 4)` takes about 1.4 ms in-process
# (2-core Xeon VM, CPython 3.11), and `spectrum --kmax 30` at depth 14 costs
# what `--kmax 1` does, nearly all of it in the three K = 4 trees.  The tests
# check the lemma's inequalities up to this limit's largest K, 93.
SPECTRUM_KMAX_LIMIT = 30


class _OutError(Exception):
    """The output, to stdout or to --out, could not be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exit code is 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)

    def _print_message(self, message, file=None):  # argparse's drops an OSError
        if message:
            (file or sys.stderr).write(message)


_K_EXPECTED = "--k expects three comma-separated integers"


def _ints_of(text: str, count: int | None, expected: str) -> tuple[int, ...]:
    """The comma-separated integers of text, exactly `count` of them unless
    count is None; otherwise a ValueError saying what was expected, or that
    an integer is too long (see `_check_int_length`)."""
    parts = text.split(",")
    for part in parts:
        _check_int_length(part)
    try:
        vals = tuple(map(int, parts))
    except ValueError:
        vals = None
    if vals is None or (count is not None and len(vals) != count):
        raise ValueError(f"{expected}, got {_echo(text)}")
    return vals


def _params_of(args) -> GMParams:
    return GMParams(*_ints_of(args.k, 3, _K_EXPECTED), parse_sigma(args.sigma))


def _emit(
    args, lines: Iterable[str], payload, entries: Iterable[str] | None = None,
    fields: Sequence[str] | None = None,
) -> None:
    """Write the output to --out or stdout one row at a time: the text lines,
    or the payload (one dict, or an iterable of dicts with the same keys) as
    JSON or CSV.  The bytes are those of the joined lines, of
    json.dumps(payload, indent=2) or of csv.DictWriter, ending in a newline.
    `entries`, when given, are the payload's JSON list entries rendered
    ahead (see `_spectrum_rendered`); JSON output writes them in its place.
    `fields`, when given, are the rows' keys, and CSV writes them as the
    header even when there is no row; otherwise the first row's keys are.
    A row that fails removes the --out file if that path is a regular file."""
    try:
        if not args.out:
            _write(sys.stdout, args.format, lines, payload, entries, fields)
            sys.stdout.flush()
            return
        with open(args.out, "w") as fh:
            try:
                _write(fh, args.format, lines, payload, entries, fields)
            except BaseException:
                # a device or a link, such as /dev/stdout, keeps what was written
                opened = os.fstat(fh.fileno())
                if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(args.out)):
                    os.remove(args.out)
                raise
    except OSError as exc:
        raise _OutError(exc) from exc


def _write(stream, fmt: str, lines: Iterable[str], payload, entries, fields) -> None:
    if fmt == "text":
        stream.writelines(_joined(lines, "", "\n", "\n", "\n"))
    elif fmt == "csv":
        import csv

        rows = iter([payload] if isinstance(payload, dict) else payload)
        first = next(rows, {})
        w = csv.DictWriter(stream, fieldnames=list(fields or first))
        w.writeheader()
        if first:
            w.writerow(first)
        w.writerows(rows)
    elif isinstance(payload, dict):
        import json

        stream.write(json.dumps(payload, indent=2) + "\n")
    else:
        entries = entries or map(_json_entry, payload)
        stream.writelines(_joined(entries, "[\n", ",\n", "\n]\n", "[]\n"))


def _joined(parts: Iterable[str], head: str, sep: str, tail: str, empty: str) -> Iterator[str]:
    """head + sep.join(parts) + tail, or `empty` for no parts, a part at a time."""
    lead = None
    for part in parts:
        yield (head if lead is None else lead) + part
        lead = sep
    yield empty if lead is None else tail


def _json_entry(row: dict) -> str:
    """A row as json.dumps renders it as an entry of a list with indent=2."""
    import json

    # json.dumps escapes the newlines inside strings, so each one left is layout
    return "  " + json.dumps(row, indent=2).replace("\n", "\n  ")


def _spectrum_rendered(
    rows: Iterable[tuple], decimal: Callable[[tuple], str], fmt: str, kmax: bool = False
) -> Iterator:
    """The spectrum rows (n, pos, num, den, params, q, D, r) as `_emit`
    writes them in `fmt`, each as the `SpectrumElement` with these fields
    gives it: "json" entries `_json_entry(el.to_json())`, laid out by one
    template (the keys in to_json's order, the ints as json writes them, and
    the sigma name, num/den and the decimal as ASCII strings with nothing to
    escape), "csv" dicts `el.to_json()`, or "text" lines, those of `--kmax`
    when `kmax`.  Every spectrum surd has p = 0 and q > 0 (see
    `exact._sqrt_over_ints`).  `decimal(row)` renders a row's decimal as the
    row is written.  What a row takes from its params is rendered once per
    params object of this call and looked up by id, which skips hashing a
    GMParams per row; each head keeps its params alive, so no id is reused
    meanwhile."""
    heads: dict[int, tuple[GMParams, object]] = {}
    for row in rows:
        n, pos, num, den, k, q, d, r = row
        entry = heads.get(id(k))
        if entry is None:
            sigma = format_sigma(k.sigma)
            if fmt == "json":
                head = (
                    f'  {{\n    "k1": {k.k1},\n    "k2": {k.k2},\n    "k3": {k.k3},\n'
                    f'    "sigma": "{sigma}",\n    "t": "'
                )
            elif fmt == "csv":
                head = (k.k1, k.k2, k.k3, sigma)
            else:
                head = f"k=({k.k1},{k.k2},{k.k3})" if kmax else sigma
            entry = heads[id(k)] = (k, head)
        head = entry[1]
        if fmt == "json":
            yield (
                f'{head}{num}/{den}",\n    "n": {n},\n    "pos": {pos},\n'
                f'    "p": 0,\n    "q": {q},\n    "D": {d},\n    "r": {r},\n'
                f'    "decimal": "{decimal(row)}"\n  }}'
            )
        elif fmt == "csv":
            cells = (*head, f"{num}/{den}", n, pos, 0, q, d, r, decimal(row))
            yield dict(zip(SpectrumElement.FIELDS, cells))
        elif kmax:
            yield f"{head} (0 + {q}√{d})/{r} = {decimal(row)}"
        else:
            yield (f"(0 + {q}√{d})/{r} = {decimal(row)}  "
                   f"(t={num}/{den}, n={n}, pos={pos}, sigma={head})")


def _block_of(args) -> tuple[int, ...]:
    if args.seq is None:
        from .lattice import admissible_sequence

        return admissible_sequence(_label_of(args), _params_of(args))
    s = _ints_of(args.seq, None, "expected a comma-separated integer sequence")
    if len(s) > 2 * LABEL_SIZE_LIMIT or sum(x.bit_length() for x in s) > 4 * LABEL_SIZE_LIMIT:
        raise ValueError(
            f"sequence too large: at most {2 * LABEL_SIZE_LIMIT} entries "
            f"of {4 * LABEL_SIZE_LIMIT} bits in all"
        )
    return s


def _label_of(args) -> IrreducibleFraction:
    t = IrreducibleFraction.parse(args.t)
    if t.num + t.den > LABEL_SIZE_LIMIT:
        raise ValueError(f"label too large: num + den must be at most {LABEL_SIZE_LIMIT}")
    return t


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:  # --help to a stdout that fails
        print(f"gmspec: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # the output flags may come before or after the subcommand
    args.format = getattr(args, "format", "text")
    args.out = getattr(args, "out", None)
    try:
        return args.handler(args) or 0
    except (ValueError, ZeroDivisionError, _OutError) as exc:
        print(f"gmspec: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, _OutError) else DOMAIN_ERROR


def _seq_cmd(args) -> None:
    from .lattice import admissible_sequence

    s = admissible_sequence(_label_of(args), _params_of(args))
    _emit(args, [",".join(map(str, s))], {"t": args.t, "s": list(s)})


def _cohn_cmd(args) -> None:
    from .cohn import cohn_closed_form, cohn_recursive

    fn = cohn_closed_form if args.method == "closed" else cohn_recursive
    m: Mat2 = fn(_label_of(args), _params_of(args))
    _emit(args, [str(m)], {"t": args.t, "matrix": m.to_list()})


def _node_cmd(args) -> None:
    node = gm_node(_label_of(args), _params_of(args))
    _emit(args, [str(node)], {
        "t": args.t,
        "left": [node.left.value, node.left.pos],
        "mid": [node.mid.value, node.mid.pos],
        "right": [node.right.value, node.right.pos],
    })


def _lagrange_cmd(args) -> None:
    _emit_surd(args, lagrange_value(_block_of(args)))


def _alpha_cmd(args) -> None:
    _emit_surd(args, alpha_fixed_point(_block_of(args)))


def _emit_surd(args, x: QuadSurd) -> None:
    _emit(args, [str(x)], {**x.to_json(), "str": str(x), "decimal": x.decimal()})


def _qform_cmd(args) -> None:
    q = qform_of(_block_of(args))
    _emit(args, [str(q)], {"a": str(q.a), "b": str(q.b), "c": str(q.c)})


def _distance_cmd(args) -> None:
    pt = "expected a lattice point 'x,y'"
    (x0, y0), (x1, y1) = _ints_of(args.src, 2, pt), _ints_of(args.dst, 2, pt)
    if abs(x1 - x0) + abs(y1 - y0) > LABEL_SIZE_LIMIT:
        raise ValueError(f"segment too long: |dx| + |dy| must be at most {LABEL_SIZE_LIMIT}")
    from .lattice import gm_distance

    d = gm_distance((x0, y0), (x1, y1), _params_of(args))
    _emit(args, [str(d)], {"distance": d})


def _spectrum_cmd(args) -> None:
    """Text, JSON and CSV from one row renderer, `_spectrum_rendered`, over
    the rows (n, pos, num, den, params, q, D, r): `--k` takes them from
    `spectrum._spectrum_rows` and renders a row's decimal from its integers
    (see `_row_decimals`), with no surd, label or element per row; `--kmax`
    reads them off the elements of `transition_scan` and renders each
    window value once."""
    if args.depth > SPECTRUM_DEPTH_LIMIT:
        raise ValueError(f"depth too large: at most {SPECTRUM_DEPTH_LIMIT}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    note = []
    if args.kmax is not None:
        if args.kmax > SPECTRUM_KMAX_LIMIT:
            raise ValueError(f"kmax too large: at most {SPECTRUM_KMAX_LIMIT}")
        elems = transition_scan(args.kmax, args.depth)
        rows = [
            (el.n, el.pos, el.t.num, el.t.den, el.params, el.value.q, el.value.D, el.value.r)
            for el in elems
        ]
        decimal = _once_per_value(decimal_str, rows, elems)
        note.append(f"note: {TRANSITION_CAVEAT}")
    else:
        k = _ints_of("0,0,0" if args.k is None else args.k, 3, _K_EXPECTED)
        if limit:
            _check_printable(_zigzag_rows(k, args.depth, limit), limit)
        rows = _spectrum_rows(k, args.depth)
        decimal = _row_decimals(k)
    _check_printable(rows, limit)
    kmax = args.kmax is not None
    lines = itertools.chain(note, _spectrum_rendered(rows, decimal, "text", kmax))
    payload = _spectrum_rendered(rows, decimal, "csv")
    entries = _spectrum_rendered(rows, decimal, "json")
    _emit(args, lines, payload, entries, SpectrumElement.FIELDS)


def _once_per_value(
    render: Callable[[QuadSurd], str], rows: Sequence[tuple], elems: Sequence[SpectrumElement]
) -> Callable[[tuple], str]:
    """decimal(row) = render(el.value) for the rows read off the elements,
    row i off element i, called once per value object: `transition_scan`
    gives the rows of one window value one shared value object (at --kmax 2
    --depth 4, 49 values over 156 rows).  Keyed by id, as the rows and
    elements stay alive; no key or surd is built per row."""
    value_of = {id(row): el.value for row, el in zip(rows, elems, strict=True)}
    done: dict[int, str] = {}

    def once(row: tuple) -> str:
        v = value_of[id(row)]
        text = done.get(id(v))
        if text is None:
            text = done[id(v)] = render(v)
        return text

    return once


def _row_decimals(k: tuple[int, ...], sig: int = 12) -> Callable[[tuple], str]:
    """decimal(row) = decimal_str(value, sig) for the rows
    (n, pos, num, den, params, q, D, r) of the triple k, read off (n, pos)
    with no surd for a row whose n puts it at its class limit K.

    A row's value is x = sqrt(m^2 - 4)/n with m = K*n - c >= 3,
    K = 3 + k1 + k2 + k3 and c = k_pos.  As m + c = K*n and
    (m - sqrt(m^2 - 4))(m + sqrt(m^2 - 4)) = 4,
        K - x = (c + 4/(m + sqrt(m^2 - 4)))/n < (c + 2)/n,
    since m + sqrt(m^2 - 4) >= 3 > 2.  Let E = len(str(K)) - 1, K's
    exponent, and u = 10^(E - sig + 1), the unit in the last of K's sig
    digits.  When K < 10^sig, K is a whole number of units u (its sig-digit
    text is exact), and a row with n >= 20 (c + 2) 10^(sig - 1 - E) has
    0 < K - x < u/20.  Then x rounds half up to K: if x >= 10^E its unit is
    u and it is within u/2 of K; otherwise K = 10^E (any larger K is at
    least 10^E + u) and x, just below the decade, is within half of its own
    unit u/10 of K.  Such a row prints K's text, built once per call from
    integers.  The guard K < 10^sig keeps sig - 1 - E >= 0, so the bound is
    an integer, and it is needed: past it K itself rounds, and under
    (2, 0, 10^20 + 5*10^8 - 4), K = 10^20 + 5*10^8 + 1 gives
    1.00000000001e+20 where its 0/1 row rounds to 1.00000000000e+20.  Every
    other row calls `decimal_str` on its surd `_spectrum_surd(q, D, r)`,
    looked up when called, so a wrapper or a patch on the module's name sees
    each call."""
    big_k = 3 + sum(k)
    e = len(str(big_k)) - 1
    if e >= sig:  # K >= 10^sig
        return lambda row: decimal_str(_spectrum_surd(*row[5:]), sig)
    scale = 10 ** (sig - 1 - e)
    at_k = _format_sig(big_k * scale, e, sig, False)
    bounds = (None, *(20 * (c + 2) * scale for c in k))

    def decimal(row: tuple) -> str:
        if row[0] >= bounds[row[1]]:
            return at_k
        return decimal_str(_spectrum_surd(*row[5:]), sig)

    return decimal


def _check_printable(rows: Iterable[tuple], limit: int) -> None:
    """Refuse, before any output is opened, rows (n, pos, num, den, params,
    q, D, r) that str() cannot print under Python's int-to-str digit limit
    `limit` (0 for none); a row's largest ints are D, q and n."""
    if limit and _past_limit(max((max(row[0], row[5], row[6]) for row in rows), default=0), limit):
        raise ValueError(f"spectrum rows too large: an integer has over {limit} digits, "
                         "Python's int-to-str limit")


def _tables_cmd(args) -> int:
    from .tables import reproduce_tables

    results = reproduce_tables()
    bad = [r for r in results if not r.ok]
    lines = [r.describe() for r in results]
    lines.append(f"{len(results) - len(bad)}/{len(results)} rows match")
    payload = [
        {"label": r.row.label, "t": str(r.row.t), "ok": r.ok, "mismatches": list(r.mismatches)}
        for r in results
    ]
    _emit(args, lines, payload)
    return VERIFY_ERROR if bad else 0


def _verify_cmd(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    lines = [r.describe() for r in results]
    if args.suite in ("transition", "all"):
        lines.append(f"note: {TRANSITION_CAVEAT}")
    payload = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    _emit(args, lines, payload)
    return 0 if all(r.ok for r in results) else VERIFY_ERROR


def _output_flags(p: argparse.ArgumentParser) -> None:
    # the output flags may come before or after the subcommand (see `run`)
    p.add_argument("--format", choices=("text", "json", "csv"), default=argparse.SUPPRESS)
    p.add_argument(
        "--out", default=argparse.SUPPRESS, help="write output to this path instead of stdout"
    )


def _params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", default="0,0,0", help="coefficients k1,k2,k3 (default 0,0,0)")
    p.add_argument("--sigma", default="id", help="permutation in cycle notation (default id)")


def _label_flags(p: argparse.ArgumentParser) -> None:
    _params_flags(p)
    p.add_argument("--t", required=True)


def _cohn_flags(p: argparse.ArgumentParser) -> None:
    _label_flags(p)
    p.add_argument("--method", choices=("closed", "recursive"), default="closed")


def _block_flags(p: argparse.ArgumentParser) -> None:
    _params_flags(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--seq")
    g.add_argument("--t")


def _distance_flags(p: argparse.ArgumentParser) -> None:
    _params_flags(p)
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)


def _spectrum_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--k", help="coefficients k1,k2,k3 (default 0,0,0)")
    g.add_argument("--kmax", type=int, help="scan all triples up to kmax in the transition window")
    p.add_argument("--depth", type=int, default=4)


def _no_flags(p: argparse.ArgumentParser) -> None:
    pass


def _verify_flags(p: argparse.ArgumentParser) -> None:
    from .verify import SUITE_NAMES

    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))


# name, handler, help, flags: handler(args) runs the subcommand and returns
# its exit code, None for 0; flags(p) adds what follows --format and --out
_SUBCOMMANDS = (
    ("seq", _seq_cmd, "admissible sequence of a fraction label", _label_flags),
    ("cohn", _cohn_cmd, "matrix attached to a fraction label", _cohn_flags),
    ("node", _node_cmd, "solution-tree vertex at a fraction label", _label_flags),
    ("lagrange", _lagrange_cmd, "spectrum value of a periodic block", _block_flags),
    ("alpha", _alpha_cmd, "purely periodic value of a block", _block_flags),
    ("qform", _qform_cmd, "quadratic form attached to a block", _block_flags),
    ("distance", _distance_cmd, "lattice distance between two points", _distance_flags),
    ("spectrum", _spectrum_cmd, "enumerated spectrum of a coefficient triple", _spectrum_flags),
    ("tables", _tables_cmd, "recompute and compare all golden table rows", _no_flags),
    ("verify", _verify_cmd, "run an invariant suite", _verify_flags),
)


class _Subcommands(argparse._SubParsersAction):
    """The subcommands, each parser built when argparse first resolves its
    name.  This leans on argparse's internals (CPython 3.11): `choices` is
    `_name_parser_map`, whose keys alone give the usage, the `{seq,...}` of
    --help and the invalid-choice error; --help lists the subcommands from
    the `_ChoicesPseudoAction`s in `_choices_actions`; and `__call__`, which
    runs once the name is a valid choice, takes its parser from the map."""

    def add_lazy(self, name: str, what: str, handler, flags) -> None:
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), what))
        self._name_parser_map[name] = (handler, flags)  # replaced by the parser on first use

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        entry = self._name_parser_map[name]
        if isinstance(entry, tuple):
            handler, flags = entry
            p = self._parser_class(prog=f"{self._prog_prefix} {name}")
            _output_flags(p)
            flags(p)
            p.set_defaults(handler=handler)
            self._name_parser_map[name] = p
        super().__call__(parser, namespace, values, option_string)


@functools.cache  # one parser per process
def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring's first two paragraphs: title and exit codes
    top = _Parser(prog="gmspec", description=__doc__ and "\n\n".join(__doc__.split("\n\n")[:2]))
    _output_flags(top)
    sub = top.add_subparsers(
        dest="command", required=True, parser_class=_Parser, action=_Subcommands
    )
    for name, handler, what, flags in _SUBCOMMANDS:
        sub.add_lazy(name, what, handler, flags)
    return top


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()  # fails again after a write error, or after --help
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit-time flush
        if code == 0:
            print(f"gmspec: {exc}", file=sys.stderr)
            code = USAGE_ERROR
    raise SystemExit(code)


if __name__ == "__main__":
    main()
