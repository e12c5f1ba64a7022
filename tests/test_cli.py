import argparse
import contextlib
import errno
import functools
import io
import itertools
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_oracle
import gmspec
from gmspec import cli, exact
from gmspec.cli import LABEL_SIZE_LIMIT, SPECTRUM_DEPTH_LIMIT, SPECTRUM_KMAX_LIMIT, run
from gmspec.exact import _FULL_FACTOR_BOUND, QuadSurd, _sqrt_over
from gmspec.farey import IrreducibleFraction
from gmspec.gmtree import ALL_SIGMAS, ALTERNATING, GMParams, _walk_tree, format_sigma
from gmspec.spectrum import (
    SpectrumElement,
    _distinct_values,
    _element,
    _spectrum_rows,
    enumerate_spectrum,
    markov_value,
    transition_scan,
)


def test_seq_command(capsys):
    assert run(["seq", "--k", "1,2,0", "--sigma", "id", "--t", "2/5"]) == 0
    assert capsys.readouterr().out.strip() == "5,1,3,3,1,5,4,1,3,4"


def test_lagrange_command(capsys):
    assert run(["lagrange", "--seq", "1,1,1,2,2,2"]) == 0
    assert capsys.readouterr().out.strip() == "(0 + 4√210)/19"


def test_distance_command(capsys):
    assert run(["distance", "--from", "0,0", "--to", "3,2", "--k", "1,2,0", "--sigma", "id"]) == 0
    assert capsys.readouterr().out.strip() == "373"


def test_distance_is_limited_like_a_label(capsys):
    # the segment to (dx, dy) is the one of the label dy/dx, so |dx| + |dy| is
    # limited as num + den is; a negative point is joined to its flag
    L, h = LABEL_SIZE_LIMIT, LABEL_SIZE_LIMIT // 2
    for src, dst in (("0,0", f"{L},0"), ("5,-7", f"{5 + h},{-7 - h}"), ("0,0", f"-{L},0")):
        assert run(["distance", f"--from={src}", f"--to={dst}"]) == 0
        assert capsys.readouterr().out.strip().isdigit()
    over = (("0,0", f"{L + 1},0"), ("0,0", f"-{L + 1},0"), ("-3,2", f"{h - 2},{2 - h}"))
    for src, dst in (*over, ("0,0", "100000,1")):
        _one_line_domain_error(capsys, ["distance", f"--from={src}", f"--to={dst}"])


def test_alpha_command_via_label(capsys):
    assert run(["alpha", "--t", "1/2", "--k", "0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "(11 + 1√221)/10"


def test_cohn_command_json(capsys):
    assert run(["--format", "json", "cohn", "--t", "1/2", "--k", "0,0,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix"] == [[13, 5], [5, 2]]


def test_node_command(capsys):
    assert run(["node", "--t", "2/3", "--k", "1,2,0"]) == 0
    assert capsys.readouterr().out.strip() == "((17,3),(373,1),(4,2))"


def test_spectrum_command_json(capsys):
    assert run(["--format", "json", "spectrum", "--k", "0,0,0", "--depth", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [(el["p"], el["q"], el["D"], el["r"]) for el in data[:2]] == [
        (0, 1, 5, 1),
        (0, 2, 2, 1),
    ]
    assert data[0]["decimal"].startswith("2.2360679")


def test_window_scan_json_rows_are_the_reference_scan_rows(capsys):
    from test_spectrum import reference_transition_scan

    assert run(["--format", "json", "spectrum", "--kmax", "1", "--depth", "3"]) == 0
    rows = [el.to_json() for el in reference_transition_scan(1, 3)]
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"


def test_spectrum_csv_schema(capsys):
    assert run(["--format", "csv", "spectrum", "--k", "0,0,1", "--depth", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header == ["k1", "k2", "k3", "sigma", "t", "n", "pos", "p", "q", "D", "r", "decimal"]
    assert len(lines) >= 4


@pytest.mark.parametrize(
    "argv, want",
    [
        # an empty spectrum: the spectrum header row and nothing else
        (["--format", "csv", "spectrum", "--kmax", "0"],
         "k1,k2,k3,sigma,t,n,pos,p,q,D,r,decimal\r\n"),
        # list-valued cells
        (
            ["--format", "csv", "node", "--t", "2/3", "--k", "1,2,0"],
            't,left,mid,right\r\n2/3,"[17, 3]","[373, 1]","[4, 2]"\r\n',
        ),
    ],
    ids=["empty-payload", "list-cells"],
)
def test_csv_bytes(argv, want, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out == want


def test_empty_spectrum_csv_has_the_spectrum_header(capsys):
    assert run(["--format", "csv", "spectrum", "--kmax", "0"]) == 0
    empty = capsys.readouterr().out
    assert run(["--format", "csv", "spectrum", "--k", "0,0,1", "--depth", "1"]) == 0
    header = capsys.readouterr().out.splitlines(keepends=True)[0]
    assert empty == header == ",".join(SpectrumElement.FIELDS) + "\r\n"
    assert tuple(enumerate_spectrum((0, 0, 1), 1)[0].to_json()) == SpectrumElement.FIELDS


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 1
    assert run(["seq", "--k", "1,2,0"]) == 1  # missing --t
    # --k names one tree and --kmax a scan over all triples: never both
    for argv in (
        ["spectrum", "--k", "1,2,0", "--kmax", "0", "--depth", "0"],
        ["spectrum", "--kmax", "1", "--k", "1,2"],
        ["spectrum", "--k", "0,0,0", "--kmax", "1"],
    ):
        capsys.readouterr()
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err


def test_domain_error_exit_code(capsys):
    assert run(["seq", "--t", "2/4", "--k", "0,0,0"]) == 2
    assert run(["seq", "--t", "1/2", "--k", "0,0"]) == 2
    assert run(["lagrange", "--seq", "1,0,2"]) == 2


def test_tables_command(capsys):
    assert run(["tables"]) == 0
    out = capsys.readouterr().out
    assert "80/80 rows match" in out


def test_verify_snake_suite(capsys):
    assert run(["verify", "--suite", "snake"]) == 0
    assert "[pass] snake-oracle" in capsys.readouterr().out


def test_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "nope"]) == 1  # usage error


def test_surd_json_roundtrip(capsys):
    from gmspec.exact import QuadSurd
    from gmspec.spectrum import alpha_fixed_point

    assert run(["--format", "json", "alpha", "--seq", "2,1,1,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    rebuilt = QuadSurd(data["p"], data["q"], data["D"], data["r"])
    assert rebuilt == alpha_fixed_point((2, 1, 1, 2))


def test_out_file(tmp_path):
    target = tmp_path / "out.json"
    assert run(["--format", "json", "--out", str(target), "seq", "--t", "1/2"]) == 0
    assert json.loads(target.read_text())["s"] == [2, 1, 1, 2]


def _one_line_domain_error(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("gmspec: ") and err.count("\n") == 1


def test_empty_seq_is_a_domain_error(capsys):
    for cmd in ("lagrange", "alpha", "qform"):
        _one_line_domain_error(capsys, [cmd, "--seq", ""])


def test_negative_spectrum_depth_is_a_domain_error(capsys):
    _one_line_domain_error(capsys, ["spectrum", "--depth", "-1"])
    _one_line_domain_error(capsys, ["spectrum", "--kmax", "1", "--depth", "-1"])
    _one_line_domain_error(capsys, ["spectrum", "--kmax", "0", "--depth", "-1"])
    _one_line_domain_error(capsys, ["spectrum", "--kmax", "-1"])
    _one_line_domain_error(capsys, ["spectrum", "--k", "a,b,c"])


def test_spectrum_depth_limit_is_checked_before_any_walk(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked past the depth limit")

    over = str(SPECTRUM_DEPTH_LIMIT + 1)
    with monkeypatch.context() as m:
        m.setattr(cli, "_spectrum_rows", no_walk)
        m.setattr(cli, "enumerate_spectrum", no_walk)
        m.setattr(cli, "transition_scan", no_walk)
        _one_line_domain_error(capsys, ["spectrum", "--k", "0,0,1", "--depth", over])
        _one_line_domain_error(capsys, ["spectrum", "--kmax", "1", "--depth", over])
        over_kmax = str(SPECTRUM_KMAX_LIMIT + 1)
        _one_line_domain_error(capsys, ["spectrum", "--kmax", over_kmax, "--depth", "0"])
    assert run(["spectrum", "--kmax", "0", "--depth", str(SPECTRUM_DEPTH_LIMIT)]) == 0
    assert capsys.readouterr().out.startswith("note: ")


MALFORMED_ARGV = [
    ["seq", "--t", "x"],
    ["seq", "--t", ""],
    ["seq", "--t", "1/2/3"],
    ["alpha", "--t", "3/6"],
    ["cohn", "--t", "1/2", "--k", "1,2"],
    ["node", "--t", "1/2", "--k", "a,b,c"],
    ["seq", "--t", "1/2", "--k", "1,2,3,4"],
    ["seq", "--t", "1/2", "--sigma", "(1 2"],
    ["lagrange", "--seq", "1,x"],
    ["lagrange", "--seq", ","],
    ["alpha", "--seq", "0"],
    ["qform", "--seq=-1,2"],
    ["distance", "--from", "0", "--to", "1,1"],
    ["distance", "--from", "a,b", "--to", "1,1"],
    ["distance", "--from", "1,2,3", "--to", "0,0"],
    ["spectrum", "--k", "1,2", "--depth", "1"],
    ["spectrum", "--kmax", "-2", "--depth", "1"],
    ["--out", "{missing}", "seq", "--t", "1/2"],
    ["--out", "{dir}", "seq", "--t", "1/2"],
    ["--out", "{dir}", "--format", "json", "spectrum", "--depth", "3"],
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV, ids=" ".join)
def test_malformed_argv_fails_with_one_line(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "no" / "x", dir=tmp_path) for a in argv]
    assert run(argv) == (1 if "--out" in argv else 2)  # an unwritable --out is a usage error
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gmspec: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("label", ["1/1/2", "abc", "1.5", "1/", "/2"])
def test_malformed_label_says_what_was_expected(label, capsys):
    assert run(["seq", "--t", label]) == 2
    out, err = capsys.readouterr()
    want = f"gmspec: expected a fraction 'num/den', an integer or 'inf', got {label!r}\n"
    assert out == "" and err == want


# Python's int-from-str limit, 4,300 by default; 0 (none) before it existed
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "9" * (_DIGITS + 700)


@pytest.mark.parametrize("argv", [
    ["seq", "--t", _LONG],
    ["seq", "--t", f"1/{_LONG}"],
    ["seq", "--t", "1/2", "--k", f"{_LONG},0,0"],
    ["lagrange", "--seq", f"1,{_LONG}"],
    ["distance", "--from", f"{_LONG},0", "--to", "1,1"],
    ["distance", "--from", "0,0", "--to", f"1,-{_LONG}"],
], ids=["t", "t-den", "k", "seq", "from", "to"])
def test_an_over_long_integer_is_refused_in_one_short_line(argv, capsys):
    if not _DIGITS:
        pytest.skip("no int-from-str limit in this interpreter")
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 100, err
    want = f"gmspec: integer too long: {len(_LONG)} characters, at most {_DIGITS} digits ("
    assert err.startswith(want), err


@pytest.mark.parametrize("argv", [
    ["seq", "--t", "x" * 4000],
    ["seq", "--t", "1/2", "--k", "a" * 4000],
    ["seq", "--t", "1/2", "--sigma", "(" * 4000],
    ["lagrange", "--seq", "1," * 1999 + "zz"],
    ["distance", "--from", "q" * 4000, "--to", "1,1"],
    ["seq", "--t", "2/" + "4" * 3998],
], ids=["t", "k", "sigma", "seq", "from", "unreduced"])
def test_a_long_malformed_value_is_echoed_clipped(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200, err
    assert err.endswith("... (4000 characters)\n"), err


# -- the streaming emitter against the whole-payload renderer ----------------

FORMATS = ("text", "json", "csv")


def _outputs(argv, fmt, tmp_path, capsysbinary):
    """Exit codes and output bytes of argv on stdout and with --out."""
    rc = run(["--format", fmt, *argv])
    stdout = capsysbinary.readouterr().out
    target = tmp_path / "out"
    rc_out = run(["--format", fmt, "--out", str(target), *argv])
    assert capsysbinary.readouterr().out == b""
    data = target.read_bytes()
    target.unlink()
    return rc, rc_out, stdout, data


def _assert_old_bytes(argv, fmt, tmp_path, capsysbinary, monkeypatch):
    new = _outputs(argv, fmt, tmp_path, capsysbinary)
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", cli_oracle.old_emit)
        old = _outputs(argv, fmt, tmp_path, capsysbinary)
    assert new == old, argv
    assert new[2] == new[3]  # the --out file holds the stdout bytes


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("k", ["0,0,0", "1,2,0", "0,0,5", "2,2,1"])
def test_spectrum_bytes_match_the_old_renderer(k, fmt, tmp_path, capsysbinary, monkeypatch):
    for depth in range(7):
        argv = ["spectrum", "--k", k, "--depth", str(depth)]
        _assert_old_bytes(argv, fmt, tmp_path, capsysbinary, monkeypatch)
    # at depth 6 the rows' radicands lie on both sides of the bound where
    # the square split turns best-effort
    deltas = [row[0] for row in _distinct_values(tuple(map(int, k.split(","))), 6)]
    assert min(deltas) < _FULL_FACTOR_BOUND <= max(deltas)


# spectrum-deep's six triples, one arrangement each, as the benchmark runs them
@pytest.mark.parametrize("k", ["5,1,0", "0,4,2", "3,1,2", "5,0,0", "1,3,1", "2,1,2"])
def test_benchmark_spectrum_bytes_match_the_old_renderer(k, tmp_path, capsysbinary, monkeypatch):
    argv = ["spectrum", "--k", k, "--depth", "8"]
    _assert_old_bytes(argv, "json", tmp_path, capsysbinary, monkeypatch)


COMMAND_ARGV = [
    ["spectrum", "--depth", "3"],
    ["spectrum", "--kmax", "0"],
    ["spectrum", "--kmax", "1", "--depth", "3"],
    ["spectrum", "--kmax", "2", "--depth", "4"],
    ["seq", "--k", "1,2,0", "--sigma", "id", "--t", "2/5"],
    ["lagrange", "--seq", "1,1,1,2,2,2"],
    ["distance", "--from", "0,0", "--to", "3,2", "--k", "1,2,0", "--sigma", "id"],
    ["alpha", "--t", "1/2", "--k", "0,0,0"],
    ["cohn", "--t", "1/2", "--k", "0,0,0"],
    ["cohn", "--t", "3/5", "--k", "1,2,0", "--method", "recursive"],
    ["node", "--t", "2/3", "--k", "1,2,0"],
    ["qform", "--seq", "1,1,2,2"],
    ["tables"],
    ["verify", "--suite", "squares"],
]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", COMMAND_ARGV, ids=" ".join)
def test_command_bytes_match_the_old_renderer(argv, fmt, tmp_path, capsysbinary, monkeypatch):
    _assert_old_bytes(argv, fmt, tmp_path, capsysbinary, monkeypatch)


def test_spectrum_rows_match_the_old_merged_rows():
    elems = [el for k in ((0, 0, 0), (1, 2, 0), (0, 0, 5), (2, 2, 1))
             for el in enumerate_spectrum(k, 5)]
    elems += transition_scan(1, 3)
    for el in elems:
        assert list(el.to_json().items()) == list(cli_oracle.old_spectrum_row(el).items())


def _row(el: SpectrumElement) -> tuple:
    """The row (n, pos, num, den, params, q, D, r) of a spectrum element."""
    v = el.value
    assert v.p == 0
    return el.n, el.pos, el.t.num, el.t.den, el.params, v.q, v.D, v.r


def _old_line(el: SpectrumElement, kmax: bool = False) -> str:
    """A spectrum text line as written from the element."""
    k = el.params
    if kmax:
        return f"k=({k.k1},{k.k2},{k.k3}) {el.value} = {el.value.decimal()}"
    return (f"{el.value} = {el.value.decimal()}  (t={el.t}, n={el.n}, pos={el.pos}, "
            f"sigma={cli_oracle.old_format_sigma(k.sigma)})")


def _rendered_bytes(capsys, fmt, rows, decimal) -> str:
    args = argparse.Namespace(format=fmt, out=None)
    render = functools.partial(cli._spectrum_rendered, rows, decimal)
    cli._emit(args, render("text"), render("csv"), render("json"), SpectrumElement.FIELDS)
    return capsys.readouterr().out


def _old_bytes(capsys, fmt, elems) -> str:
    args = argparse.Namespace(format=fmt, out=None)
    payload = [cli_oracle.old_spectrum_row(el) for el in elems]
    cli_oracle.old_emit(args, map(_old_line, elems), payload, None, SpectrumElement.FIELDS)
    return capsys.readouterr().out


def test_spectrum_template_entries_parse_to_the_rows(capsys):
    # the parser, not only the old renderer, reads each entry: a quote or an
    # escape the template missed would show here
    elems = [el for k in ((0, 0, 0), (1, 2, 0), (3, 0, 1), (2, 2, 1), (0, 5, 5))
             for d in (0, 2, 5) for el in enumerate_spectrum(k, d)]
    window = transition_scan(2, 4)
    start = len(elems)
    elems += window
    labels = [IrreducibleFraction(0, 1), IrreducibleFraction(1, 0), IrreducibleFraction(3, 5)]
    elems += [markov_value(t, GMParams(1, 2, 0, s)) for t in labels for s in ALTERNATING]
    rows = [_row(el) for el in elems]
    decimals = {id(row): exact.decimal_str(el.value) for row, el in zip(rows, elems)}

    def decimal(row):
        return decimals[id(row)]

    render = functools.partial(cli._spectrum_rendered, rows, decimal)
    for el, entry, cells, line in zip(elems, render("json"), render("csv"), render("text"),
                                      strict=True):
        row = el.to_json()
        assert list(json.loads(entry).items()) == list(row.items())
        assert entry == cli._json_entry(row) == cli._json_entry(cli_oracle.old_spectrum_row(el))
        assert list(cells.items()) == list(cli_oracle.old_spectrum_row(el).items())
        assert line == _old_line(el)
    kmax_rows = rows[start:start + len(window)]
    kmax_lines = cli._spectrum_rendered(kmax_rows, decimal, "text", kmax=True)
    assert list(kmax_lines) == [_old_line(el, kmax=True) for el in window]
    assert {el.t for el in elems} >= set(labels)
    assert {el.params.sigma for el in elems} == set(ALTERNATING)
    # the row source and the renderer, byte for byte against the elements and
    # the whole-payload renderer, on the verify grid and past 20 digits
    from gmspec.verify import grid_triples

    for k in [*sorted(set(grid_triples())), (10**20, 0, 0), _PINNED_K]:
        for depth in range(6):
            elems = enumerate_spectrum(k, depth)
            rows = _spectrum_rows(k, depth)
            assert rows == [_row(el) for el in elems], (k, depth)
            for fmt in FORMATS:
                new = _rendered_bytes(capsys, fmt, rows, cli._row_decimals(k))
                assert new == _old_bytes(capsys, fmt, elems), (k, depth, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_kmax_renders_each_window_value_once(fmt, capsysbinary, monkeypatch):
    rendered = []

    def counting(x, *rest):
        rendered.append(x)
        return exact.decimal_str(x, *rest)

    monkeypatch.setattr(cli, "decimal_str", counting)
    elems = transition_scan(2, 4)
    assert run(["--format", fmt, "spectrum", "--kmax", "2", "--depth", "4"]) == 0
    assert len(rendered) == len({id(el.value) for el in elems}) == 49 and len(elems) == 156
    assert len({(x.p, x.q, x.D, x.r) for x in rendered}) == 49
    # --k: one call per row below its class bound, none at or above it; under
    # (10^11, 1, 2), K = 10^11 + 6 has 12 digits and the bound is 20 (c + 2)
    rendered.clear()
    k = (10**11, 1, 2)
    assert run(["--format", fmt, "spectrum", "--k", "100000000000,1,2", "--depth", "3"]) == 0
    elems = enumerate_spectrum(k, 3)
    below = [el.value for el in elems if el.n < 20 * (k[el.pos - 1] + 2)]
    assert rendered == below and 0 < len(below) < len(elems) == 48
    capsysbinary.readouterr()


# the spectrum-deep benchmark's triples, and K = 10 and K = 100, whose text
# at the class limit ends a decade: a row just below it rounds up to K
_DEEP_TRIPLES = [(5, 1, 0), (0, 4, 2), (3, 1, 2), (5, 0, 0), (1, 3, 1), (2, 1, 2), (7, 0, 0),
                 (97, 0, 0)]
# K = 10^20 + 5*10^8 + 1 rounds up in 12 digits, while this triple's 0/1 row rounds down
_PINNED_K = (2, 0, 10**20 + 5 * 10**8 - 4)


@pytest.mark.parametrize("k, depth", [
    *((k, 8) for k in _DEEP_TRIPLES), ((10**20, 0, 0), 6), (_PINNED_K, 1),
], ids=str)
def test_row_decimals_match_decimal_str(k, depth):
    decimal = cli._row_decimals(k)
    for el in enumerate_spectrum(k, depth):
        assert decimal(_row(el)) == exact.decimal_str(el.value), (k, el.t, el.pos)


def test_row_decimals_match_decimal_str_on_the_grid():
    from gmspec.verify import grid_triples

    for k in sorted(set(grid_triples())):
        decimal = cli._row_decimals(k)
        for el in enumerate_spectrum(k, 7):
            assert decimal(_row(el)) == exact.decimal_str(el.value), (k, el.t, el.pos)


def test_row_decimals_keep_a_triple_past_twelve_digits_off_the_class_limit():
    # the 0/1 row of class k1 = 2 is sqrt((K - 2)^2 - 4), at n = 1
    row = enumerate_spectrum(_PINNED_K, 1)[1]
    assert (row.t, row.pos, row.n) == (IrreducibleFraction(0, 1), 1, 1)
    assert cli._row_decimals(_PINNED_K)(_row(row)) == "1.00000000000e+20"
    assert exact.decimal_str(QuadSurd(3 + sum(_PINNED_K), 0, 1, 1)) == "1.00000000001e+20"


@st.composite
def _class_rows(draw):
    """(k, pos, n) of a row of class c = k_pos under K = 3 + k1 + k2 + k3,
    with n at the class bound 20 (c + 2) 10^(11 - E) of `cli._row_decimals`,
    just beside it, far above it or anywhere below it; the row need not be a
    tree vertex, as the bound holds for every n >= 1."""
    big_k = draw(st.one_of(
        st.integers(4, 40), st.sampled_from((10, 100, 10**11, 10**12 - 1)),
        st.integers(4, 10**12 - 1),
    ))
    c = draw(st.integers(0, big_k - 3))
    pos = draw(st.integers(1, 3))
    bound = 20 * (c + 2) * 10 ** (12 - len(str(big_k)))
    n = draw(st.one_of(
        st.integers(bound - 2, bound + 1), st.integers(bound, bound * 10**30),
        st.integers(1, bound),
    ))
    k = [big_k - 3 - c, 0]
    k.insert(pos - 1, c)
    return tuple(k), pos, n


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_class_rows())
def test_row_decimals_match_decimal_str_at_the_class_bound(row):
    k, pos, n = row
    big_k, c = 3 + sum(k), k[pos - 1]
    value = _sqrt_over((big_k * n - c) ** 2 - 4, n)
    el = _element(value, n, pos, 0, 1, GMParams(*k, ALTERNATING[0]))
    decimal = cli._row_decimals(k)
    with mock.patch.object(cli, "decimal_str", wraps=exact.decimal_str) as floor:
        assert decimal(_row(el)) == exact.decimal_str(value), (k, pos, n)
    # a surd floor exactly below the bound: K's text at and above it
    assert floor.call_count == (n < 20 * (c + 2) * 10 ** (12 - len(str(big_k))))


_FUZZ_VALUES = {
    "--k": st.one_of(
        st.tuples(*[st.integers(-1, 6)] * 3).map(lambda t: ",".join(map(str, t))),
        st.sampled_from(["1,2", "1,2,3,4", "a,b,c", "1,,2", "", " 1, 2, 0"]),
    ),
    "--sigma": st.sampled_from(["id", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)", "(1 1)",
                                "", "x"]),
    "--t": st.one_of(
        st.tuples(st.integers(-2, 30), st.integers(-2, 30)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.sampled_from(["1", "0/0", "2/4", "1/2/3", "a/b", ""]),
    ),
    "--seq": st.lists(st.integers(-1, 6), max_size=8).map(lambda s: ",".join(map(str, s))),
    "--method": st.sampled_from(["closed", "recursive", "other"]),
    "--from": st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(
        lambda t: f"{t[0]},{t[1]}"),
    "--to": st.one_of(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)).map(lambda t: f"{t[0]},{t[1]}"),
        st.sampled_from(["1", "1,2,3", "x,y"]),
    ),
    "--kmax": st.sampled_from(["-1", "0", "1", "2", "5", "x"]),
    "--depth": st.sampled_from(["-2", "-1", "0", "1", "3", "6", "x"]),
}
# each subcommand's flags: those it requires (one of --seq and --t for a
# block), then the others it takes
_FUZZ_FLAGS = {
    "seq": (("--t",), ("--k", "--sigma", "--t")),
    "cohn": (("--t",), ("--k", "--sigma", "--t", "--method")),
    "node": (("--t",), ("--k", "--sigma", "--t")),
    "lagrange": ((), ("--k", "--sigma")),
    "alpha": ((), ("--k", "--sigma")),
    "qform": ((), ("--k", "--sigma")),
    "distance": (("--from", "--to"), ("--k", "--sigma")),
    "spectrum": ((), ("--k", "--kmax", "--depth")),
}


@st.composite
def _fuzz_argv(draw):
    """An argv of one of the eight subcommands other than tables and verify:
    its required flags and up to three of its own, with small values, some
    of them malformed; now and then another subcommand's flag, a flag with
    no value, or a stray word or --help."""
    cmd = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    required, own = _FUZZ_FLAGS[cmd]
    if cmd in ("lagrange", "alpha", "qform"):
        required = (draw(st.sampled_from(["--seq", "--t"])),)
    flags = list(required)
    for _ in range(draw(st.integers(0, 3))):
        mixed = draw(st.integers(0, 7)) == 0
        flags.append(draw(st.sampled_from(sorted(_FUZZ_VALUES) if mixed else own)))
    argv = [*draw(st.sampled_from([[], ["--format", "json"], ["--format", "csv"]])), cmd]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(_FUZZ_VALUES[flag])]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--t", "--k", "stray", "-h", "--format"])))
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_fuzz_argv())
def test_fuzzed_argv_ends_in_an_exit_code_with_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # any exception but SystemExit's code escapes and fails
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert err.startswith("gmspec: ") and err.count("\n") == 1, (argv, err)


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(gmspec.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = ["seq", "--t", "2/5"]
    proc = subprocess.run([sys.executable, "-m", "gmspec", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert run(argv) == 0
    assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)


def test_format_sigma_names_each_permutation_and_rejects_the_rest():
    for s in ALL_SIGMAS:
        assert format_sigma(s) == cli_oracle.old_format_sigma(s)
    for bad in ((1, 1, 2), (0, 1, 2), (1, 2), [1, 2, 3], "id"):
        with pytest.raises(ValueError):
            format_sigma(bad)


# k3 = 10^1200: rows whose integers exceed Python's int-to-str digit limit
_HUGE_K = "0,0,1" + "0" * 1200


def test_domain_error_leaves_no_out_file(tmp_path, capsys):
    target = tmp_path / "F"
    for fmt in FORMATS:
        for argv in (
            ["spectrum", "--depth", "-1", "--out", str(target)],
            ["--out", str(target), "spectrum", "--k", _HUGE_K, "--depth", "0"],
        ):
            _one_line_domain_error(capsys, ["--format", fmt, *argv])
            assert list(tmp_path.iterdir()) == []


def test_rows_past_the_digit_limit_are_refused_before_any_output(tmp_path, capsys):
    # (100,100,100) at depth 10 has a D of 1,053 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = ["spectrum", "--k", "100,100,100", "--depth", "10"]
        _one_line_domain_error(capsys, ["--format", "json", "--out", str(tmp_path / "F"), *argv])
        assert list(tmp_path.iterdir()) == []
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gmspec: ") and err.count("\n") == 1
        assert run([*argv[:-1], "8"]) == 0  # a D of 401 digits prints
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("k, depth", [
    ("100000000000000000000,0,0", 14), ("100000000000000000000,0,0", 12), ("900,0,0", 14),
])
def test_oversized_k_is_refused_before_the_walk(tmp_path, capsys, monkeypatch, k, depth):
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(cli, "_spectrum_rows", walk)
    argv = ["--format", "json", "--out", str(tmp_path / "F"), "spectrum", "--k", k]
    _one_line_domain_error(capsys, [*argv, "--depth", str(depth)])
    assert list(tmp_path.iterdir()) == []


def test_a_k_past_the_digit_limit_is_refused_at_the_first_level_past_it(tmp_path, capsys):
    # the zigzag paths are walked a level at a time and stop where n reaches
    # 10^4300: the deepest vertices, with about F(16) * 1000 digits, are never
    # built (formerly 0.33 s at depth 8 and 11 s at depth 12)
    limit = sys.get_int_max_str_digits()
    argv = ["--format", "json", "--out", str(tmp_path / "F"), "spectrum",
            "--k", f"{10**1000},0,0", "--depth", "14"]
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"gmspec: spectrum rows too large: an integer has over "
                                       f"{limit} digits, Python's int-to-str limit\n")
    assert list(tmp_path.iterdir()) == []
    k = (10**1000, 0, 0)
    stopped = cli._zigzag_rows(k, 14, limit)
    assert max(row[0] for row in stopped) >= 10**limit
    assert max(row[0] for row in cli._zigzag_rows(k, 1)) < 10**limit


def test_zigzag_rows_carry_the_greatest_n_of_their_depth():
    for k in itertools.product(range(3), repeat=3):
        walks = {sigma: _walk_tree(GMParams(*k, sigma), 8) for sigma in ALTERNATING}
        for depth in range(9):
            first = 2**depth - 1  # breadth-first, depth d is entries 2^d - 1 to 2^(d+1) - 2
            level = [v[4][2] for walk in walks.values() for v in walk[first:2 * first + 1]]
            assert max(row[0] for row in cli._zigzag_rows(k, depth)) == max(level), (k, depth)


def _fail_after_sqrt5(monkeypatch):
    """Make every row's decimal after that of sqrt(5) raise, as a late error:
    `decimal_str` where the row renderer of text, JSON and CSV calls it and
    where `QuadSurd.decimal` does.  No row of (0,0,1) at depth 1 is at its
    class bound (see `cli._row_decimals`), so each one calls it."""
    decimal = exact.decimal_str

    def late(x, sig=12):
        if x != QuadSurd(0, 1, 5, 1):
            raise ValueError("late")
        return decimal(x, sig)

    for module in (cli, exact):
        monkeypatch.setattr(module, "decimal_str", late)


def test_late_error_keeps_a_linked_out_file(tmp_path, capsys, monkeypatch):
    # --out through a link (as /dev/stdout is) keeps what was written, as stdout does
    _fail_after_sqrt5(monkeypatch)
    target, link = tmp_path / "F", tmp_path / "link"
    link.symlink_to(target)
    argv = ["--out", str(link), "spectrum", "--k", "0,0,1", "--depth", "1"]
    _one_line_domain_error(capsys, argv)
    assert link.is_symlink() and target.read_text().startswith("(0 + 1√5)/1 = 2.2360")


def test_late_error_removes_a_regular_out_file(tmp_path, capsys, monkeypatch):
    _fail_after_sqrt5(monkeypatch)
    for fmt in FORMATS:
        argv = ["--format", fmt, "--out", str(tmp_path / "F"), "spectrum", "--k", "0,0,1",
                "--depth", "1"]
        _one_line_domain_error(capsys, argv)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cmd", ["seq", "cohn", "node", "lagrange", "alpha", "qform"])
def test_huge_label_is_refused_with_one_line(cmd, capsys):
    _one_line_domain_error(capsys, [cmd, "--t", "99999999999999999999/1"])


def test_label_size_limit_is_on_num_plus_den(capsys):
    assert run(["seq", "--t", f"{LABEL_SIZE_LIMIT - 1}/1"]) == 0
    assert capsys.readouterr().out.count(",") == 2 * LABEL_SIZE_LIMIT - 3
    _one_line_domain_error(capsys, ["seq", "--t", f"{LABEL_SIZE_LIMIT}/1"])
    _one_line_domain_error(capsys, ["node", "--t", f"1/{LABEL_SIZE_LIMIT}"])
    # a Fibonacci label: a 14-step Farey path, but num + den = 1597
    _one_line_domain_error(capsys, ["lagrange", "--t", "610/987"])


@pytest.mark.parametrize("parts", [[], ["a"], ["a", "", "b"]])
def test_joined_streams_a_join(parts):
    want = "<" + ",".join(parts) + ">" if parts else "none"
    assert "".join(cli._joined(parts, "<", ",", ">", "none")) == want


def test_seq_size_limit_is_on_entries_and_bits(capsys):
    ones = ",".join(["1"] * 2 * LABEL_SIZE_LIMIT)
    assert run(["alpha", "--seq", ones]) == 0
    capsys.readouterr()
    for cmd in ("lagrange", "alpha", "qform"):
        _one_line_domain_error(capsys, [cmd, "--seq", ones + ",1"])
        _one_line_domain_error(capsys, [cmd, "--seq", str(2**5000)])
    # the bit budget: 4 * LABEL_SIZE_LIMIT bits over all entries, 4 bits per 8
    eights = ",".join(["8"] * LABEL_SIZE_LIMIT)
    assert run(["qform", "--seq", eights]) == 0
    capsys.readouterr()
    _one_line_domain_error(capsys, ["qform", "--seq", eights + ",1"])


# -- the parser: output flags, built on first use, same text as built eagerly

SUBCOMMANDS = ("seq", "cohn", "node", "lagrange", "alpha", "qform", "distance", "spectrum",
               "tables", "verify")


def test_output_flags_may_follow_the_subcommand(tmp_path, capsysbinary):
    def stdout_of(*argv):
        assert run([str(a) for a in argv]) == 0
        return capsysbinary.readouterr().out

    seq = ("seq", "--t", "1/2")
    text, as_json = stdout_of(*seq), stdout_of("--format", "json", *seq)
    assert text != as_json
    assert stdout_of(*seq, "--format", "json") == as_json
    assert stdout_of("--format", "json", *seq, "--format", "text") == text  # the later one wins
    before, after, unused, last = (tmp_path / name for name in ("b", "a", "u", "l"))
    assert stdout_of("--out", before, *seq) == stdout_of(*seq, "--out", after) == b""
    assert before.read_bytes() == after.read_bytes() == text
    assert stdout_of("--out", unused, *seq, "--out", last) == b""
    assert not unused.exists() and last.read_bytes() == text


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv, first in (
        (["seq", "--t", "1/2"], ["gmspec", "gmspec seq"]),
        (["spectrum", "--depth", "1"], ["gmspec spectrum"]),
        (["bogus"], []),
        (["--help"], []),
        (["tables", "-h"], ["gmspec tables"]),
        (["--format", "json", "verify", "--suite", "nope"], ["gmspec verify"]),
    ):
        for want in (first, []):  # a repeat builds nothing
            built.clear()
            run(argv)
            assert built == want, argv
    capsys.readouterr()


# argv that each subcommand accepts with nothing else given
MINIMAL_ARGV = {
    "seq": ["--t", "1/2"], "cohn": ["--t", "1/2"], "node": ["--t", "1/2"],
    "lagrange": ["--seq", "1"], "alpha": ["--t", "1/2"], "qform": ["--seq", "1"],
    "distance": ["--from", "0,0", "--to", "1,1"], "spectrum": [], "tables": [], "verify": [],
}


def test_each_subcommand_parses_to_its_own_handler():
    cli.build_parser.cache_clear()
    top = cli.build_parser()
    (sub,) = (a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == SUBCOMMANDS == tuple(MINIMAL_ARGV)
    handlers = [top.parse_args([cmd, *MINIMAL_ARGV[cmd]]).handler for cmd in SUBCOMMANDS]
    assert handlers == [getattr(cli, f"_{cmd}_cmd") for cmd in SUBCOMMANDS]


def _parsed(parser, argv) -> dict:
    args = vars(parser.parse_args(argv))
    return {k: getattr(v, "__name__", v) for k, v in args.items()}


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_namespaces_match_the_eager_parser(cmd):
    old = cli_oracle.old_build_parser()
    rest = MINIMAL_ARGV[cmd]
    variants = [[cmd, *rest], ["--format", "csv", cmd, *rest], [cmd, *rest, "--out", "f"],
                ["--out", "a", "--format", "json", cmd, *rest, "--format", "text", "--out", "b"]]
    if cmd not in ("spectrum", "tables", "verify"):
        variants.append([cmd, *rest, "--k", "1,2,0", "--sigma", "(1 2)"])
    variants += {
        "cohn": [[cmd, *rest, "--method", "recursive"]],
        "lagrange": [[cmd, "--t", "2/5", "--k", "1,2,0"]],
        "spectrum": [[cmd, "--k", "1,2,0", "--depth", "7"], [cmd, "--kmax", "3", "--depth", "2"]],
        "verify": [[cmd, "--suite", "snake"], ["--format", "json", cmd, "--suite", "all"]],
    }.get(cmd, [])
    for argv in variants:
        cli.build_parser.cache_clear()
        assert _parsed(cli.build_parser(), argv) == _parsed(old, argv), argv


def _outcome(argv, capsysbinary):
    rc = run(argv)
    out = capsysbinary.readouterr()
    return rc, out.out, out.err


PARSER_ARGV = [
    ["--help"], ["-h"], ["--format", "json", "--help"],
    *([cmd, "--help"] for cmd in SUBCOMMANDS), ["spectrum", "-h", "--format", "json"],
    [], ["bogus"], ["--format", "json"], ["seq"], ["seq", "--k", "1,2,0"],
    ["lagrange", "--seq", "1", "--t", "1"], ["qform"], ["spectrum", "--k", "0,0,1", "--kmax", "2"],
    ["--format", "xml", "seq", "--t", "1"], ["seq", "--t", "1", "--format", "xml"],
    ["verify", "--suite", "nope"], ["--out"], ["seq", "--t", "1", "extra"],
    ["spectrum", "--depth", "x"], ["cohn", "--t", "1", "--method", "open"],
]


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_help_and_usage_errors_match_the_eager_parser(argv, capsysbinary, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", cli_oracle.old_build_parser)
        old = _outcome(argv, capsysbinary)
    assert old[0] in (0, 1) and (old[1] or old[2])
    cli.build_parser.cache_clear()
    assert _outcome(argv, capsysbinary) == old  # a fresh parser
    assert _outcome(argv, capsysbinary) == old  # its subparser already built
    for cmd in SUBCOMMANDS:  # every subparser built
        cli.build_parser().parse_args([cmd, *MINIMAL_ARGV[cmd]])
    assert _outcome(argv, capsysbinary) == old


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_subcommand_help_exits_0(cmd, capsys):
    assert run([cmd, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: gmspec {cmd} ")


# -- a failed write to stdout ends in one line --------------------------------

def _assert_one_line_exit_1(argv, errno_code, stdout, unbuffered, closed_early=False):
    """gmspec argv in its own process, stdout buffered as a shell gives it or
    not, exits 1 with one stderr line naming the errno."""
    src = os.path.dirname(os.path.dirname(gmspec.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "gmspec", *argv], env=env, stdout=stdout,
                            stderr=subprocess.PIPE, text=True)
    if closed_early:  # as `| head -1` does, with far more than a pipe buffer still to come
        proc.stdout.readline()
        proc.stdout.close()
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 1 and err.startswith("gmspec: ") and err.count("\n") == 1, err
    assert f"[Errno {errno_code}]" in err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_ends_in_one_line(unbuffered):
    argv = ["spectrum", "--k", "1,2,0", "--depth", "10"]
    _assert_one_line_exit_1(argv, errno.EPIPE, subprocess.PIPE, unbuffered, closed_early=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", [
    (["seq", "--t", "1/2"], ""), (["seq", "--t", "1/2"], "1"), (["seq", "--help"], ""),
    (["seq", "--help"], "1"),
], ids=["seq", "seq-unbuffered", "help", "help-unbuffered"])
def test_full_stdout_ends_in_one_line(argv, unbuffered):
    with open("/dev/full", "w") as full:
        _assert_one_line_exit_1(argv, errno.ENOSPC, full, unbuffered)


class _FullStdout(io.StringIO):
    """Takes every write and fails every flush, as a full disk does."""

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_run_flushes_stdout_and_reports_a_failure(monkeypatch, capsys):
    # in process, run itself reports what main would only see at its exit
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert run(["seq", "--t", "1/2"]) == 1
    assert capsys.readouterr().err == f"gmspec: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
