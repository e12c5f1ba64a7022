"""The four benchmark workloads.

Each workload makes its inputs from a seed, runs one pass at a time (the
timed part), and checks a pass's outputs exactly outside the timed region.
A pass is a fixed list of timed operations.  For the error rate, one query
(label-queries) or one pass (the others) is the unit: a failed check or an
exception fails it.

Why these four (the layer map is in perfbench/README.md):

* spectrum-deep: the bulk user job, `gmspec spectrum` at depth 8 written as
  JSON for six triples.  It loads the tree walk, surd construction,
  dedup/sort and decimal rendering; it makes almost no surd comparisons.
* transition-window: the window scan over all triples with max <= 2 at
  depth 4, whose time goes mostly to surd comparisons by interval refinement.
* label-queries: a point-query user calling the library directly, one call
  at a time; it loads lattice, cf_matrix, lagrange_value, continuant and
  cohn, and no bulk tree walk.
* verify-grid: the verify suites, one grid triple per operation, and tables,
  from a cold grid each pass; the only user of the verify grid cache, the
  brute-force matcher and tables.

A pass times each operation through a `meter.Meter`, which scales it by the
host's speed measured next to it.  Operations are kept well under a second,
so that a change of host speed seldom falls inside one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import checks


def clear_caches() -> None:
    """Empty every lru_cache in gmspec, as a fresh process would have them."""
    for name, mod in list(sys.modules.items()):
        if name == "gmspec" or name.startswith("gmspec."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@dataclass
class PassResult:
    outcomes: list = field(default_factory=list)  # one per timed operation


@dataclass
class Verdict:
    attempted: int
    failed: int
    values: int  # exact values written, returned or checked in the pass
    errors: list[str] = field(default_factory=list)


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(meter, argv: list[str]) -> int:
    from gmspec import cli

    return meter.time(cli.run, argv)


# ---------------------------------------------------------------------------
# spectrum-deep
# ---------------------------------------------------------------------------

# Three triples with distinct entries and three with exactly two equal
# entries.  The seed arranges each one; the cost of a spectrum does not
# depend on the arrangement, so every seed's pass does the same work.
_DISTINCT = ((0, 1, 5), (0, 2, 4), (1, 2, 3))  # no cross-tree duplicates
_REPEATED = ((0, 0, 5), (1, 1, 3), (2, 2, 1))  # the t -> 1/t dual trees coincide


class SpectrumDeep:
    name = "spectrum-deep"

    def __init__(self, seed: int, smoke: bool) -> None:
        rng = random.Random(seed)
        self.triples = [tuple(rng.sample(k, 3)) for k in _DISTINCT + _REPEATED]
        self.depth = 4 if smoke else 8
        self.sample_seed = seed
        self._first: tuple[list[str], Verdict] | None = None

    def run_pass(self, workdir: str, meter) -> PassResult:
        out = PassResult()
        for i, k in enumerate(self.triples):
            path = os.path.join(workdir, f"spectrum-{i}.json")
            argv = ["spectrum", "--k", ",".join(map(str, k)), "--depth", str(self.depth),
                    "--format", "json", "--out", path]
            out.outcomes.append((k, _cli(meter, argv), path))
        return out

    def check(self, result: PassResult) -> Verdict:
        # Outputs are deterministic: later passes must match the first byte
        # for byte, and the first is checked in full.
        digests = [
            _file_digest(path) if rc == 0 and os.path.exists(path) else ""
            for _, rc, path in result.outcomes
        ]
        if self._first is None:
            self._first = (digests, self._check_full(result))
        first_digests, verdict = self._first
        if digests != first_digests:
            return Verdict(1, 1, 0, ["output differs from the first pass"])
        return verdict

    def _check_full(self, result: PassResult) -> Verdict:
        from gmspec.farey import IrreducibleFraction
        from gmspec.gmtree import GMParams, parse_sigma
        from gmspec.spectrum import markov_value

        errors: list[str] = []
        values = 0
        rng = random.Random(self.sample_seed)
        for k, rc, path in result.outcomes:
            if rc != 0:
                errors.append(f"k={k}: exit code {rc}")
                continue
            with open(path) as fh:
                rows = json.load(fh)
            values += len(rows)
            if not rows or any((r["k1"], r["k2"], r["k3"]) != k for r in rows):
                errors.append(f"k={k}: empty output or rows of another triple")
                continue
            errors += checks.spectrum_rows_errors(rows, ascending=True)
            for row in rng.sample(rows, min(8, len(rows))):
                el = markov_value(
                    IrreducibleFraction.parse(row["t"]), GMParams(*k, parse_sigma(row["sigma"]))
                )
                same_value = el.value.squared_fraction() == checks.value_square(row)
                if (el.n, el.pos) != (row["n"], row["pos"]) or not same_value:
                    errors.append(f"k={k} t={row['t']}: markov_value disagrees with the row")
        return Verdict(1, int(bool(errors)), values, errors)


# ---------------------------------------------------------------------------
# transition-window
# ---------------------------------------------------------------------------

class TransitionWindow:
    name = "transition-window"

    def __init__(self, seed: int, smoke: bool) -> None:
        # a fixed input; the seed does not change it
        self.kmax = 2
        self.depth = 3 if smoke else 4
        self._expected: set[Fraction] | None = None

    def run_pass(self, workdir: str, meter) -> PassResult:
        path = os.path.join(workdir, "transition.json")
        argv = ["spectrum", "--kmax", str(self.kmax), "--depth", str(self.depth),
                "--format", "json", "--out", path]
        return PassResult([(_cli(meter, argv), path)])

    def expected(self) -> set[Fraction]:
        """Squares of the (0,0,1) spectrum minus sqrt(5), plus 2*sqrt(5)."""
        if self._expected is None:
            from gmspec.spectrum import enumerate_spectrum

            keys = {el.sort_key() for el in enumerate_spectrum((0, 0, 1), self.depth)}
            self._expected = (keys - {Fraction(5)}) | {Fraction(20)}
        return self._expected

    def check(self, result: PassResult) -> Verdict:
        from gmspec.exact import QuadSurd
        from gmspec.gmtree import parse_sigma
        from gmspec.spectrum import FREIMAN_CONSTANT

        (rc, path), = result.outcomes
        if rc != 0:
            return Verdict(1, 1, 0, [f"exit code {rc}"])
        with open(path) as fh:
            rows = json.load(fh)
        errors = checks.spectrum_rows_errors(rows, ascending=False)
        squares = {checks.value_square(r) for r in rows}
        if squares != self.expected():
            errors.append(f"{len(squares)} window values, expected {len(self.expected())}")
        outside = [r["t"] for r in rows
                   if not 3 <= QuadSurd(r["p"], r["q"], r["D"], r["r"]) < FREIMAN_CONSTANT]
        if outside:
            errors.append(f"{len(outside)} hits outside [3, c_F)")
        witnessed = any(
            (r["k1"], r["k2"], r["k3"]) == (0, 0, 2) and checks.value_square(r) == 20
            and r["n"] == 4 and r["pos"] == parse_sigma(r["sigma"])[1]
            for r in rows
        )
        if not witnessed:
            errors.append("2*sqrt(5) is not witnessed at (n, i) = (4, sigma(2)) under (0,0,2)")
        return Verdict(1, int(bool(errors)), len(rows), errors)


# ---------------------------------------------------------------------------
# label-queries
# ---------------------------------------------------------------------------

KINDS = ("seq", "node", "cohn_closed", "cohn_recursive", "markov", "lagrange", "alpha", "distance")
SURD_KINDS = ("markov", "lagrange", "alpha")


@dataclass(frozen=True)
class Query:
    kind: str
    num: int
    den: int
    k: tuple[int, int, int]
    sigma: tuple[int, int, int]
    mult: int  # distance queries go to mult * (den, num)


# every coefficient triple in {0..5}^3, ordered by 3 + k1 + k2 + k3
_TRIPLES = sorted(
    ((a, b, c) for a in range(6) for b in range(6) for c in range(6)), key=sum
)
_GOLDEN = (math.sqrt(5) - 1) / 2
REASK = 0.6  # chance of a re-ask; a near-enough label is there about half the time
_SILVER = math.sqrt(2) - 1


def make_queries(rng: random.Random, count: int, max_size: int) -> list[Query]:
    """`count` queries, an equal share of each kind, on labels whose
    num + den is log-uniform in [2, max_size] and coefficients in {0..5}^3.

    Each kind's sizes are stratified over that range and paired, by fixed
    low-discrepancy sequences, with coefficient sums and with the place of
    num among the residues prime to the size.  So the heavy tail weighs the
    same in every seed's stream: lagrange_value is quadratic in the sequence
    length, entries grow with 3 + k1 + k2 + k3, and labels near 1/size or
    size-1 have Farey paths of length ~size.  The seed draws each size
    within its stratum, the arrangement of each triple, sigma, the order of
    the queries and the re-asks.
    About 30% of the queries re-ask the recent label nearest in
    max(num, den) and coefficient sum, where that is within 5% of the
    planned one, so gm_node's cache sees hits and the cost stays put.
    """
    from gmspec.gmtree import ALL_SIGMAS

    per_kind = count // len(KINDS)
    lo, hi = math.log(2), math.log(max_size)
    plan = []
    for i, kind in enumerate(KINDS):
        shift_k, shift_num = (i * _SILVER) % 1.0, (i * _GOLDEN) % 1.0
        for j in range(per_kind):
            size = round(math.exp(lo + (hi - lo) * (j + rng.random()) / per_kind))
            k = _TRIPLES[int(len(_TRIPLES) * ((shift_k + j * _GOLDEN) % 1.0))]
            at = (shift_num + j * _SILVER) % 1.0
            plan.append((kind, size, k, at, 1 + j % 2))
    rng.shuffle(plan)
    out: list[Query] = []
    recent: list[tuple] = []
    for kind, size, k, at, mult in plan:
        coprime = [x for x in range(1, size) if math.gcd(x, size) == 1]
        num = coprime[int(len(coprime) * at)]
        den = size - num
        # the sequence length, and so the cost, goes with max(num, den):
        # a re-ask takes the recent label nearest in it, if one is near
        longest = max(num, den)
        again = rng.random() < REASK and min(recent, default=None, key=lambda r: (
            abs(math.log(max(r[0], r[1]) / longest)) + abs(sum(r[2]) - sum(k)) / 15))
        if again and abs(max(again[:2]) - longest) <= 0.05 * longest:
            num, den, k, sigma = again
        else:
            k = tuple(rng.sample(k, 3))
            sigma = rng.choice(ALL_SIGMAS)
            recent = (recent + [(num, den, k, sigma)])[-32:]
        out.append(Query(kind, num, den, k, sigma, mult))
    return out


def answer(q: Query):
    """One library call, as a point-query user makes it."""
    from gmspec import cohn, gmtree, lattice, spectrum
    from gmspec.farey import IrreducibleFraction

    t = IrreducibleFraction(q.num, q.den)
    params = gmtree.GMParams(*q.k, q.sigma)
    kind = q.kind
    if kind == "seq":
        return lattice.admissible_sequence(t, params)
    if kind == "node":
        return gmtree.gm_node(t, params)
    if kind == "cohn_closed":
        return cohn.cohn_closed_form(t, params)
    if kind == "cohn_recursive":
        return cohn.cohn_recursive(t, params)
    if kind == "markov":
        return spectrum.markov_value(t, params).value.decimal()
    if kind == "lagrange":
        return spectrum.lagrange_value(lattice.admissible_sequence(t, params))
    if kind == "alpha":
        return spectrum.alpha_fixed_point(lattice.admissible_sequence(t, params))
    return lattice.gm_distance((0, 0), (q.mult * q.den, q.mult * q.num), params)


def answer_error(q: Query, got) -> str | None:
    """Check one answer against an identity of the paper."""
    from gmspec import cohn, gmtree, lattice, spectrum
    from gmspec.farey import IrreducibleFraction

    t = IrreducibleFraction(q.num, q.den)
    params = gmtree.GMParams(*q.k, q.sigma)
    pair = gmtree.gm_pair(t, params)
    n, k_t, K = pair.value, params.k_at(pair.pos), params.coeff_sum
    delta = (K * n - k_t) ** 2 - 4
    kind = q.kind
    if kind == "seq":
        ok = checks.cf_product(got)[2] == n  # lower-left entry of cf_matrix(s(t)) is n_t
    elif kind == "node":
        x, y, z = got.triple_at_positions()
        k1, k2, k3 = q.k
        ok = (got.mid.value == n and x * x + y * y + z * z + k1 * y * z + k2 * z * x + k3 * x * y
              == K * x * y * z)
    elif kind in ("cohn_closed", "cohn_recursive"):
        other = (cohn.cohn_recursive if kind == "cohn_closed" else cohn.cohn_closed_form)(t, params)
        ok = got == other and got.det() == 1 and got.c == n and got.trace() == K * n - k_t
    elif kind == "markov":
        ok = checks.decimal_error(got, Fraction(delta, n * n)) is None
    elif kind == "lagrange":  # lagrange_value(s(t)) equals markov_value(t)
        ok = got.p == 0 and Fraction(got.q * got.q * got.D, got.r * got.r) == Fraction(delta, n * n)
    elif kind == "alpha":
        ok = checks.is_fixed_point(got, lattice.admissible_sequence(t, params))
    else:
        ok = got == n * checks.chebyshev_u(q.mult, K * n - k_t)
    return None if ok else f"{kind} t={q.num}/{q.den} k={q.k} sigma={q.sigma}: {got!r}"


class LabelQueries:
    name = "label-queries"

    def __init__(self, seed: int, smoke: bool) -> None:
        count, max_size = (64, 64) if smoke else (2000, 256)
        self.queries = make_queries(random.Random(seed), count, max_size)
        self._first: tuple[list, Verdict] | None = None

    def run_pass(self, workdir: str, meter) -> PassResult:
        out = PassResult()
        for q in self.queries:
            try:
                got = meter.time(answer, q)
            except Exception as exc:  # a raising query is a failed operation
                got = exc
            out.outcomes.append((q, got))
        return out

    def check(self, result: PassResult) -> Verdict:
        # Every pass asks the same queries: a pass whose answers equal the
        # first pass's shares its verdict, and the first is checked in full.
        answers = [repr(got) if isinstance(got, Exception) else got for _, got in result.outcomes]
        if self._first is None:
            self._first = (answers, self._check_full(result))
        first_answers, verdict = self._first
        if answers != first_answers:
            differ = sum(a != b for a, b in zip(answers, first_answers))
            return Verdict(len(answers), differ, 0, [f"{differ} answers differ from pass 1"])
        return verdict

    def _check_full(self, result: PassResult) -> Verdict:
        errors = []
        values = 0
        for q, got in result.outcomes:
            if isinstance(got, Exception):
                errors.append(f"{q.kind} t={q.num}/{q.den} k={q.k}: raised {got!r}")
                continue
            err = answer_error(q, got)
            if err:
                errors.append(err)
            elif q.kind in SURD_KINDS:
                values += 1
        return Verdict(len(result.outcomes), len(errors), values, errors)


# ---------------------------------------------------------------------------
# verify-grid
# ---------------------------------------------------------------------------

class VerifyGrid:
    name = "verify-grid"

    def __init__(self, seed: int, smoke: bool) -> None:
        from gmspec.verify import grid_triples

        # a fixed input, the verify grid as `gmspec verify` builds it; the
        # seed does not change it
        self.triples = grid_triples()[: 3 if smoke else None]
        self.grid_depth = 4 if smoke else 6
        self.exhaustive_sum = 6 if smoke else 10
        self.squares_depth = 4 if smoke else 7

    def operations(self):
        """(name, thunk) pairs; each returns a list of CheckResult or of
        table RowResult."""
        from gmspec import tables, verify

        def grid_slice(t):
            d = self.grid_depth
            return (verify.factorization_suite(depth=d, triples=[t])
                    + verify.rotation_suite(depth=d, triples=[t])
                    + verify.duality_suite(depth=d, triples=[t], surd_sample_depth=1))

        ops = [(f"grid k={t}", lambda t=t: grid_slice(t)) for t in self.triples]
        ops.append(("snake", lambda: verify.snake_suite(
            exhaustive_sum=self.exhaustive_sum, random_count=0)))
        ops.append(("squares", lambda: verify.squares_suite(depth=self.squares_depth)))
        ops.append(("tables", tables.reproduce_tables))
        return ops

    def run_pass(self, workdir: str, meter) -> PassResult:
        out = PassResult()
        for name, op in self.operations():
            out.outcomes.append((name, meter.time(op)))
        return out

    def check(self, result: PassResult) -> Verdict:
        errors = []
        cases = 0
        for name, got in result.outcomes:
            bad = [r for r in got if not r.ok]
            if bad or not got:
                errors.append(f"{name}: {len(bad)} of {len(got)} checks failed")
            if name == "tables":
                cases += len(got)
                if len(got) != 80:
                    errors.append(f"tables: {len(got)} rows, expected 80")
            else:
                cases += sum(int(r.detail.split()[0]) for r in got if r.detail[:1].isdigit())
        return Verdict(1, int(bool(errors)), cases, errors)


WORKLOADS = {w.name: w for w in (SpectrumDeep, TransitionWindow, LabelQueries, VerifyGrid)}
