"""Golden-row reproduction for the spectrum tables.

The fixture file stores, for ten parameter cases, eight rows each of
(t, s(t), alpha, n_t, L).  Every quantity is recomputed from scratch and
compared exactly: sequences as tuples, surds as canonical forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .exact import QuadSurd
from .farey import IrreducibleFraction
from .gmtree import GMParams, parse_sigma
from .lattice import admissible_sequence
from .spectrum import alpha_fixed_point, lagrange_value, markov_value

__all__ = ["TableRow", "RowResult", "load_tables", "reproduce_tables"]


@dataclass(frozen=True)
class TableRow:
    label: str
    params: GMParams
    t: IrreducibleFraction
    s: tuple[int, ...]
    alpha: QuadSurd
    n: int
    value: QuadSurd


@dataclass(frozen=True)
class RowResult:
    row: TableRow
    ok: bool
    mismatches: tuple[str, ...]

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH " + ", ".join(self.mismatches)
        return f"{self.row.label} t={self.row.t}: {status}"


def load_tables() -> list[TableRow]:
    raw = json.loads(
        resources.files("gmspec").joinpath("data/tables.json").read_text()
    )
    rows: list[TableRow] = []
    for table in raw["tables"]:
        params = GMParams(*table["k"], parse_sigma(table["sigma"]))
        for row in table["rows"]:
            rows.append(
                TableRow(
                    label=table["label"],
                    params=params,
                    t=IrreducibleFraction.parse(row["t"]),
                    s=tuple(row["s"]),
                    alpha=QuadSurd(*row["alpha"]),
                    n=row["n"],
                    value=QuadSurd(*row["L"]),
                )
            )
    return rows


def check_row(row: TableRow) -> RowResult:
    bad: list[str] = []
    s = admissible_sequence(row.t, row.params)
    if s != row.s:
        bad.append(f"s: computed {s}")
    el = markov_value(row.t, row.params)
    if el.n != row.n:
        bad.append(f"n: computed {el.n}")
    alpha = alpha_fixed_point(s)
    if alpha != row.alpha:
        bad.append(f"alpha: computed {alpha}")
    if el.value != row.value:
        bad.append(f"L: computed {el.value}")
    lag = lagrange_value(s)
    if lag != row.value:
        bad.append(f"L via rotations: computed {lag}")
    return RowResult(row, not bad, tuple(bad))


def reproduce_tables() -> list[RowResult]:
    """Recompute all golden rows; a row passes only on exact match of every
    quantity."""
    return [check_row(row) for row in load_tables()]
