"""Basic-commutator counting formula and its comparison against the rank oracle.

``formula_count`` is a literal transcription of the closed-form count of
basic commutators of weight w on d generators in the n-ary setting.
It is deliberately never "fixed": where it disagrees with the rank oracle
(the actual graded dimension of the free algebra), ``compare_table`` surfaces
the disagreement as data instead of asserting either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .free_algebra import DEFAULT_MAX_TREES, _tree_ids, graded_dimension


class CountDomainError(ValueError):
    """The counting formula was evaluated outside its domain."""


def formula_count(d: int, n: int, w: int) -> int:
    """Closed-form basic-commutator count l(d, n, w), transcribed exactly.

    The count is sum over j = 1..C(d-1, n-1) of beta(j*) times the inner sum
    over i = 2..w-1 of C(w-3, i-2) * C(C(d, n-1), w-i), where the block of j
    determines j* = C(k-1, n-1) + 1 and beta = d - n - j* + 2.  Only defined
    for w >= 3 (the inner sum is empty below that).
    """
    if d < 1 or n < 2 or w < 1:
        raise CountDomainError("need d >= 1, n >= 2, w >= 1")
    if w < 3:
        raise CountDomainError(f"formula_count is defined for w >= 3, got w={w}")
    alpha0 = comb(d - 1, n - 1)
    inner = sum(comb(w - 3, i - 2) * comb(comb(d, n - 1), w - i) for i in range(2, w))
    total = 0
    for j in range(1, alpha0 + 1):
        jstar = None
        for k in range(n - 1, d):
            if comb(k - 1, n - 1) + 1 <= j <= comb(k, n - 1):
                jstar = comb(k - 1, n - 1) + 1
                break
        if jstar is None:
            raise CountDomainError(
                f"index j={j} not covered by any block k in {n - 1}..{d - 1}"
            )
        total += (d - n - jstar + 2) * inner
    return total


def convention_count(d: int, n: int, w: int) -> int:
    """The counting formula extended to all weights: w=1 counts generators,
    w=2 counts sorted generator brackets C(d, n), and w >= 3 delegates to
    :func:`formula_count`."""
    if d < 1 or n < 2 or w < 1:
        raise CountDomainError("need d >= 1, n >= 2, w >= 1")
    if w == 1:
        return d
    if w == 2:
        return comb(d, n)
    return formula_count(d, n, w)


def layer_sum(n: int, d: int, i: int, c: int, use_oracle: bool = True) -> int:
    """Dimension of the degree-i..i+c-1 slice of the free algebra grading:
    sum over j = 0..c-1 of the weight-(i+j) count, either from the rank
    oracle or from the counting-formula convention."""
    if i < 1 or c < 1:
        raise ValueError("need i >= 1 and c >= 1")
    if use_oracle:
        return sum(graded_dimension(n, d, i + j) for j in range(c))
    return sum(convention_count(d, n, i + j) for j in range(c))


@dataclass(frozen=True)
class CountRow:
    """One comparison cell: formula value vs rank-oracle value."""

    d: int
    n: int
    w: int
    formula: int | None
    oracle: int
    agree: bool
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "d": self.d,
            "n": self.n,
            "w": self.w,
            "formula": self.formula,
            "oracle": self.oracle,
            "agree": self.agree,
        }
        if self.note:
            out["note"] = self.note
        return out


class GridLimitError(RuntimeError):
    """The comparison grid exceeded its cell guard."""

    def __init__(self, cells: int, limit: int):
        super().__init__(f"comparison grid has {cells} cells, limit is {limit}")
        self.cells = cells
        self.limit = limit


def compare_table(
    n: int,
    d_values,
    w_values,
    max_cells: int = 400,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> list[CountRow]:
    """Formula-vs-oracle table over a bounded grid; reports, never asserts.
    Each column's tree table is grown to the largest weight before its
    cells, so its multidegree keys are made once, in one digit base."""
    d_values = list(d_values)
    w_values = list(w_values)
    if len(d_values) * len(w_values) > max_cells:
        raise GridLimitError(len(d_values) * len(w_values), max_cells)
    rows = []
    for d in d_values:
        if w_values:
            _tree_ids(n, d, max(w_values), max_trees)
        for w in w_values:
            oracle = graded_dimension(n, d, w, max_trees)
            note = ""
            try:
                formula: int | None = convention_count(d, n, w)
            except CountDomainError as exc:
                formula = None
                note = str(exc)
            if w == 2:
                note = "convention value (formula inner sum empty below weight 3)"
            rows.append(CountRow(d, n, w, formula, oracle, formula == oracle, note))
    return rows
