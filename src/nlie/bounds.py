"""Mechanical checkers for the dimension bounds on c-nilpotent multipliers.

Every checker is evaluated in two variants: "oracle" rows use the rank
oracle (true graded dimensions of the free algebra) for the count function
and are the asserting variant; "formula" rows re-evaluate the same bound
with the closed-form basic-commutator count and are report-only, since that
formula is known to disagree with the oracle on some inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    StructureAlgebra,
    _quotient,
    abelian,
    direct_sum,
    gamma_term,
    heisenberg,
    is_ideal,
    minimal_generators,
    nilpotency_class,
    upper_central_series,
    z_term,
)
from .counting import CountDomainError, convention_count
from .free_algebra import DEFAULT_MAX_TREES, free_nilpotent, graded_dimension
from .linalg import Subspace, subspace_intersect
from .multiplier import multiplier_report

VARIANTS = ("oracle", "formula")


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one inequality check."""

    name: str
    descriptor: str
    variant: str
    lhs: int | None
    rhs: int | None
    relation: str = "<="
    holds: bool = True
    slack: int | None = None
    applicable: bool = True
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "descriptor": self.descriptor,
            "variant": self.variant,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "holds": self.holds,
            "slack": self.slack,
            "applicable": self.applicable,
            "flags": list(self.flags),
        }


def _row(name, descriptor, variant, lhs, rhs, flags=()) -> BoundCheck:
    if rhs is None or lhs is None:
        return BoundCheck(name, descriptor, variant, lhs, rhs, "<=", True, None, True, tuple(flags))
    return BoundCheck(
        name, descriptor, variant, lhs, rhs, "<=", lhs <= rhs, rhs - lhs, True, tuple(flags)
    )


def _inapplicable(name, descriptor, reason) -> BoundCheck:
    return BoundCheck(name, descriptor, "oracle", None, None, "<=", True, None, False, (reason,))


def _count(variant: str, d: int, n: int, w: int, max_trees: int | None) -> int | None:
    """The weight-w count on d generators: the rank oracle's layer dimension
    (under the tree guard ``max_trees``), or the closed-form count (None
    outside its domain).  Below one generator the oracle count is 0 and the
    formula has none."""
    if d < 1:
        return 0 if variant == "oracle" else None
    if variant == "oracle":
        return graded_dimension(n, d, w, max_trees)
    try:
        return convention_count(d, n, w)
    except CountDomainError:
        return None


def _bound_rows(
    name: str, descriptor: str, value: int, n: int, d: int, weights, extra: int = 0,
    flags: tuple[str, ...] = (), count_is_lhs: bool = False, *, max_trees: int | None,
) -> list[BoundCheck]:
    """One row per variant for ``value <= sum_w count(d, w) + extra``, or for
    ``sum_w count(d, w) <= value`` when ``count_is_lhs``.  A count outside
    the formula's domain leaves that side None, flagged
    ``formula-domain-error``."""
    rows = []
    for variant in VARIANTS:
        terms = [_count(variant, d, n, w, max_trees) for w in weights]
        if None in terms:
            bound, row_flags = None, ("formula-domain-error",)
        else:
            bound, row_flags = sum(terms) + extra, flags
        sides = (bound, value) if count_is_lhs else (value, bound)
        rows.append(_row(name, descriptor, variant, *sides, row_flags))
    return rows


def _gamma_sum(algebra: StructureAlgebra, c: int, d: int) -> int:
    """sum_{i=1..c} dim gamma_{i+1}(L) * d^(c(n-1)-i+1); every exponent is
    at least 1, as n >= 2 and i <= c."""
    n = algebra.n
    return sum(
        gamma_term(algebra, i + 1).dim * d ** (c * (n - 1) - i + 1) for i in range(1, c + 1)
    )


def check_quotient_bound(
    algebra: StructureAlgebra, ideal: Subspace, c: int, descriptor: str,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> BoundCheck:
    """dim M^(c)(L/M) <= dim M^(c)(L) + dim(gamma_{c+1}(L) /\\ M)."""
    if not is_ideal(algebra, ideal):
        raise ValueError("quotient bound requires an ideal")
    rep = multiplier_report(algebra, c, max_trees=max_trees)
    quotient, _ = _quotient(algebra, ideal)
    rep_q = multiplier_report(quotient, c, max_trees=max_trees)
    cap = subspace_intersect(gamma_term(algebra, c + 1), ideal).dim
    return _row("quotient", descriptor, "oracle", rep_q.multiplier_dim, rep.multiplier_dim + cap)


def check_central_tensor_bound(
    algebra: StructureAlgebra, ideal: Subspace, c: int, descriptor: str,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> BoundCheck:
    """dim M^(c)(L) + dim(gamma_{c+1}(L) /\\ M) <= dim M^(c)(L/M)
    + dim M^(c)(M) + (dim (L/M)^ab)^(c(n-1)) * dim M, for central M.

    The last term is the product upper bound for the c-fold tensor of the
    abelianized quotient with M.  All multiplier terms are true (engine)
    dimensions.  M is central, so every bracket of M is 0 and M^(c)(M) is
    read off the abelian algebra of dimension dim M.

    The row asserts ("oracle") when M is the zero ideal, the derived
    subalgebra gamma_2(L) or the whole algebra (then abelian).  Other
    central ideals run report-only ("exploratory"): with true dimensions on
    every term the inequality can fail (the rank oracle undercuts the
    closed-form count the bound's slack relies on), e.g. the centre of
    H(2,1)+A(2) at c=2.
    """
    if not z_term(algebra, 1).contains_subspace(ideal):
        raise ValueError("central-tensor bound requires a central ideal")
    n = algebra.n
    rep = multiplier_report(algebra, c, max_trees=max_trees)
    cap = subspace_intersect(gamma_term(algebra, c + 1), ideal).dim
    lhs = rep.multiplier_dim + cap
    quotient, _ = _quotient(algebra, ideal)
    rep_q = multiplier_report(quotient, c, max_trees=max_trees)
    rep_m = multiplier_report(abelian(ideal.dim, n), c, max_trees=max_trees)
    ab_dim = quotient.dim - gamma_term(quotient, 2).dim
    tensor_bound = ab_dim ** (c * (n - 1)) * ideal.dim
    rhs = rep_q.multiplier_dim + rep_m.multiplier_dim + tensor_bound
    asserted = ideal.dim in (0, algebra.dim) or ideal == gamma_term(algebra, 2)
    return _row("central-tensor", descriptor, "oracle" if asserted else "exploratory", lhs, rhs)


def check_generator_bounds(
    algebra: StructureAlgebra, c: int, descriptor: str, max_trees: int | None = DEFAULT_MAX_TREES,
) -> list[BoundCheck]:
    """count(d, c+1) <= dim M^(c)(L) + dim gamma_{c+1}(L)
    <= count(d, c+1) + sum_i a_i d^(c(n-1)-i+1), with d the minimal
    generator count and a_i = dim gamma_{i+1}(L)."""
    n = algebra.n
    rep = multiplier_report(algebra, c, max_trees=max_trees)
    d = minimal_generators(algebra)
    mid = rep.multiplier_dim + gamma_term(algebra, c + 1).dim
    return _bound_rows(
        "generator-lower", descriptor, mid, n, d, [c + 1], count_is_lhs=True, max_trees=max_trees
    ) + _bound_rows("generator-upper", descriptor, mid, n, d, [c + 1], _gamma_sum(algebra, c, d),
                    max_trees=max_trees)


def check_class_bounds(
    algebra: StructureAlgebra, c: int, descriptor: str, max_trees: int | None = DEFAULT_MAX_TREES,
) -> list[BoundCheck]:
    """Class-m branch bounds on dim M^(c)(L): sum_{k=0..c} count(m+k) when
    m <= c, and sum_{k=1..m} count(c+k) when m >= c+1.  The generator count
    of L is used for d."""
    rep = multiplier_report(algebra, c, max_trees=max_trees)
    m = rep.nil_class
    if m < 1:
        return [_inapplicable("class", descriptor, "zero-dimensional")]
    d = minimal_generators(algebra)
    weights = range(m, m + c + 1) if m <= c else range(c + 1, c + m + 1)
    return _bound_rows("class", descriptor, rep.multiplier_dim, algebra.n, d, weights,
                       flags=("d-read-as-generator-count",), max_trees=max_trees)


def check_hypercenter_bound(
    algebra: StructureAlgebra, c: int, descriptor: str, max_trees: int | None = DEFAULT_MAX_TREES,
) -> list[BoundCheck]:
    """dim gamma_{c+1}(L) <= count(dim(L/Z_c(L)), c+1); plus the corollary
    variant that bounds via the generator data of L/Z_c(L)."""
    n = algebra.n
    gdim = gamma_term(algebra, c + 1).dim
    zc = z_term(algebra, c)
    rows = _bound_rows("hypercenter", descriptor, gdim, n, algebra.dim - zc.dim, [c + 1],
                       max_trees=max_trees)
    quotient, _ = _quotient(algebra, zc)
    if nilpotency_class(quotient) is None:
        rows.append(_inapplicable("hypercenter-corollary", descriptor, "quotient-not-nilpotent"))
        return rows
    dq = minimal_generators(quotient)
    return rows + _bound_rows("hypercenter-corollary", descriptor, gdim, n, dq, [c + 1],
                              _gamma_sum(quotient, c, dq), ("corollary-form",),
                              max_trees=max_trees)


def check_dim_cap_bound(
    algebra: StructureAlgebra, c: int, descriptor: str, max_trees: int | None = DEFAULT_MAX_TREES,
) -> list[BoundCheck]:
    """dim M^(c)(L) + dim gamma_{c+1}(L) <= count(dim L, c+1)."""
    rep = multiplier_report(algebra, c, max_trees=max_trees)
    lhs = rep.multiplier_dim + gamma_term(algebra, c + 1).dim
    return _bound_rows("dim-cap", descriptor, lhs, algebra.n, algebra.dim, [c + 1],
                       flags=("d-read-as-dim",), max_trees=max_trees)


def _is_maximal_class(algebra: StructureAlgebra, c: int) -> bool:
    if nilpotency_class(algebra) != c + 1:
        return False
    chain = upper_central_series(algebra)
    if len(chain) <= c:
        return False
    zc = chain[c]
    g2 = gamma_term(algebra, 2)
    if zc.dim != g2.dim or zc.dim != algebra.dim - algebra.n:
        return False
    for i in range(1, c + 1):
        if chain[i].dim - chain[i - 1].dim != 1:
            return False
    return True


def check_maximal_class_bound(
    algebra: StructureAlgebra, c: int, descriptor: str, max_trees: int | None = DEFAULT_MAX_TREES,
) -> list[BoundCheck]:
    """dim M^(c)(L) <= count(dim L - 1, c+1) + n^(c(n-1)), for algebras of
    maximal class c+1 (unit central steps, dim Z_c = dim gamma_2 = dim - n)."""
    n = algebra.n
    if not _is_maximal_class(algebra, c):
        return [_inapplicable("maximal-class", descriptor, "not-of-maximal-class")]
    rep = multiplier_report(algebra, c, max_trees=max_trees)
    return _bound_rows("maximal-class", descriptor, rep.multiplier_dim, n, algebra.dim - 1,
                       [c + 1], n ** (c * (n - 1)), max_trees=max_trees)


# -- catalog -------------------------------------------------------------------


def catalog_algebras(max_trees: int | None = DEFAULT_MAX_TREES) -> list[tuple[str, StructureAlgebra]]:
    """The built-in desk-scale catalog of nilpotent algebras."""
    entries: list[tuple[str, StructureAlgebra]] = []
    for d in range(1, 5):
        entries.append((f"A({d})", abelian(d, 2)))
    entries.append(("H(2,1)", heisenberg(2, 1)))
    entries.append(("H(2,2)", heisenberg(2, 2)))
    entries.append(("H(3,1)", heisenberg(3, 1)))
    entries.append(("H(2,1)+A(1)", direct_sum(heisenberg(2, 1), abelian(1, 2))))
    entries.append(("H(2,1)+A(2)", direct_sum(heisenberg(2, 1), abelian(2, 2))))
    for k in range(1, 4):
        entries.append((f"F(2,2,{k})", free_nilpotent(2, 2, k, max_trees).algebra))
    entries.append(("F(3,3,2)", free_nilpotent(3, 3, 2, max_trees).algebra))
    return entries


def _ideal_choices(algebra: StructureAlgebra) -> list[tuple[str, Subspace]]:
    candidates = [
        ("0", Subspace.zero(algebra.dim)),
        ("gamma2", gamma_term(algebra, 2)),
        ("L", Subspace.full(algebra.dim)),
        ("center", z_term(algebra, 1)),
    ]
    chosen: list[tuple[str, Subspace]] = []
    for label, sub in candidates:
        if all(sub != seen for _, seen in chosen):
            chosen.append((label, sub))
    return chosen


def run_catalog(
    c_max: int = 2,
    algebras: list[tuple[str, StructureAlgebra]] | None = None,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> list[BoundCheck]:
    """Run every checker over every applicable (algebra, ideal, c) in the
    catalog.  Deterministic: output rows are sorted by (name, descriptor,
    variant)."""
    if c_max < 1 or c_max > 5:
        raise ValueError("c_max must be between 1 and 5")
    if algebras is None:
        algebras = catalog_algebras(max_trees)
    checks: list[BoundCheck] = []
    for label, algebra in algebras:
        if nilpotency_class(algebra) is None:
            checks.append(_inapplicable("catalog", f"L={label}", "not-nilpotent"))
            continue
        for c in range(1, c_max + 1):
            descriptor = f"L={label}, c={c}"
            checks.extend(check_generator_bounds(algebra, c, descriptor, max_trees))
            checks.extend(check_class_bounds(algebra, c, descriptor, max_trees))
            checks.extend(check_hypercenter_bound(algebra, c, descriptor, max_trees))
            checks.extend(check_dim_cap_bound(algebra, c, descriptor, max_trees))
            checks.extend(check_maximal_class_bound(algebra, c, descriptor, max_trees))
            centre = z_term(algebra, 1)
            for mlabel, ideal in _ideal_choices(algebra):
                mdesc = f"L={label}, M={mlabel}, c={c}"
                checks.append(check_quotient_bound(algebra, ideal, c, mdesc, max_trees))
                if centre.contains_subspace(ideal):
                    checks.append(check_central_tensor_bound(algebra, ideal, c, mdesc, max_trees))
    checks.sort(key=lambda ck: (ck.name, ck.descriptor, ck.variant))
    return checks


def violations(checks: list[BoundCheck]) -> list[BoundCheck]:
    """Failed oracle-variant rows; nonempty means a genuine regression.
    Formula-variant and exploratory rows are report-only."""
    return [ck for ck in checks if ck.variant == "oracle" and ck.applicable and not ck.holds]
