"""c-nilpotent multipliers of nilpotent n-Lie algebras.

For a nilpotent algebra L of class m on d generators, the engine works in
the free nilpotent cover E of class m + c on d generators (truncation is
harmless: both the numerator and the denominator of the multiplier contain
every bracket of weight above m + c).  With phi : E -> L the evaluation map
and Rbar its kernel,

    multiplier dim  =  dim( gamma_{c+1}(E) /\\ Rbar )  -  dim gamma_{c+1}(Rbar, E, ..., E)

and the c-th star centre of L is phi(Z_c), with Z_c the preimage in E of
the c-th centre of E / U, U = gamma_{c+1}(Rbar, E, ..., E).  Z_c is the
annihilator of a space of forms on E, computed modulo U on the dual, and
only the images of its basis under phi are spanned; neither Z_c nor a
quotient algebra is built.  L is c-capable exactly when phi(Z_c) is zero.
E enters only through its integer generator maps ad(x_J) (which generate
it) and its table entries below weight m + 1; its full structure table is
never built here (see ``FreeNilpotentAlgebra``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import (
    NotNilpotentError,
    StructureAlgebra,
    _ad_images,
    _central_annihilators,
    gamma_term,
    nilpotency_class,
)
from .free_algebra import (
    DEFAULT_MAX_TREES,
    FreeNilpotentAlgebra,
    free_nilpotent,
    graded_dimension,
)
from .linalg import (
    SparseVector,
    Subspace,
    Vector,
    annihilator,
    apply_rows,
    left_kernel,
    unit_vector,
)
from .trees import Tree

_F1 = Fraction(1)

_TRUNCATION_CHECK_LIMIT = 12


@dataclass(frozen=True)
class Presentation:
    """Truncated free presentation of a nilpotent algebra."""

    algebra: StructureAlgebra
    c: int
    nil_class: int
    free: FreeNilpotentAlgebra
    lifts: tuple[Vector, ...]
    phi: tuple[SparseVector, ...]
    kernel: Subspace


def present(
    algebra: StructureAlgebra,
    c: int,
    lifts: tuple[Vector, ...] | None = None,
    extra_class: int = 0,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> Presentation:
    """Build the class-(m + c) free presentation of a nilpotent algebra.

    Generator lifts default to the unit vectors at the echelon complement of
    the derived subalgebra; any other complement basis may be supplied.

    Only the first ``low`` basis vectors, of weight <= m, are evaluated; phi
    is {} above.  That phi is checked on every table entry with arguments
    below ``low`` (``free.brackets_below(low)``); any other entry has an
    image of weight >= m + 2, where both sides are 0.  So phi is a
    homomorphism that agrees with the lifts on the weight-1 basis, which
    generates E: it is the evaluation map.
    Rbar is the left kernel of phi[:low] plus the unit rows from ``low`` on,
    in the unique row form.
    """
    if c < 1:
        raise ValueError("c must be at least 1")
    m = nilpotency_class(algebra)
    if m is None:
        raise NotNilpotentError("free presentation requires a nilpotent algebra")
    gamma2 = gamma_term(algebra, 2)
    comp = gamma2.complement_coords()
    d = len(comp)
    if lifts is None:
        lifts = tuple(unit_vector(algebra.dim, j) for j in comp)
    else:
        lifts = tuple(tuple(Fraction(x) for x in row) for row in lifts)
        if len(lifts) != d or any(len(row) != algebra.dim for row in lifts):
            raise ValueError(f"expected {d} lift vectors of length {algebra.dim}")
        residues = [gamma2.reduce(row) for row in lifts]
        if Subspace.from_vectors(residues, algebra.dim).dim != d:
            raise ValueError("lift vectors do not project onto a basis modulo the derived subalgebra")
    free = free_nilpotent(algebra.n, d, max(m + c + extra_class, 1), max_trees)
    low = sum(w <= m for w in free.weights)
    # the basis trees of weight <= m only: E's nested basis is never built
    trees = [t for layer in free.components[:m] for t in layer.basis_trees]
    values = _evaluate_basis(algebra, trees, lifts)
    below = left_kernel(values, algebra.dim).rows
    if low - len(below) != algebra.dim:
        raise AssertionError("presentation map is not surjective")
    phi = values + ({},) * (free.dim - low)
    _check_homomorphism(algebra, free, phi, low)
    kernel = Subspace(free.dim, {**below, **{i: {i: 1} for i in range(low, free.dim)}})
    return Presentation(algebra, c, m, free, lifts, phi, kernel)


def _evaluate_basis(
    algebra: StructureAlgebra, basis_trees: tuple[Tree, ...], lifts: tuple[Vector, ...]
) -> tuple[SparseVector, ...]:
    values = {g: {i: c for i, c in enumerate(lift) if c} for g, lift in enumerate(lifts, 1)}
    return tuple(_evaluated(algebra, values, tree) for tree in basis_trees)


def _evaluated(algebra: StructureAlgebra, values: dict, tree: Tree) -> SparseVector:
    """The value of ``tree`` in ``algebra``, memoized in ``values``, which
    starts with the value of each generator.  A plain recursive function: a
    nested one would refer to itself and make a cycle."""
    got = values.get(tree)
    if got is None:
        got = values[tree] = algebra.bracket(*[_evaluated(algebra, values, kid) for kid in tree])
    return got


def _check_homomorphism(
    algebra: StructureAlgebra, free: FreeNilpotentAlgebra, phi: tuple[SparseVector, ...], low: int
) -> None:
    """Check that evaluation intertwines the brackets on every basis tuple
    below ``low`` with a nonzero bracket in E (every such table entry; see
    :func:`present` for the rest).  Tuples whose E-bracket is zero are not
    checked: there phi of the bracket is zero, and the bracket of the
    images in L is not evaluated."""
    for args, image in free.brackets_below(low).items():
        lhs = apply_rows(image, phi)
        rhs = algebra.bracket(*[phi[i] for i in args])
        if lhs != rhs:
            raise AssertionError(f"bracket not respected on basis tuple {args}")


def gamma_ideal_chain(p: Presentation) -> list[Subspace]:
    """The chain U_1 = Rbar, U_{j+1} = [U_j, E, ..., E], up to U_{c+1}.

    Lemma.  With m the class of L, U_j = gamma_{m+j}(E) + W_j, W_j spanned
    by rows below weight m+j.  For j = 1, phi(gamma_{m+1}(E)) lies in
    gamma_{m+1}(L) = 0, and W_1 is Rbar's rows with a pivot below weight
    m+1.  Every U_j is an ideal (Rbar is a kernel) and E is generated by its
    weight-1 basis X, so by the lemma in :func:`nlie.algebra._ad_images`
    applied to the basis of unit vectors of gamma_{m+j}(E) and rows of W_j,

        U_{j+1} = gamma_{m+j+1}(E) + span{[w, x_J] : w a row of W_j},

    as [gamma_k(E), E, ..., E] = gamma_{k+1}(E).  ad(x_J) raises the weight
    by one, so the images lie below weight m+j+1, and the unit rows from
    there on complete U_{j+1} in the unique row form.  Nothing here uses
    the grading of L or homogeneous lifts.
    """
    maps = p.free.generator_maps.values()
    chain = [p.kernel]
    low = sum(w <= p.nil_class for w in p.free.weights)
    rows = [row for q, row in p.kernel.rows.items() if q < low]
    for j in range(1, p.c + 1):
        below = _ad_images(p.free.dim, rows, maps).rows
        rows = below.values()
        units = {i: {i: 1} for i, w in enumerate(p.free.weights) if w > p.nil_class + j}
        chain.append(Subspace(p.free.dim, {**below, **units}))
    return chain


@dataclass(frozen=True)
class MultiplierReport:
    """All quantities of one multiplier computation."""

    c: int
    algebra_dim: int
    nil_class: int
    free_dim: int
    kernel_dim: int
    gamma_dim: int
    gamma_cap_kernel_dim: int
    chain_dim: int
    multiplier_dim: int
    zstar_dim: int
    capable: bool

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "algebra_dim": self.algebra_dim,
            "nilpotency_class": self.nil_class,
            "dim_E": self.free_dim,
            "dim_Rbar": self.kernel_dim,
            "dim_gamma_c1_E": self.gamma_dim,
            "dim_gamma_c1_E_cap_Rbar": self.gamma_cap_kernel_dim,
            "dim_U": self.chain_dim,
            "multiplier_dim": self.multiplier_dim,
            "zcstar_dim": self.zstar_dim,
            "capable_c": self.capable,
        }


def _gamma_cap_kernel(p: Presentation) -> Subspace:
    """gamma_{c+1}(E) /\\ Rbar.  E is generated in weight 1 and its basis is
    ordered by weight, so gamma_{c+1}(E) is the span of the coordinates from
    the first one of weight c+1 on.  Rbar's rows have distinct pivots, so a
    combination of them vanishes before that coordinate only if each row in
    it does: the rows with a pivot there are a basis of the intersection."""
    first = sum(w <= p.c for w in p.free.weights)
    return Subspace(p.free.dim, {q: r for q, r in p.kernel.rows.items() if q >= first})


_ANALYSIS_CACHE: dict[tuple, tuple[MultiplierReport, Subspace]] = {}


def _analyze(
    algebra: StructureAlgebra,
    c: int,
    lifts: tuple[Vector, ...] | None = None,
    extra_class: int = 0,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> tuple[MultiplierReport, Subspace]:
    cache_key = (algebra.canonical_key(), c)
    if lifts is None and extra_class == 0:
        cached = _ANALYSIS_CACHE.get(cache_key)
        if cached is not None:
            return cached
    p = present(algebra, c, lifts, extra_class, max_trees)
    bottom = gamma_ideal_chain(p)[-1]
    numerator = _gamma_cap_kernel(p)
    if not numerator.contains_subspace(bottom):
        raise AssertionError("denominator escaped the numerator subspace")
    # bottom is closed under every ad(x_J), hence an ideal, and it lies in
    # Rbar = ker phi, so phi maps the preimage of Z_c(E / bottom), the
    # annihilator of the last form space, onto the star centre
    forms = _central_annihilators(p.free.dim, p.free.generator_maps.values(), c, bottom)[-1]
    star = Subspace.from_vectors([apply_rows(z, p.phi) for z in annihilator(forms)], algebra.dim)
    report = MultiplierReport(
        c=c,
        algebra_dim=algebra.dim,
        nil_class=p.nil_class,
        free_dim=p.free.dim,
        kernel_dim=p.kernel.dim,
        gamma_dim=sum(w > c for w in p.free.weights),
        gamma_cap_kernel_dim=numerator.dim,
        chain_dim=bottom.dim,
        multiplier_dim=numerator.dim - bottom.dim,
        zstar_dim=star.dim,
        capable=star.dim == 0,
    )
    if lifts is None and extra_class == 0:
        # re-check the class-(m+c) truncation against a wider cover while
        # that is cheap
        if p.free.dim <= _TRUNCATION_CHECK_LIMIT and not _agrees_with_wider_cover(
            algebra, c, report, max_trees
        ):
            raise AssertionError("truncated cover disagrees with a wider cover")
        _ANALYSIS_CACHE[cache_key] = (report, star)
    return report, star


def _agrees_with_wider_cover(
    algebra: StructureAlgebra,
    c: int,
    report: MultiplierReport,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> bool:
    """Whether the cover one class wider gives the same multiplier and star
    centre dimensions as ``report``."""
    wider, _ = _analyze(algebra, c, extra_class=1, max_trees=max_trees)
    return (wider.multiplier_dim, wider.zstar_dim) == (
        report.multiplier_dim,
        report.zstar_dim,
    )


def multiplier_report(
    algebra: StructureAlgebra,
    c: int,
    lifts: tuple[Vector, ...] | None = None,
    max_trees: int | None = DEFAULT_MAX_TREES,
) -> MultiplierReport:
    """Full multiplier computation for a nilpotent algebra."""
    return _analyze(algebra, c, lifts, 0, max_trees)[0]


def multiplier_dim(algebra: StructureAlgebra, c: int) -> int:
    return multiplier_report(algebra, c).multiplier_dim


def z_star(algebra: StructureAlgebra, c: int) -> tuple[Subspace, bool]:
    """The c-th star centre of L (image of the c-th centre of the free
    c-central extension) and the c-capability flag (capable iff zero)."""
    _, star = _analyze(algebra, c)
    return star, star.dim == 0


def is_capable(algebra: StructureAlgebra, c: int) -> bool:
    return z_star(algebra, c)[1]


def heisenberg_multiplier_dim(n: int, m: int, c: int) -> int:
    """Closed-form multiplier dimension of the Heisenberg algebra H(n, m).

    For c = 1 this is n when m = 1 and C(mn, n) - 1 otherwise; for c >= 2 it
    is the weight-(c+1) plus weight-(c+2) layer dimensions of the free
    algebra on n generators when m = 1, and the weight-(c+1) layer dimension
    on mn generators when m >= 2.  Layer dimensions come from the rank
    oracle.
    """
    if n < 2 or m < 1 or c < 1:
        raise ValueError("need n >= 2, m >= 1, c >= 1")
    if c == 1:
        return n if m == 1 else comb(m * n, n) - 1
    if m == 1:
        return graded_dimension(n, n, c + 1) + graded_dimension(n, n, c + 2)
    return graded_dimension(n, m * n, c + 1)


def random_lifts(algebra: StructureAlgebra, seed: int) -> tuple[Vector, ...]:
    """A randomized (but seeded, hence reproducible) complement basis for
    the derived subalgebra, for presentation-invariance checks."""
    gamma2 = gamma_term(algebra, 2)
    comp = gamma2.complement_coords()
    rng = random.Random(seed)
    d = len(comp)
    rows = []
    for pos, j in enumerate(comp):
        row = [Fraction(0)] * algebra.dim
        row[j] = _F1
        for other in comp[pos + 1 :]:
            row[other] = Fraction(rng.randint(-3, 3))
        for vec in gamma2.basis:
            f = Fraction(rng.randint(-3, 3))
            if f:
                for col, val in vec.items():
                    row[col] += f * val
        rows.append(tuple(row))
    assert len(rows) == d
    return tuple(rows)


def clear_cache() -> None:
    _ANALYSIS_CACHE.clear()
