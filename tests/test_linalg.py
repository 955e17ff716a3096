from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st
from sympy import Matrix, Rational

from nlie.linalg import (
    AmbientMismatchError,
    InclusionError,
    SpanBuilder,
    Subspace,
    annihilator,
    left_kernel,
    quotient_dim,
    subspace_intersect,
    subspace_sum,
    unit_vector,
)


def bareiss_rank(rows):
    """Fraction-free Gaussian elimination rank oracle (integer input)."""
    m = [[int(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6, lo=-6, hi=6):
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    return [[draw(st.integers(lo, hi)) for _ in range(nc)] for _ in range(nr)]


def _assert_reduced_echelon(space):
    """Pivots strictly increase; each row starts at its pivot with a 1 and
    is 0 at every other row's pivot."""
    assert list(space.pivots) == sorted(set(space.pivots))
    for row, p in zip(space.basis, space.pivots):
        assert min(row) == p and row[p] == 1
        assert all(c for c in row.values())
        assert not any(q in row for q in space.pivots if q != p)


def test_rref_identity():
    space = Subspace.from_vectors([unit_vector(2, 0), unit_vector(2, 1)], 2)
    assert space == Subspace.full(2)
    assert space.dim == 2


def test_rref_dependent_rows():
    space = Subspace.from_vectors([[1, 2], [2, 4]], 2)
    assert space.dim == 1
    assert space.pivots == (0,)
    assert space.basis == ({0: Fraction(1), 1: Fraction(2)},)


def test_rref_rank_matches_fraction_free_oracle_5x5():
    import random

    rng = random.Random(20240817)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        assert Subspace.from_vectors(rows, 5).dim == bareiss_rank(rows)


@given(int_matrices())
def test_rref_rank_matches_fraction_free_oracle(rows):
    space = Subspace.from_vectors(rows, len(rows[0]))
    assert space.dim == bareiss_rank(rows)
    _assert_reduced_echelon(space)


@given(int_matrices())
def test_rref_idempotent(rows):
    space = Subspace.from_vectors(rows, len(rows[0]))
    again = Subspace.from_vectors(space.basis, space.ambient_dim)
    assert again == space
    assert again.dim == space.dim


@given(int_matrices())
def test_rank_equals_rank_of_transpose(rows):
    transposed = [list(col) for col in zip(*rows)]
    assert (
        Subspace.from_vectors(rows, len(rows[0])).dim
        == Subspace.from_vectors(transposed, len(rows)).dim
    )


@given(int_matrices(), st.randoms(use_true_random=False))
def test_subspace_is_independent_of_row_order_and_scale(rows, rng):
    ncols = len(rows[0])
    space = Subspace.from_vectors(rows, ncols)
    scaled = []
    for row in rows:
        factor = rng.choice([-3, -1, Fraction(1, 2), 2, 7])
        scaled.append([factor * x for x in row])
    rng.shuffle(scaled)
    assert Subspace.from_vectors(scaled, ncols) == space
    probe = [rng.randint(-4, 4) for _ in range(ncols)]
    sparse = {i: x for i, x in enumerate(probe) if x}
    residue = space.reduce(probe)
    assert residue == space.reduce(sparse)
    assert not any(p in residue for p in space.pivots)
    assert space.contains_vector(probe) == (not residue)


def _subspace(rows, ambient):
    return Subspace.from_vectors(rows, ambient)


@given(int_matrices(max_rows=4, max_cols=6), int_matrices(max_rows=4, max_cols=6))
def test_grassmann_identity(rows_u, rows_v):
    ambient = 6
    u = _subspace([row + [0] * (ambient - len(row)) for row in rows_u], ambient)
    v = _subspace([row + [0] * (ambient - len(row)) for row in rows_v], ambient)
    s = subspace_sum(u, v)
    i = subspace_intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim


@given(int_matrices(max_rows=4, max_cols=5), int_matrices(max_rows=4, max_cols=5))
def test_intersection_members_lie_in_both(rows_u, rows_v):
    ambient = 5
    u = _subspace([row + [0] * (ambient - len(row)) for row in rows_u], ambient)
    v = _subspace([row + [0] * (ambient - len(row)) for row in rows_v], ambient)
    inter = subspace_intersect(u, v)
    _assert_reduced_echelon(inter)
    for row in inter.basis:
        assert u.contains_vector(row)
        assert v.contains_vector(row)


def test_sum_with_zero_is_identity():
    u = _subspace([[1, 2, 0], [0, 0, 3]], 3)
    assert subspace_sum(u, Subspace.zero(3)) == u


def test_sum_of_axes():
    e1 = _subspace([unit_vector(3, 0)], 3)
    e2 = _subspace([unit_vector(3, 1)], 3)
    s = subspace_sum(e1, e2)
    assert s.dim == 2
    assert s.basis == ({0: 1}, {1: 1})


def test_intersect_trivials():
    u = _subspace([[1, 1, 0], [0, 1, 1]], 3)
    assert subspace_intersect(u, u) == u
    e1 = _subspace([unit_vector(3, 0)], 3)
    e2 = _subspace([unit_vector(3, 1)], 3)
    assert subspace_intersect(e1, e2).dim == 0


def test_membership():
    u = _subspace([unit_vector(3, 1)], 3)
    assert u.contains_vector((0, 0, 0))
    assert not u.contains_vector(unit_vector(3, 0))
    assert u.contains_vector(u.basis[0])


def test_member_length_mismatch():
    u = _subspace([unit_vector(3, 1)], 3)
    with pytest.raises(AmbientMismatchError):
        u.contains_vector((1, 0))


def test_quotient_dim():
    u = _subspace([unit_vector(3, 0), unit_vector(3, 1)], 3)
    v = _subspace([unit_vector(3, 0)], 3)
    assert quotient_dim(u, u) == 0
    assert quotient_dim(u, Subspace.zero(3)) == u.dim
    assert quotient_dim(u, v) == 1
    with pytest.raises(InclusionError):
        quotient_dim(v, u)


def test_sum_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def test_sparse_columns_out_of_range():
    # column 1 of a 1-column matrix would land in the identity block and
    # make a false kernel vector
    with pytest.raises(AmbientMismatchError):
        left_kernel([{0: 1}, {1: 1}], 1)
    with pytest.raises(AmbientMismatchError):
        left_kernel([{-1: 1}], 2)
    builder = SpanBuilder(3)
    for bad in ({-2: 1}, {3: 1}, {0: 1, 5: 2}):
        with pytest.raises(AmbientMismatchError):
            builder.insert(bad)
    assert builder.dim == 0


def test_left_kernel_annihilates():
    rows = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)), (Fraction(0), Fraction(1))]
    k = left_kernel(rows, 2)
    assert k.dim == 1
    for vec in k.basis:
        combo = [sum(vec.get(i, 0) * rows[i][c] for i in range(3)) for c in range(2)]
        assert not any(combo)


@given(int_matrices(max_rows=5, max_cols=4))
def test_left_kernel_rank_nullity(rows):
    vecs = [tuple(Fraction(x) for x in row) for row in rows]
    ncols = len(rows[0])
    kernel = left_kernel(vecs, ncols)
    assert kernel.dim == len(vecs) - bareiss_rank(rows)
    _assert_reduced_echelon(kernel)
    for coeffs in kernel.basis:
        combo = [sum(coeffs.get(i, 0) * vecs[i][c] for i in range(len(vecs))) for c in range(ncols)]
        assert not any(combo)
    sparse_rows = [{c: x for c, x in enumerate(row) if x} for row in rows]
    assert left_kernel(sparse_rows, ncols) == kernel


@given(int_matrices(max_rows=5, max_cols=5))
def test_annihilator_is_the_left_kernel_of_the_columns(rows):
    """The forms read off the rows vanish on the space, and span the same
    space as the left kernel of the matrix whose columns are its rows."""
    ncols = len(rows[0])
    space = Subspace.from_vectors(rows, ncols)
    forms = annihilator(space)
    assert len(forms) == ncols - space.dim
    for form in forms:
        for row in space.rows.values():
            assert not sum(x * row.get(q, 0) for q, x in form.items())
    columns = [[row.get(q, 0) for row in space.rows.values()] for q in range(ncols)]
    assert Subspace.from_vectors(forms, ncols) == left_kernel(columns, space.dim)


def test_annihilator_entries():
    """Int entries under a pivot entry of 1, Fractions under any other."""
    space = Subspace(4, {0: {0: 1, 2: -3}, 1: {1: 2, 2: 1, 3: 5}})
    assert annihilator(space) == [
        {2: 1, 0: 3, 1: Fraction(-1, 2)},
        {3: 1, 1: Fraction(-5, 2)},
    ]
    assert [type(x) for x in annihilator(space)[0].values()] == [int, int, Fraction]
    assert annihilator(Subspace.zero(2)) == [{0: 1}, {1: 1}]
    assert annihilator(Subspace.full(3)) == []


def test_exactness_no_rounding():
    space = Subspace.from_vectors([[1, 3], [1, 2]], 2)
    assert space.dim == 2
    assert space == Subspace.full(2)
    third = Subspace.from_vectors([[Fraction(1, 3), 1], [0, 1]], 2)
    assert third.basis[0] == {0: Fraction(1)}
    half = Subspace.from_vectors([[Fraction(1, 3), Fraction(1, 2)]], 2)
    assert half.basis == ({0: Fraction(1), 1: Fraction(3, 2)},)


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=5, max_den=50):
    """Rational rows with mixed denominators up to ``max_den``, plus zero
    rows and duplicate or rescaled copies of earlier rows."""
    nc = draw(st.integers(1, max_cols))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, max_den)),
    )
    rows = [draw(st.lists(entry, min_size=nc, max_size=nc))
            for _ in range(draw(st.integers(1, max_rows)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "rescaled"]))
        if kind == "zero":
            extra = [Fraction(0)] * nc
        else:
            source = draw(st.sampled_from(rows))
            factor = 1 if kind == "duplicate" else draw(
                st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, max_den))
            )
            extra = [factor * x for x in source]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


def _fraction(x):
    x = Rational(x)
    return Fraction(int(x.p), int(x.q))


def _sympy_rref(vectors, ncols):
    """The row span of ``vectors`` (sympy rows) as a Subspace of F^ncols,
    spanned by sympy's reduced echelon rows, whose ``basis`` and ``pivots``
    must be exactly those rows."""
    rows = [v for v in vectors if any(v)]
    if not rows:
        return Subspace.zero(ncols)
    reduced, pivots = Matrix(rows).rref()
    basis = tuple(
        {c: _fraction(reduced[i, c]) for c in range(ncols) if reduced[i, c] != 0}
        for i in range(len(pivots))
    )
    space = Subspace.from_vectors(basis, ncols)
    assert space.basis == basis and space.pivots == tuple(pivots)
    return space


def _sympy_rows(rows):
    return [[Rational(x.numerator, x.denominator) for x in row] for row in rows]


@given(rational_matrices(max_rows=6, max_cols=6))
def test_from_vectors_matches_sympy_rref(rows):
    ncols = len(rows[0])
    space = Subspace.from_vectors(rows, ncols)
    assert space == _sympy_rref(_sympy_rows(rows), ncols)
    _assert_reduced_echelon(space)


@given(rational_matrices(max_rows=5, max_cols=4))
def test_left_kernel_matches_sympy_nullspace(rows):
    ncols = len(rows[0])
    null = Matrix(_sympy_rows(rows)).T.nullspace()
    want = _sympy_rref([list(v) for v in null], len(rows))
    assert left_kernel(rows, ncols) == want


@given(rational_matrices(max_rows=4, max_cols=5), rational_matrices(max_rows=4, max_cols=5))
def test_intersection_matches_sympy_nullspace(rows_u, rows_v):
    ambient = 5
    rows_u = [row + [Fraction(0)] * (ambient - len(row)) for row in rows_u]
    rows_v = [row + [Fraction(0)] * (ambient - len(row)) for row in rows_v]
    u = Subspace.from_vectors(rows_u, ambient)
    v = Subspace.from_vectors(rows_v, ambient)
    # x.A = y.B exactly when (x | y) is in the left kernel of [A; -B]
    a, b = Matrix(_sympy_rows(rows_u)), Matrix(_sympy_rows(rows_v))
    stacked = Matrix.vstack(a, -b)
    common = [list(x[: a.rows, 0].T * a) for x in stacked.T.nullspace()]
    assert subspace_intersect(u, v) == _sympy_rref(common, ambient)


def test_hilbert_matrix_rref_is_identity():
    size = 8
    hilbert = [[Fraction(1, i + j + 1) for j in range(size)] for i in range(size)]
    assert Subspace.from_vectors(hilbert, size) == Subspace.full(size)
    assert left_kernel(hilbert, size) == Subspace.zero(size)


def _assert_semi_echelon(rows):
    """Every builder row is an int dict with content 1, keyed by its first
    column and positive there, so no two rows share a first column."""
    for p, row in rows.items():
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
    assert len({min(row) for row in rows.values()}) == len(rows)


@given(rational_matrices(max_rows=7, max_cols=6))
def test_builder_rows_stay_primitive_after_every_insert(rows):
    ncols = len(rows[0])
    builder = SpanBuilder(ncols)
    for i, row in enumerate(rows):
        before = {p: dict(r) for p, r in builder.rows.items()}
        grew = builder.insert(row)
        _assert_semi_echelon(builder.rows)
        # an insert adds at most one row and changes no stored one
        assert {p: builder.rows[p] for p in before} == before
        assert builder.dim == len(before) + grew
        assert grew == (builder.dim == Subspace.from_vectors(rows[:i], ncols).dim + 1)
    semi = [dict(r) for r in builder.rows.values()]
    space = builder.subspace()
    # the unique form: primitive, positive at its own pivot and 0 at every
    # other pivot, and the basis is each row divided by its pivot entry
    _assert_semi_echelon(space.rows)
    _assert_reduced_echelon(space)
    for vec, p in zip(space.basis, space.pivots):
        row = space.rows[p]
        assert vec == {col: Fraction(x, row[p]) for col, x in row.items()}
    assert space == Subspace.from_vectors(rows[::-1], ncols)
    assert space == Subspace.from_vectors(semi[::-1], ncols)
    assert space == Subspace.from_vectors(rows, ncols)


def _eliminate(v, rows):
    """The Fraction route that ``Subspace.reduce`` replaced, kept as its
    reference: reduce the sparse Fraction vector ``v`` in place against
    reduced echelon ``rows`` (pivot -> row) by one pass of
    v -= v[p] * rows[p] over the pivots present in ``v``, and return it."""
    for p in [col for col in v if col in rows]:
        c = v[p]
        for col, val in rows[p].items():
            nv = v.get(col, 0) - c * val
            if nv:
                v[col] = nv
            else:
                del v[col]
    return v


_RATIONAL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@given(rational_matrices(max_rows=5, max_cols=6), st.data())
def test_reduce_and_membership_match_fraction_route(rows, data):
    ncols = len(rows[0])
    space = Subspace.from_vectors(rows, ncols)
    # the integer rows are not the echelon rows, so reduce has to rescale
    assume(any(row[p] != 1 for p, row in space.rows.items()))
    reference = _sympy_rref(_sympy_rows(rows), ncols)
    echelon = dict(zip(reference.pivots, reference.basis))
    probe = data.draw(st.lists(_RATIONAL, min_size=ncols, max_size=ncols))
    coeffs = data.draw(st.lists(_RATIONAL, min_size=len(rows), max_size=len(rows)))
    member = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
    assert space.contains_vector(member)
    for vec in (probe, member, [a + b for a, b in zip(probe, member)]):
        want = _eliminate({i: x for i, x in enumerate(vec) if x}, echelon)
        got = space.reduce(vec)
        # the same values in the same key order, as Fractions
        assert list(got.items()) == list(want.items())
        assert all(type(x) is Fraction for x in got.values())
        assert space.reduce({i: x for i, x in enumerate(vec) if x}) == want
        assert space.contains_vector(vec) == (not want)


@given(rational_matrices(max_rows=5, max_cols=5), st.randoms(use_true_random=False))
def test_spanning_sets_of_one_span_give_equal_subspaces_and_hashes(rows, rng):
    ncols = len(rows[0])
    space = Subspace.from_vectors(rows, ncols)
    # each row plus multiples of the earlier ones, rescaled: an invertible
    # change of spanning set, then shuffled, with one redundant sum added
    other = []
    for row in rows:
        mixed = list(row)
        for earlier in rows[: len(other)]:
            c = rng.randint(-2, 2)
            mixed = [x + c * y for x, y in zip(mixed, earlier)]
        factor = rng.choice([-3, -1, Fraction(2, 5), 7])
        other.append([factor * x for x in mixed])
    other.append([x + y for x, y in zip(other[0], other[-1])])
    rng.shuffle(other)
    again = Subspace.from_vectors(other, ncols)
    assert again == space and hash(again) == hash(space)
    assert len({space, again}) == 1
    assert again.basis == space.basis and again.pivots == space.pivots
