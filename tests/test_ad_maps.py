"""The precomputed ad(e_J) maps against the bracket loops they replaced:
the map table itself (scaled to integers by one positive factor), the
worklist closure ``_ad_closure`` that the one-step ``_ad_images`` replaced
(kept here as a reference), the lower central series, the upper central
series and ``is_ideal``."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from nlie.algebra import (
    StructureAlgebra,
    _ad_images,
    _quotient,
    _upper_central_series,
    abelian,
    bracket_product,
    direct_sum,
    heisenberg,
    is_ideal,
    lower_central_series,
    upper_central_series,
)
from nlie.bounds import catalog_algebras
from nlie.free_algebra import free_nilpotent
from nlie.linalg import SpanBuilder, Subspace, _integral, apply_rows, left_kernel
from nlie.multiplier import gamma_ideal_chain, present, random_lifts

_F1 = Fraction(1)


def _fractional_quotients():
    """Quotients by central ideals whose echelon rows have fractional
    entries, so their tables do too."""
    small = direct_sum(heisenberg(2, 1), abelian(1, 2))
    # z - a/2 spans a central ideal, and [e1, e2] = z becomes a/2
    yield "H(2,1)+A(1)/(2z-a)", _quotient(small, Subspace.from_vectors([{2: 2, 3: -1}], 4))[0]
    for n, d, k in ((2, 3, 3), (3, 3, 3)):
        free = free_nilpotent(n, d, k)
        top = [i for i, w in enumerate(free.weights) if w == k]
        line = {top[0]: Fraction(2), top[1]: Fraction(-1), top[-1]: Fraction(3)}
        quotient = _quotient(free.algebra, Subspace.from_vectors([line], free.dim))[0]
        yield f"F({n},{d},{k})/line", quotient


ALGEBRAS = (
    catalog_algebras()
    + [("F(2,3,4)", free_nilpotent(2, 3, 4).algebra), ("F(3,3,3)", free_nilpotent(3, 3, 3).algebra)]
    + list(_fractional_quotients())
)
IDS = [label for label, _ in ALGEBRAS]


def _fresh(alg):
    """A copy with no cached maps or series."""
    return StructureAlgebra(alg.n, alg.dim, alg.basis_names, alg.table)


def _closure_reference(alg, start, tuples):
    """The bracket-loop closure: every accepted vector is bracketed with the
    unit vectors of every tuple through the general ``bracket``."""
    builder = SpanBuilder(alg.dim)
    units = [[{j: _F1} for j in tup] for tup in tuples]
    todo = list(start)
    while todo:
        vec = todo.pop()
        for args in units:
            value = alg.bracket(vec, *args)
            if builder.insert(value):
                todo.append(value)
    return builder.subspace()


def _ad_closure(alg, start, tuples):
    """The worklist closure: every map of ``alg._ad`` for ``tuples`` is
    applied once to each vector the span accepts, so the result is the span
    of every [s, x_J] with s in ``start``, closed under every ad(x_J), for
    any ``start``.  The library needs it only on ideals, where one
    application of the maps (``_ad_images``) is already closed."""
    maps = [alg._ad[tup] for tup in tuples if tup in alg._ad]
    builder = SpanBuilder(alg.dim)
    todo = list(start)
    while todo:
        vec = todo.pop()
        for ad in maps:
            value = apply_rows(vec, ad)
            if builder.insert(value):
                todo.append(value)
    return builder.subspace()


def _lower_reference(alg):
    full = alg.full_subspace()
    chain = [full]
    while True:
        nxt = bracket_product(chain[-1], *([full] * (alg.n - 1)))
        if nxt.space == chain[-1].space:
            return [s.space for s in chain]
        chain.append(nxt)


def _upper_reference(alg, tuples):
    """The upper central series from ``bracket_basis`` rows."""
    dim = alg.dim
    chain = [Subspace.zero(dim)]
    while chain[-1].dim < dim:
        zk = chain[-1]
        rows = [{} for _ in range(dim)]
        for t, tup in enumerate(tuples):
            for i in range(dim):
                for j, c in zk.reduce(alg.bracket_basis((i,) + tup)).items():
                    rows[i][t * dim + j] = c
        nxt = left_kernel(rows, len(tuples) * dim)
        if nxt == zk:
            break
        chain.append(nxt)
    return chain


def _random_vectors(rng, dim, count):
    return [
        {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in rng.sample(range(dim), min(dim, 3))}
        for _ in range(count)
    ]


@pytest.mark.parametrize("alg", [alg for _, alg in ALGEBRAS], ids=IDS)
def test_ad_entries_are_basis_brackets(alg):
    ad = _fresh(alg)._ad
    tuples = list(combinations(range(alg.dim), alg.n - 1))
    assert set(ad) <= set(tuples)
    assert all(rows and all(rows.values()) for rows in ad.values())
    assert all(type(x) is int for rows in ad.values() for row in rows.values() for x in row.values())
    # every map is the bracket values times one positive factor, the same
    # for the whole table
    factors = set()
    for tup in tuples:
        for i in range(alg.dim):
            got, want = ad.get(tup, {}).get(i, {}), alg.bracket_basis((i,) + tup)
            assert set(got) == set(want), (i, tup)
            factors.update(Fraction(got[j]) / want[j] for j in want)
    assert len(factors) <= 1 and all(f > 0 for f in factors)


def test_fractional_quotients_have_fractional_tables():
    for _, alg in _fractional_quotients():
        assert any(c.denominator != 1 for row in alg.table.values() for c in row.values())


@pytest.mark.parametrize("alg", [alg for _, alg in ALGEBRAS], ids=IDS)
def test_integral_maps_are_multiples_of_brackets(alg):
    rng = random.Random(alg.dim)
    for tup, ad in sorted(alg._ad.items()):
        for vec in _random_vectors(rng, alg.dim, 3) + [{i: _F1 for i in ad}]:
            got = apply_rows(_integral(vec)[0], ad)
            assert all(type(c) is int for c in got.values())
            want = alg.bracket(vec, *[{j: _F1} for j in tup])
            assert set(got) == set(want)
            ratios = {Fraction(got[k]) / want[k] for k in want}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)


@pytest.mark.parametrize("alg", [alg for _, alg in ALGEBRAS], ids=IDS)
def test_series_match_bracket_loops(alg):
    fresh = _fresh(alg)
    assert [s.space for s in lower_central_series(fresh)] == _lower_reference(alg)
    all_tuples = list(combinations(range(alg.dim), alg.n - 1))
    assert [s.space for s in upper_central_series(fresh)] == _upper_reference(alg, all_tuples)


@pytest.mark.parametrize("alg", [alg for _, alg in ALGEBRAS], ids=IDS)
def test_closure_and_ideal_test_match_bracket_loops(alg):
    rng = random.Random(alg.dim * 31 + alg.n)
    all_tuples = list(combinations(range(alg.dim), alg.n - 1))
    for start in (_random_vectors(rng, alg.dim, 2), [{i: _F1} for i in range(min(alg.dim, 2))]):
        got = _ad_closure(alg, tuple(start), all_tuples)
        assert got == _closure_reference(alg, start, all_tuples)
        # the closure is an ideal (part (ii) of the lemma), and on an ideal
        # one application of the maps is already closed (part (i))
        once = _ad_images(alg.dim, got.rows.values(), alg._ad.values())
        assert once == _ad_closure(alg, got.rows.values(), all_tuples)
        # a random line usually is not an ideal, and the two tests must
        # agree on it as well
        for space in (got, Subspace.from_vectors(start[:1], alg.dim)):
            sub = alg.subspace(space.basis)
            full = alg.full_subspace()
            product = bracket_product(sub, *([full] * (alg.n - 1)))
            assert is_ideal(alg, sub) == sub.space.contains_subspace(product.space)
    # one map at a time: the closure is a small proper subspace, so it shows
    # a wrong relative scale between the rows of a map
    sources = sorted({i for rows in alg._ad.values() for i in rows})
    for tup in sorted(alg._ad)[:6]:
        start = [{a: _F1, b: Fraction(-2, 3)} for a, b in combinations(sources[:4], 2)]
        got = _ad_closure(alg, tuple(start), [tup])
        assert got == _closure_reference(alg, start, [tup])


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("label,c", [("H(2,2)", 2), ("H(3,1)", 2), ("H(2,1)+A(2)", 2),
                                     ("F(2,2,2)", 1), ("F(3,3,2)", 1)])
def test_closure_matches_bracket_loop_on_lift_kernels(label, c, seed):
    alg = dict(catalog_algebras())[label]
    p = present(alg, c, random_lifts(alg, seed))
    free_alg = p.free.algebra
    generators = list(combinations(range(p.free.d), free_alg.n - 1))
    chain = gamma_ideal_chain(p)
    reference = [p.kernel]
    for _ in range(c):
        reference.append(_closure_reference(free_alg, reference[-1].basis, generators))
    assert chain == reference
    quotient, _ = _quotient(free_alg, chain[-1])
    assert _upper_central_series(quotient, generators) == _upper_reference(
        quotient, generators
    )
