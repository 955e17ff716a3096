import gc
import re
from itertools import combinations

import pytest

from nlie.algebra import (
    AlgebraSubspace,
    NotNilpotentError,
    StructureAlgebra,
    _ad_images,
    _quotient,
    _upper_central_series,
    abelian,
    bracket_product,
    direct_sum,
    gamma_term,
    heisenberg,
    is_ideal,
    quotient_algebra,
    upper_central_series,
    z_term,
)
from nlie.bounds import catalog_algebras
from nlie import free_algebra, multiplier
from nlie.free_algebra import free_nilpotent, graded_dimension
from nlie.linalg import (
    Subspace,
    apply_rows,
    left_kernel,
    subspace_intersect,
    subspace_sum,
    unit_vector,
)
from nlie.multiplier import (
    _check_homomorphism,
    _evaluate_basis,
    _gamma_cap_kernel,
    gamma_ideal_chain,
    heisenberg_multiplier_dim,
    is_capable,
    multiplier_report,
    present,
    random_lifts,
    truncation_consistent,
    z_star,
)
from test_ad_maps import _upper_reference
from fractions import Fraction


def test_present_abelian():
    p = present(abelian(3, 2), 1)
    assert p.free.dim == 3 + 3  # generators + weight-2 layer
    # kernel is exactly the bracket layers
    assert p.kernel == p.free.layer_span(2)


def test_present_heisenberg():
    p = present(heisenberg(2, 1), 1)
    assert p.free.dim == 5
    assert p.kernel.dim == 2
    assert p.kernel == p.free.layer_span(3)


def test_present_free_quotient_is_isomorphism_below_kernel():
    built = free_nilpotent(2, 2, 2)
    p = present(built.algebra, 1)
    # the cover restricted to weights <= 2 reproduces the algebra itself
    assert p.kernel == p.free.layer_span(3)
    for i in range(built.dim):
        assert p.phi[i] == {i: Fraction(1)}


def test_present_rejects_bad_lifts():
    h = heisenberg(2, 1)
    units = tuple(unit_vector(3, j) for j in (0, 1))
    for lifts in (units[:1], units + (unit_vector(3, 2),), (units[0], (1, 0))):
        with pytest.raises(ValueError, match="expected 2 lift vectors of length 3"):
            present(h, 1, lifts)
    # e1 and e1 + z are the same class modulo gamma_2 = <z>
    with pytest.raises(ValueError, match="do not project onto a basis"):
        present(h, 1, (units[0], (1, 0, 1)))


def test_non_surjective_presentation_is_a_failed_self_check(monkeypatch, capsys):
    """A value that drops out of phi leaves the map short of L: the library
    raises AssertionError before checking the bracket, and the CLI exits 4."""
    from nlie.cli import main

    original = multiplier._evaluate_basis

    def dropped(*args):
        values = list(original(*args))
        values[0] = {}
        return tuple(values)

    monkeypatch.setattr(multiplier, "_evaluate_basis", dropped)
    monkeypatch.setattr(multiplier, "_check_homomorphism", lambda *a: pytest.fail("checked"))
    with pytest.raises(AssertionError, match="presentation map is not surjective"):
        present(heisenberg(2, 1), 1)
    multiplier.clear_cache()
    try:
        assert main(["multiplier", "heisenberg(2,1)", "-c", "1"]) == 4
    finally:
        multiplier.clear_cache()
    assert capsys.readouterr().err == (
        "error: internal self-check failed: presentation map is not surjective\n"
    )


def test_present_rejects_non_nilpotent():
    solvable = StructureAlgebra(2, 2, table={(0, 1): {0: Fraction(1)}})
    with pytest.raises(NotNilpotentError):
        present(solvable, 1)


def test_gamma_chain_examples():
    # minimal (class m+c) cover of an abelian algebra: the chain bottoms out
    p = present(abelian(2, 2), 1)
    chain = gamma_ideal_chain(p)
    assert chain[0] == p.free.layer_span(2)
    assert chain[1].dim == 0

    # one class higher, the chain drop is the whole weight-3 layer
    p = present(abelian(2, 2), 1, extra_class=1)
    chain = gamma_ideal_chain(p)
    assert chain[0] == p.free.layer_span(2)
    assert chain[1] == p.free.layer_span(3)
    assert chain[1].dim == graded_dimension(2, 2, 3)

    p = present(heisenberg(2, 1), 1)
    chain = gamma_ideal_chain(p)
    assert chain[1].dim == 0


def test_chain_contained_in_gamma():
    for alg, c in ((heisenberg(2, 1), 1), (heisenberg(2, 1), 2), (abelian(3, 2), 2)):
        p = present(alg, c)
        chain = gamma_ideal_chain(p)
        top = gamma_term(p.free.algebra, c + 1)
        assert top.space.contains_subspace(chain[-1])
        assert p.kernel.contains_subspace(chain[-1])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2])
def test_abelian_multiplier_equals_oracle(d, c):
    assert multiplier_report(abelian(d, 2), c).multiplier_dim == graded_dimension(2, d, c + 1)


def test_abelian_multiplier_ternary():
    assert multiplier_report(abelian(3, 3), 1).multiplier_dim == graded_dimension(3, 3, 2)
    assert multiplier_report(abelian(3, 3), 2).multiplier_dim == graded_dimension(3, 3, 3)


def test_schur_multiplier_of_heisenbergs():
    assert multiplier_report(heisenberg(2, 1), 1).multiplier_dim == 2
    assert multiplier_report(heisenberg(2, 2), 1).multiplier_dim == 5
    assert multiplier_report(heisenberg(3, 1), 1).multiplier_dim == 3


def test_closed_form_matches_engine():
    assert heisenberg_multiplier_dim(2, 1, 1) == 2
    assert heisenberg_multiplier_dim(2, 2, 1) == 5
    assert heisenberg_multiplier_dim(2, 1, 2) == 5
    from math import comb

    assert heisenberg_multiplier_dim(3, 2, 1) == comb(6, 3) - 1
    for n, m, c in ((2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2)):
        engine = multiplier_report(heisenberg(n, m), c).multiplier_dim
        assert engine == heisenberg_multiplier_dim(n, m, c)


@pytest.mark.parametrize(
    "n,d,k,c",
    [
        (2, 2, 2, 1),
        (2, 2, 2, 2),
        (2, 2, 3, 1),
        (2, 2, 3, 2),
        (2, 3, 2, 1),
        (3, 3, 2, 1),
        (3, 3, 2, 2),
    ],
)
def test_free_quotient_multiplier_is_layer_slice(n, d, k, c):
    """For L the free nilpotent quotient of class k, the defining kernel is
    exactly the weight > k tail, so the c-multiplier is the direct sum of
    the weight k+1 .. k+c layers of the free algebra."""
    built = free_nilpotent(n, d, k)
    got = multiplier_report(built.algebra, c).multiplier_dim
    want = sum(graded_dimension(n, d, w) for w in range(k + 1, k + c + 1))
    assert got == want


def test_direct_sum_multiplier_matches_kunneth_style_oracle():
    """For c = 1 and binary algebras, the multiplier of a direct sum is
    M(A) + M(B) + dim A^ab * dim B^ab; an independent classical value."""
    cases = [
        (heisenberg(2, 1), abelian(1, 2), 2 + 0 + 2 * 1),
        (heisenberg(2, 1), abelian(2, 2), 2 + 1 + 2 * 2),
        (abelian(2, 2), abelian(2, 2), 1 + 1 + 2 * 2),
    ]
    for left, right, want in cases:
        got = multiplier_report(direct_sum(left, right), 1).multiplier_dim
        assert got == want


def test_quaternary_heisenberg_multiplier():
    assert multiplier_report(heisenberg(4, 1), 1).multiplier_dim == 4
    assert heisenberg_multiplier_dim(4, 1, 1) == 4


def test_heisenberg_c3_multiplier_closed_form():
    got = multiplier_report(heisenberg(2, 2), 3).multiplier_dim
    assert got == heisenberg_multiplier_dim(2, 2, 3) == 60


@pytest.mark.parametrize("n,m,c,want", [(3, 2, 1, 19), (2, 2, 4, 204), (3, 2, 2, 210), (2, 2, 5, 670)])
def test_large_heisenberg_multipliers_closed_form(n, m, c, want):
    got = multiplier_report(heisenberg(n, m), c).multiplier_dim
    assert got == heisenberg_multiplier_dim(n, m, c) == want


def _cross_check_generator_routes(alg, c, lifts=None):
    """Each generator-tuple shortcut of the engine against the exhaustive
    route it replaces."""
    p = present(alg, c, lifts)
    free_alg = p.free.algebra
    full = free_alg.full_subspace()
    chain = gamma_ideal_chain(p)
    exhaustive = [AlgebraSubspace(free_alg, p.kernel)]
    for _ in range(c):
        exhaustive.append(bracket_product(exhaustive[-1], *([full] * (free_alg.n - 1))))
    assert chain == [u.space for u in exhaustive]
    assert p.free.layer_span(c + 1) == gamma_term(free_alg, c + 1).space
    assert is_ideal(free_alg, AlgebraSubspace(free_alg, chain[-1]))
    quotient, _ = quotient_algebra(free_alg, AlgebraSubspace(free_alg, chain[-1]))
    tuples = list(combinations(range(p.free.d), free_alg.n - 1))
    assert _upper_central_series(quotient, tuples) == [
        z.space for z in upper_central_series(quotient)
    ]


CATALOG = catalog_algebras()


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("alg", [alg for _, alg in CATALOG], ids=[label for label, _ in CATALOG])
def test_generator_routes_match_exhaustive_on_catalog(alg, c):
    _cross_check_generator_routes(alg, c)


@pytest.mark.parametrize("seed", [1, 2, 5])
@pytest.mark.parametrize("n,m,c", [(2, 2, 2), (2, 3, 1)])
def test_generator_routes_match_exhaustive_under_lifts(n, m, c, seed):
    alg = heisenberg(n, m)
    _cross_check_generator_routes(alg, c, random_lifts(alg, seed))


@pytest.mark.parametrize("lifted", [False, True])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("alg", [alg for _, alg in CATALOG], ids=[label for label, _ in CATALOG])
def test_numerator_filter_matches_intersection(alg, c, lifted):
    """gamma_{c+1}(E) /\\ Rbar read off Rbar's rows against the Zassenhaus
    intersection it replaced, with default and with seeded random lifts."""
    p = present(alg, c, random_lifts(alg, 7 * c) if lifted else None)
    want = subspace_intersect(p.free.layer_span(c + 1), p.kernel)
    assert _gamma_cap_kernel(p) == want


def test_homomorphism_check_covers_every_table_entry(monkeypatch):
    """Every table entry with all arguments below weight m+1 is checked, not
    only the first few."""
    p = present(heisenberg(2, 2), 2)
    table = p.free.algebra.table
    assert len(table) == 125
    low = sum(w <= p.nil_class for w in p.free.weights)
    checked = [args for args in table if args[-1] < low]
    assert len(checked) == 45
    evaluated = []
    bracket = p.algebra.bracket
    monkeypatch.setattr(p.algebra, "bracket", lambda *v: evaluated.append(v) or bracket(*v))
    _check_homomorphism(p.algebra, p.free, p.phi, low)
    assert evaluated == [tuple(p.phi[i] for i in args) for args in checked]
    # adding the central z to the image of the last weight-2 basis vector
    # changes no bracket of images, so only the entry whose bracket is that
    # vector can fail, and it comes after 17 others
    last = low - 1
    (args,) = [a for a in checked if last in table[a]]
    assert checked.index(args) == 17
    phi = list(p.phi)
    phi[last] = {**phi[last], 4: phi[last].get(4, 0) + Fraction(1)}
    with pytest.raises(AssertionError, match=re.escape(f"basis tuple {args}")):
        _check_homomorphism(p.algebra, p.free, tuple(phi), low)


def _generator_tuples(p):
    """The (n-1)-subsets of the weight-1 basis indices 0..d-1 of E, which
    generate E."""
    return list(combinations(range(p.free.d), p.free.n - 1))


def _full_row_chain(p):
    """The ideal chain that applies the generator maps to every row of U_j,
    which the chain on the rows below gamma_{m+j}(E) replaced."""
    free_alg = p.free.algebra
    maps = [free_alg._ad[tup] for tup in _generator_tuples(p) if tup in free_alg._ad]
    chain = [p.kernel]
    for _ in range(p.c):
        chain.append(_ad_images(free_alg.dim, chain[-1].rows.values(), maps))
    return chain


def _lifted(space, comp, base):
    """A subspace of E/U, given on the coordinates ``comp`` of E, lifted
    into E and summed with U = ``base``."""
    rows = [{comp[j]: x for j, x in row.items()} for row in space.rows.values()]
    return subspace_sum(base, Subspace.from_vectors(rows, base.ambient_dim))


def _weighted_upper_reference(alg, tuples, top, weights, base):
    """The upper central series modulo ``base`` that the dual route
    replaced: the k-th step takes the left kernel of the classes mod Z_k of
    the maps D ad(x_J), one block of dim columns per tuple, only for the
    coordinates below weight t+1-k (t the top weight); the rest are unit
    rows, since Z_k contains gamma_{t+1-k}(E)."""
    dim = alg.dim
    chain = [base]
    while len(chain) <= top and chain[-1].dim < dim:
        zk = chain[-1]
        low = sum(w <= weights[-1] - len(chain) for w in weights)
        rows = [{} for _ in range(low)]
        for t, tup in enumerate(tuples):
            for i, value in alg._ad.get(tup, {}).items():
                if i < low:
                    for j, x in zk.reduce(value).items():
                        rows[i][t * dim + j] = x
        units = {i: {i: 1} for i in range(low, dim)}
        nxt = Subspace(dim, {**left_kernel(rows, len(tuples) * dim).rows, **units})
        if nxt == zk:
            break
        chain.append(nxt)
    return chain


def _cross_check_below_class(alg, c, lifts=None):
    """Each phase confined below the class against the route it replaced:
    Rbar from every basis vector's value, the full-row chain, and the star
    centre from the quotient algebra E/U, whose whole upper central series
    (by the left-kernel reference of test_ad_maps), lifted into E and summed
    with U, is read at term c; and the dual series on E modulo U against
    the weighted left kernel it replaced."""
    p = present(alg, c, lifts)
    free = p.free
    phi = _evaluate_basis(alg, free.basis_trees, p.lifts)
    _check_homomorphism(alg, free, phi, free.dim)
    low = sum(w <= p.nil_class for w in free.weights)
    assert p.phi == phi[:low] + ({},) * (free.dim - low)
    assert p.kernel == left_kernel(phi, alg.dim)
    chain = gamma_ideal_chain(p)
    assert chain == _full_row_chain(p)
    bottom = chain[-1]
    quotient, comp = _quotient(free.algebra, bottom)
    tuples = _generator_tuples(p)
    lifted = [_lifted(z, comp, bottom) for z in _upper_reference(quotient, tuples)]
    full = _upper_central_series(free.algebra, tuples, base=bottom)
    assert full == lifted
    cut = _upper_central_series(free.algebra, tuples, c, base=bottom)
    assert cut == full[: c + 1]
    assert cut == _weighted_upper_reference(free.algebra, tuples, c, free.weights, bottom)
    zc = lifted[min(c, len(lifted) - 1)]
    assert cut[-1] == zc
    star = Subspace.from_vectors([apply_rows(row, phi) for row in zc.rows.values()], alg.dim)
    assert multiplier._analyze(alg, c, lifts)[1] == star


@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("alg", [alg for _, alg in CATALOG], ids=[label for label, _ in CATALOG])
def test_below_class_routes_match_replaced_on_catalog(alg, c, seed):
    _cross_check_below_class(alg, c, None if seed is None else random_lifts(alg, seed))


@pytest.mark.parametrize("n,m,c", [(2, 2, 3), (3, 2, 2)])
def test_below_class_routes_match_replaced_on_heisenbergs(n, m, c):
    _cross_check_below_class(heisenberg(n, m), c)


@pytest.mark.parametrize("alg,c,zstar", [(heisenberg(2, 1), 1, 0), (heisenberg(2, 2), 1, 1)])
def test_multiplier_report_builds_no_quotient_algebra(alg, c, zstar, monkeypatch):
    """The star centre is computed on E modulo U, so a fresh report (the
    wider-cover check included, on H(2,1)) never builds E/U."""
    from nlie import algebra as algebra_module

    calls = []
    original = algebra_module._quotient
    monkeypatch.setattr(algebra_module, "_quotient", lambda *a: calls.append(a) or original(*a))
    multiplier.clear_cache()
    fresh = StructureAlgebra(alg.n, alg.dim, alg.basis_names, alg.table)
    assert multiplier_report(fresh, c).zstar_dim == zstar
    assert calls == []
    assert not hasattr(multiplier, "_quotient")


def test_free_quotients_are_capable():
    for n, d, k in ((2, 2, 2), (2, 2, 3), (3, 3, 2)):
        built = free_nilpotent(n, d, k)
        star, capable = z_star(built.algebra, 1)
        assert capable and star.dim == 0


def test_capability_of_heisenbergs():
    star, capable = z_star(heisenberg(2, 1), 1)
    assert capable and star.dim == 0

    h22 = heisenberg(2, 2)
    star, capable = z_star(h22, 1)
    assert not capable
    assert star.space == gamma_term(h22, 2).space


def test_star_centre_sits_in_centre_chain():
    for alg, c in ((heisenberg(2, 1), 1), (heisenberg(2, 2), 1), (heisenberg(2, 2), 2),
                   (abelian(3, 2), 2)):
        star, _ = z_star(alg, c)
        assert z_term(alg, c).space.contains_subspace(star.space)


def test_abelian_algebras_are_capable_for_c1_d_ge_2():
    assert is_capable(abelian(2, 2), 1)
    assert is_capable(abelian(3, 2), 1)


def test_presentation_invariance_under_lifts():
    """The numbers do not depend on the lifts, on every catalog algebra.
    This also guards that Rbar contains gamma_{m+1}(E) under inhomogeneous
    lifts, which the presentation below weight m relies on."""
    for label, alg in CATALOG:
        for c in (1, 2):
            base = multiplier_report(alg, c)
            for seed in (1, 2, 5):
                other = multiplier_report(alg, c, lifts=random_lifts(alg, seed))
                assert other.multiplier_dim == base.multiplier_dim, (label, c, seed)
                assert other.zstar_dim == base.zstar_dim, (label, c, seed)


def test_truncation_spot_checks():
    assert truncation_consistent(heisenberg(2, 1), 1)
    assert truncation_consistent(abelian(2, 2), 2)
    assert truncation_consistent(heisenberg(3, 1), 1)


def test_equivalence_of_star_membership_and_dimension_identity():
    """Central ideal M sits inside the c-th star centre iff the quotient
    multiplier dimension splits additively."""
    from nlie.algebra import quotient_algebra
    from nlie.linalg import subspace_intersect, unit_vector

    a3 = abelian(3, 2)
    cases = [
        (heisenberg(2, 2), gamma_term(heisenberg(2, 2), 2), 2),  # in the star centre
        (heisenberg(2, 1), gamma_term(heisenberg(2, 1), 2), 1),  # star centre is zero
        (a3, a3.subspace([unit_vector(3, 0)]), 1),               # capable abelian
    ]
    for alg, m, c in cases:
        assert z_term(alg, c).space.contains_subspace(m.space)
        star, _ = z_star(alg, c)
        member = star.space.contains_subspace(m.space)
        quotient, _ = quotient_algebra(alg, m)
        lhs = multiplier_report(quotient, c).multiplier_dim
        cap = subspace_intersect(m.space, gamma_term(alg, c + 1).space).dim
        rhs = multiplier_report(alg, c).multiplier_dim + cap
        assert member == (lhs == rhs)


def test_multiplier_report_leaves_nothing_for_the_cyclic_gc():
    """The multiplier path makes no reference cycles either: the tree
    evaluation recurses through a module-level function, and an algebra
    keeps its series as plain subspaces, not as AlgebraSubspaces that refer
    back to it."""
    free_algebra.clear_caches()
    multiplier.clear_cache()
    gc.collect()
    gc.disable()
    try:
        multiplier_report(heisenberg(2, 2), 2)
        free_algebra.clear_caches()
        multiplier.clear_cache()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_report_fields_are_consistent():
    rep = multiplier_report(heisenberg(2, 1), 2)
    assert rep.free_dim == free_nilpotent(2, 2, 4).dim
    assert rep.multiplier_dim == rep.gamma_cap_kernel_dim - rep.chain_dim
    assert rep.multiplier_dim >= 0
    d = rep.to_dict()
    assert d["multiplier_dim"] == 5
    assert d["capable_c"] in (True, False)
