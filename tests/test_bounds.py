import json

import pytest

from nlie.algebra import (
    abelian,
    bracket_product,
    direct_sum,
    gamma_term,
    heisenberg,
    is_ideal,
    quotient_algebra,
    subalgebra_on,
    z_term,
)
from nlie.bounds import (
    _ideal_choices,
    catalog_algebras,
    check_central_tensor_bound,
    check_class_bounds,
    check_dim_cap_bound,
    check_generator_bounds,
    check_hypercenter_bound,
    check_maximal_class_bound,
    check_quotient_bound,
    run_catalog,
    violations,
)
from nlie import free_algebra, multiplier
from nlie.free_algebra import ResourceLimitError, free_nilpotent, graded_dimension
from nlie.linalg import AmbientMismatchError, Subspace, unit_vector


def _sub(alg, vectors):
    return Subspace.from_vectors(vectors, alg.dim)


def test_quotient_bound_examples():
    h = heisenberg(2, 1)
    ck = check_quotient_bound(h, gamma_term(h, 2), 1, "L=H(2,1), M=z, c=1")
    assert (ck.lhs, ck.rhs, ck.holds) == (1, 3, True)

    a3 = abelian(3, 2)
    line = _sub(a3, [unit_vector(3, 0)])
    ck = check_quotient_bound(a3, line, 1, "L=A(3), M=e1, c=1")
    assert (ck.lhs, ck.rhs, ck.holds) == (1, 3, True)


def test_quotient_bound_zero_ideal_has_zero_slack():
    h = heisenberg(2, 2)
    ck = check_quotient_bound(h, Subspace.zero(h.dim), 1, "M=0")
    assert ck.slack == 0 and ck.holds


def test_quotient_bound_rejects_non_ideal():
    h = heisenberg(2, 1)
    with pytest.raises(ValueError):
        check_quotient_bound(h, _sub(h, [unit_vector(3, 0)]), 1, "bad")


def test_central_tensor_examples():
    h = heisenberg(2, 1)
    ck = check_central_tensor_bound(h, gamma_term(h, 2), 1, "M=z")
    # lhs = 2 + 1; rhs = M(A(2)) + M(A(1)) + 2^1 * 1
    assert (ck.lhs, ck.rhs, ck.holds) == (3, 3, True)

    a = abelian(3, 2)
    ck = check_central_tensor_bound(a, Subspace.full(3), 2, "M=L")
    assert ck.slack == 0 and ck.holds

    ck = check_central_tensor_bound(h, Subspace.zero(3), 1, "M=0")
    assert ck.slack == 0 and ck.holds


def test_central_tensor_rejects_non_central():
    h = heisenberg(2, 1)
    with pytest.raises(ValueError):
        check_central_tensor_bound(h, Subspace.full(3), 1, "bad")


def test_central_tensor_counterexample_is_reported_not_asserted():
    """Documented finding: with true dimensions on every term, the
    central-ideal tensor bound fails for the centre of H(2,1)+A(2) at c=2
    (the inequality's slack relies on the closed-form count exceeding the
    true weight-3 layer dimension on 3 generators)."""
    alg = direct_sum(heisenberg(2, 1), abelian(2, 2))
    centre = z_term(alg, 1)
    ck = check_central_tensor_bound(alg, centre, 2, "L=H(2,1)+A(2), M=center, c=2")
    assert (ck.lhs, ck.rhs, ck.holds, ck.variant) == (23, 22, False, "exploratory")
    checks = run_catalog(2)
    row = [
        c for c in checks
        if c.name == "central-tensor" and c.descriptor == "L=H(2,1)+A(2), M=center, c=2"
    ]
    assert len(row) == 1 and row[0].variant == "exploratory" and not row[0].holds
    assert not violations(checks)


def test_generator_bounds_examples():
    h = heisenberg(2, 1)
    rows = {r.name: r for r in check_generator_bounds(h, 1, "x") if r.variant == "oracle"}
    assert (rows["generator-lower"].lhs, rows["generator-lower"].rhs) == (1, 3)
    # d = 2, a_1 = 1, exponent c(n-1)-i+1 = 1: upper bound 1 + 1*2 = 3
    assert (rows["generator-upper"].lhs, rows["generator-upper"].rhs) == (3, 3)

    h22 = heisenberg(2, 2)
    rows = {r.name: r for r in check_generator_bounds(h22, 1, "x") if r.variant == "oracle"}
    assert (rows["generator-lower"].lhs, rows["generator-lower"].rhs) == (6, 6)
    assert (rows["generator-upper"].lhs, rows["generator-upper"].rhs) == (6, 10)


def test_generator_bounds_abelian_attained():
    for d in (2, 3):
        for c in (1, 2):
            rows = [r for r in check_generator_bounds(abelian(d, 2), c, "x")
                    if r.variant == "oracle"]
            assert all(r.slack == 0 for r in rows)


def test_class_bound_examples():
    h = heisenberg(2, 1)
    oracle = [r for r in check_class_bounds(h, 2, "x") if r.variant == "oracle"][0]
    assert (oracle.lhs, oracle.rhs) == (5, 6)  # 1 + 2 + 3
    oracle = [r for r in check_class_bounds(h, 1, "x") if r.variant == "oracle"][0]
    assert (oracle.lhs, oracle.rhs) == (2, 3)  # 1 + 2


def test_hypercenter_examples():
    h = heisenberg(2, 1)
    rows = [r for r in check_hypercenter_bound(h, 1, "x")
            if r.variant == "oracle" and r.name == "hypercenter"]
    assert (rows[0].lhs, rows[0].rhs) == (1, 1)

    fn = free_nilpotent(2, 2, 3).algebra
    rows = [r for r in check_hypercenter_bound(fn, 1, "x")
            if r.variant == "oracle" and r.name == "hypercenter"]
    # dim gamma_2 = 3; Z_1 is the weight-3 layer, so d0 = dim(L/Z_1) = 3
    assert (rows[0].lhs, rows[0].rhs) == (3, graded_dimension(2, 3, 2))
    assert rows[0].holds


def test_hypercenter_corollary_inapplicable_on_non_nilpotent():
    """[e1, e2] = e2 has trivial centre, so L/Z_1 is L itself, which is not
    nilpotent: the corollary row says so instead of bounding."""
    from nlie.algebra import StructureAlgebra

    alg = StructureAlgebra(2, 2, table={(0, 1): {1: 1}})
    rows = check_hypercenter_bound(alg, 1, "x")
    assert [(r.name, r.variant) for r in rows] == [
        ("hypercenter", "oracle"), ("hypercenter", "formula"), ("hypercenter-corollary", "oracle"),
    ]
    corollary = rows[-1]
    assert not corollary.applicable and corollary.holds
    assert (corollary.lhs, corollary.rhs, corollary.slack) == (None, None, None)
    assert corollary.flags == ("quotient-not-nilpotent",)
    assert all(r.applicable and r.holds for r in rows[:2])


def test_dim_cap_examples():
    for d in (2, 3):
        row = [r for r in check_dim_cap_bound(abelian(d, 2), 1, "x") if r.variant == "oracle"][0]
        assert row.slack == 0
    h = heisenberg(2, 1)
    row = [r for r in check_dim_cap_bound(h, 1, "x") if r.variant == "oracle"][0]
    assert (row.lhs, row.rhs, row.slack) == (3, 3, 0)
    h22 = heisenberg(2, 2)
    row = [r for r in check_dim_cap_bound(h22, 1, "x") if r.variant == "oracle"][0]
    assert (row.lhs, row.rhs) == (6, 10)


def test_maximal_class_examples():
    h = heisenberg(2, 1)
    rows = [r for r in check_maximal_class_bound(h, 1, "x") if r.variant == "oracle"]
    assert rows[0].applicable
    assert (rows[0].lhs, rows[0].rhs) == (2, 3)

    fn = free_nilpotent(2, 2, 2).algebra
    rows = [r for r in check_maximal_class_bound(fn, 1, "x") if r.variant == "oracle"]
    assert (rows[0].lhs, rows[0].rhs) == (2, 3)

    h22 = heisenberg(2, 2)
    rows = check_maximal_class_bound(h22, 1, "x")
    assert len(rows) == 1 and not rows[0].applicable and rows[0].holds


def test_run_catalog_c1_clean_and_deterministic():
    first = run_catalog(1)
    assert not violations(first)
    second = run_catalog(1)
    assert first == second
    as_json = json.dumps([ck.to_dict() for ck in first])
    assert as_json == json.dumps([ck.to_dict() for ck in second])
    keys = [(ck.name, ck.descriptor, ck.variant) for ck in first]
    assert keys == sorted(keys)


def test_run_catalog_rejects_bad_cmax():
    with pytest.raises(ValueError):
        run_catalog(0)
    with pytest.raises(ValueError):
        run_catalog(6)


def test_catalog_flags_non_nilpotent_entries():
    from nlie.algebra import StructureAlgebra
    from fractions import Fraction

    solvable = StructureAlgebra(2, 2, table={(0, 1): {0: Fraction(1)}})
    checks = run_catalog(1, algebras=[("S", solvable)])
    assert len(checks) == 1
    assert not checks[0].applicable
    assert not violations(checks)


def _guarded_checks():
    h22, h21 = heisenberg(2, 2), heisenberg(2, 1)
    centre = z_term(h22, 1)
    return {
        "generator": lambda guard: check_generator_bounds(h22, 2, "L=H(2,2)", guard),
        "class": lambda guard: check_class_bounds(h22, 2, "L=H(2,2)", guard),
        "hypercenter": lambda guard: check_hypercenter_bound(h22, 1, "L=H(2,2)", guard),
        "dim-cap": lambda guard: check_dim_cap_bound(h22, 2, "L=H(2,2)", guard),
        "maximal-class": lambda guard: check_maximal_class_bound(h21, 1, "L=H(2,1)", guard),
        "quotient": lambda guard: check_quotient_bound(h22, centre, 2, "M=centre", guard),
        "central-tensor": lambda guard: check_central_tensor_bound(
            h22, centre, 2, "M=centre", guard
        ),
    }


@pytest.mark.parametrize("name", sorted(_guarded_checks()))
def test_checkers_pass_the_tree_guard_to_the_oracle_and_covers(name):
    check = _guarded_checks()[name]
    free_algebra.clear_caches()
    multiplier.clear_cache()
    with pytest.raises(ResourceLimitError):
        check(1)
    free_algebra.clear_caches()
    multiplier.clear_cache()
    assert check(free_algebra.DEFAULT_MAX_TREES) == check(None)


def test_run_catalog_passes_the_tree_guard():
    free_algebra.clear_caches()
    multiplier.clear_cache()
    with pytest.raises(ResourceLimitError, match="more than 20 canonical trees"):
        run_catalog(2, max_trees=20)


CATALOG = catalog_algebras()


@pytest.mark.parametrize("label,alg", CATALOG, ids=[label for label, _ in CATALOG])
def test_central_tensor_variant_follows_the_ideal(label, alg):
    """A central-tensor row asserts exactly for M = 0, gamma_2(L) or L, the
    labels ``_ideal_choices`` keeps for them; a centre that differs from all
    three is exploratory.  Each central ideal is an abelian subalgebra, the
    algebra whose multiplier the row reads."""
    centre = z_term(alg, 1)
    for mlabel, ideal in _ideal_choices(alg):
        if not centre.contains_subspace(ideal):
            continue
        assert subalgebra_on(alg, ideal).table == {}
        ck = check_central_tensor_bound(alg, ideal, 1, mlabel)
        want = "exploratory" if mlabel == "center" else "oracle"
        assert ck.variant == want, (label, mlabel)


def _wrong_ambient_calls():
    """One call per function that takes a subspace of an algebra."""
    alg = heisenberg(2, 1)
    full = Subspace.full(alg.dim)
    return {
        "is_ideal": lambda sub: is_ideal(alg, sub),
        "quotient_algebra": lambda sub: quotient_algebra(alg, sub),
        "subalgebra_on": lambda sub: subalgebra_on(alg, sub),
        "bracket_product": lambda sub: bracket_product(alg, full, sub),
        "check_quotient_bound": lambda sub: check_quotient_bound(alg, sub, 1, "x"),
        "check_central_tensor_bound": lambda sub: check_central_tensor_bound(alg, sub, 1, "x"),
    }


@pytest.mark.parametrize("name", sorted(_wrong_ambient_calls()))
@pytest.mark.parametrize("sub", [Subspace.zero(4), Subspace.full(2), Subspace.zero(2)],
                         ids=["zero-of-4", "full-of-2", "zero-of-2"])
def test_subspace_of_another_dimension_is_rejected(name, sub):
    """H(2,1) has dimension 3; a subspace of F^4 or F^2 is no subspace of
    it, even where the call would otherwise return without looking."""
    with pytest.raises(AmbientMismatchError):
        _wrong_ambient_calls()[name](sub)
