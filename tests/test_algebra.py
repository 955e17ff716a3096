import json
from fractions import Fraction

import pytest

from nlie.algebra import (
    AlgebraFormatError,
    NotNilpotentError,
    StructureAlgebra,
    abelian,
    bracket_product,
    direct_sum,
    from_json_dict,
    gamma_term,
    heisenberg,
    is_ideal,
    lower_central_series,
    minimal_generators,
    nilpotency_class,
    quotient_algebra,
    subalgebra_on,
    to_json_dict,
    upper_central_series,
    z_term,
)
from nlie.free_algebra import free_nilpotent
from nlie.linalg import unit_vector


def solvable3():
    # [e1,e2] = e1, everything with e3 zero
    return StructureAlgebra(2, 3, table={(0, 1): {0: Fraction(1)}})


def solvable2():
    return StructureAlgebra(2, 2, table={(0, 1): {0: Fraction(1)}})


def test_validate_abelian():
    assert abelian(5, 3).validate().valid


def test_validate_heisenberg():
    assert heisenberg(2, 1).validate().valid


def test_validate_solvable():
    assert solvable3().validate().valid


def test_validate_catches_violation():
    # [e1,e2] = e3, [e1,e3] = e1 violates the identity
    bad = StructureAlgebra(
        2, 3, table={(0, 1): {2: Fraction(1)}, (0, 2): {0: Fraction(1)}}
    )
    report = bad.validate()
    assert not report.valid
    assert report.violation is not None


def test_lookup_parity_agrees_with_inversion_count():
    from itertools import permutations

    h = heisenberg(4, 1)
    base = h.bracket_basis((0, 1, 2, 3))
    for perm in permutations((0, 1, 2, 3)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j]
        )
        expected = {k: v * (-1) ** inversions for k, v in base.items()}
        assert h.bracket_basis(perm) == expected


def test_lookup_sign_and_repeats():
    h = heisenberg(2, 1)
    assert h.bracket_basis((0, 1)) == {2: Fraction(1)}
    assert h.bracket_basis((1, 0)) == {2: Fraction(-1)}
    assert h.bracket_basis((0, 0)) == {}
    h3 = heisenberg(3, 1)
    assert h3.bracket_basis((2, 0, 1)) == {3: Fraction(1)}  # even permutation
    assert h3.bracket_basis((1, 0, 2)) == {3: Fraction(-1)}


def test_bracket_product_examples():
    a = abelian(4, 2)
    full = a.full_subspace()
    assert bracket_product(full, full).dim == 0

    h = heisenberg(2, 1)
    derived = bracket_product(h.full_subspace(), h.full_subspace())
    assert derived.dim == 1
    assert derived.space.contains_vector(unit_vector(3, 2))

    zero = h.zero_subspace()
    assert bracket_product(zero, h.full_subspace()).dim == 0


def test_lower_series_examples():
    assert [s.dim for s in lower_central_series(abelian(3, 2))] == [3, 0]
    assert [s.dim for s in lower_central_series(heisenberg(2, 2))] == [5, 1, 0]
    built = free_nilpotent(2, 2, 3)
    assert [s.dim for s in lower_central_series(built.algebra)] == [5, 3, 2, 0]


def test_upper_series_examples():
    assert [s.dim for s in upper_central_series(abelian(3, 2))] == [0, 3]
    assert [s.dim for s in upper_central_series(heisenberg(2, 1))] == [0, 1, 3]
    # e3 commutes with everything, and the chain stalls there
    chain = upper_central_series(solvable3())
    assert [s.dim for s in chain] == [0, 1]
    assert chain[-1].space.contains_vector(unit_vector(3, 2))
    # the 2-dim solvable algebra has trivial centre
    assert [s.dim for s in upper_central_series(solvable2())] == [0]


def test_nilpotency_class():
    assert nilpotency_class(abelian(4, 2)) == 1
    assert nilpotency_class(heisenberg(3, 2)) == 2
    assert nilpotency_class(free_nilpotent(2, 2, 4).algebra) == 4
    assert nilpotency_class(solvable3()) is None


def test_class_agrees_between_series():
    for alg in (abelian(3, 2), heisenberg(2, 1), heisenberg(2, 2),
                free_nilpotent(2, 2, 3).algebra, free_nilpotent(3, 3, 2).algebra):
        s = nilpotency_class(alg)
        chain = upper_central_series(alg)
        assert chain[-1].dim == alg.dim
        assert len(chain) - 1 == s


def _series_readings(alg):
    return (
        [gamma_term(alg, k).space for k in range(1, 6)],
        [z_term(alg, k).space for k in range(0, 5)],
        nilpotency_class(alg),
        minimal_generators(alg),
        [s.space for s in lower_central_series(alg)],
        [s.space for s in upper_central_series(alg)],
    )


def test_central_series_computed_once_per_instance(monkeypatch):
    from nlie import algebra as algebra_module

    built = free_nilpotent(2, 2, 3).algebra
    alg = StructureAlgebra(built.n, built.dim, built.basis_names, built.table)
    calls = {"bracket_product": 0, "_upper_central_series": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(algebra_module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(algebra_module, name, counted)

    first = _series_readings(alg)
    # one bracket product per lower term, the stable one included
    assert calls == {"bracket_product": 4, "_upper_central_series": 1}
    assert _series_readings(alg) == first
    assert calls == {"bracket_product": 4, "_upper_central_series": 1}

    fresh = StructureAlgebra(built.n, built.dim, built.basis_names, built.table)
    assert _series_readings(fresh) == first

    lower_central_series(alg).clear()
    upper_central_series(alg).append(None)
    assert _series_readings(alg) == first


def test_minimal_generators():
    assert minimal_generators(abelian(4, 2)) == 4
    assert minimal_generators(heisenberg(3, 1)) == 3
    assert minimal_generators(heisenberg(2, 2)) == 4
    with pytest.raises(NotNilpotentError):
        minimal_generators(solvable3())


def test_heisenberg_shapes():
    h = heisenberg(2, 2)
    assert h.dim == 5
    assert gamma_term(h, 2).dim == 1
    h31 = heisenberg(3, 1)
    assert h31.dim == 4
    assert len(h31.table) == 1


def test_direct_sum():
    assert direct_sum(abelian(2, 2), abelian(3, 2)) == abelian(5, 2)
    s = direct_sum(heisenberg(2, 1), abelian(2, 2))
    assert gamma_term(s, 2).dim == 1
    assert nilpotency_class(direct_sum(heisenberg(2, 2), abelian(1, 2))) == 2
    with pytest.raises(ValueError):
        direct_sum(heisenberg(2, 1), abelian(2, 3))


def test_gamma_of_direct_sum_adds():
    a = free_nilpotent(2, 2, 3).algebra
    b = heisenberg(2, 1)
    s = direct_sum(a, b)
    for k in range(1, 5):
        assert gamma_term(s, k).dim == gamma_term(a, k).dim + gamma_term(b, k).dim


def test_ideal_predicates():
    h = heisenberg(2, 1)
    assert is_ideal(h, gamma_term(h, 2))
    assert is_ideal(h, h.zero_subspace())
    line = h.subspace([unit_vector(3, 0)])
    assert not is_ideal(h, line)
    with pytest.raises(ValueError):
        quotient_algebra(h, line)


def test_quotient_by_zero_keeps_table():
    h = heisenberg(2, 1)
    q, comp = quotient_algebra(h, h.zero_subspace())
    assert comp == (0, 1, 2)
    assert q.table == h.table


def test_quotient_by_derived():
    h = heisenberg(2, 1)
    q, _ = quotient_algebra(h, gamma_term(h, 2))
    assert q == abelian(2, 2)


def test_subalgebra_on_center():
    h = heisenberg(2, 2)
    sub = subalgebra_on(h, z_term(h, 1))
    assert sub.dim == 1
    assert sub.table == {}


def test_subalgebra_rejects_non_closed():
    h = heisenberg(2, 1)
    generators = h.subspace([unit_vector(3, 0), unit_vector(3, 1)])
    with pytest.raises(ValueError):
        subalgebra_on(h, generators)


def test_constructor_outputs_validate():
    for alg in (
        heisenberg(3, 2),
        direct_sum(heisenberg(2, 1), abelian(2, 2)),
        direct_sum(heisenberg(3, 1), abelian(1, 3)),
    ):
        assert alg.validate().valid


def test_json_roundtrip():
    for alg in (heisenberg(2, 1), heisenberg(3, 1), free_nilpotent(2, 2, 3).algebra):
        doc = to_json_dict(alg)
        text = json.dumps(doc)
        back = from_json_dict(json.loads(text))
        assert back == alg
        assert back.basis_names == alg.basis_names


def test_json_rejects_unsorted_args():
    doc = to_json_dict(heisenberg(2, 1))
    doc["brackets"][0]["args"] = [2, 1]
    with pytest.raises(AlgebraFormatError, match="strictly increasing"):
        from_json_dict(doc)


def test_json_rejects_bad_fields():
    with pytest.raises(AlgebraFormatError, match=r"\$\.n"):
        from_json_dict({"n": 1, "dim": 2, "basis": ["a", "b"], "brackets": []})
    with pytest.raises(AlgebraFormatError, match="missing"):
        from_json_dict({"n": 2, "dim": 2, "basis": ["a", "b"]})
    doc = to_json_dict(heisenberg(2, 1))
    doc["brackets"][0]["value"] = [[1, 0, 3]]
    with pytest.raises(AlgebraFormatError, match="denominator"):
        from_json_dict(doc)
    doc = to_json_dict(heisenberg(2, 1))
    doc["brackets"][0]["value"] = [[1, 1, 9]]
    with pytest.raises(AlgebraFormatError, match="out of range"):
        from_json_dict(doc)


def test_zero_dimensional_algebra():
    z = abelian(0, 2)
    assert nilpotency_class(z) == 0
    assert minimal_generators(z) == 0
    assert [s.dim for s in lower_central_series(z)] == [0]
