import json
from fractions import Fraction

import pytest

from nlie.algebra import (
    AlgebraFormatError,
    NotNilpotentError,
    StructureAlgebra,
    _quotient,
    _upper_central_series,
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
from nlie.bounds import _ideal_choices, catalog_algebras
from nlie.free_algebra import free_nilpotent
from nlie.linalg import Subspace, subspace_sum, unit_vector


def solvable3():
    # [e1,e2] = e1, everything with e3 zero
    return StructureAlgebra(2, 3, table={(0, 1): {0: Fraction(1)}})


def solvable2():
    return StructureAlgebra(2, 2, table={(0, 1): {0: Fraction(1)}})


def _sub(alg, vectors):
    return Subspace.from_vectors(vectors, alg.dim)


def test_table_entries_become_fractions():
    """Int, str and Fraction entries give equal algebras, all held as
    Fractions; Fraction entries are kept as they are, zeros are dropped."""
    half = Fraction(1, 2)
    tables = [
        {(0, 1): {2: 1, 0: 0}, (0, 2): {1: -3, 0: half}},
        {(0, 1): {2: "1"}, (0, 2): {1: "-3", 0: "1/2"}},
        {(0, 1): {2: Fraction(1), 0: Fraction(0)}, (0, 2): {1: Fraction(-3), 0: half}},
    ]
    algebras = [StructureAlgebra(2, 3, table=table) for table in tables]
    assert algebras[0] == algebras[1] == algebras[2]
    for alg in algebras:
        assert alg.table == {(0, 1): {2: 1}, (0, 2): {1: -3, 0: half}}
        assert all(type(c) is Fraction for row in alg.table.values() for c in row.values())
    assert algebras[2].table[(0, 2)][0] is half


def test_zero_entries_are_dropped_after_conversion():
    """A zero given as a string is a zero too: it is not stored, and the
    algebra equals the one built from the int 0."""
    from_str = StructureAlgebra(2, 3, table={(0, 1): {2: "0"}})
    assert from_str.table == {}
    assert from_str == StructureAlgebra(2, 3, table={(0, 1): {2: 0}})
    mixed = StructureAlgebra(2, 3, table={(0, 1): {2: "0/5", 0: "2"}})
    assert mixed.table == {(0, 1): {0: Fraction(2)}}
    assert mixed == StructureAlgebra(2, 3, table={(0, 1): {0: 2}})


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
    full = Subspace.full(4)
    assert bracket_product(a, full, full).dim == 0

    h = heisenberg(2, 1)
    derived = bracket_product(h, Subspace.full(3), Subspace.full(3))
    assert derived.dim == 1
    assert derived.contains_vector(unit_vector(3, 2))

    assert bracket_product(h, Subspace.zero(3), Subspace.full(3)).dim == 0


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
    assert chain[-1].contains_vector(unit_vector(3, 2))
    # the 2-dim solvable algebra has trivial centre
    assert [s.dim for s in upper_central_series(solvable2())] == [0]


SERIES_CASES = catalog_algebras() + [("S3", solvable3()), ("S2", solvable2())]


def _lifted_quotient_series(alg, ideal):
    """The upper series of L/M, lifted into L and summed with M = ``ideal``."""
    quotient, comp = _quotient(alg, ideal)
    return [
        subspace_sum(ideal, Subspace.from_vectors(
            [{comp[j]: x for j, x in row.items()} for row in z.rows.values()],
            alg.dim,
        ))
        for z in upper_central_series(quotient)
    ]


@pytest.mark.parametrize("alg", [alg for _, alg in SERIES_CASES],
                         ids=[label for label, _ in SERIES_CASES])
def test_upper_series_modulo_an_ideal_lifts_the_quotient_series(alg):
    """With ``base`` = M, the upper series (ungraded, every tuple, no
    truncation) is M plus the lifted upper series of L/M, term by term."""
    for _, ideal in _ideal_choices(alg):
        want = _lifted_quotient_series(alg, ideal)
        assert _upper_central_series(alg, list(alg._ad), base=ideal) == want


@pytest.mark.parametrize("rows", [[{2: 2, 3: -1}], [{2: 1, 3: 1, 4: -2}], [{2: 1, 3: 1}]])
def test_upper_series_modulo_a_skew_central_ideal(rows):
    """Central ideals of H(2,1)+A(2) that are not spanned by basis vectors,
    so the annihilators of the base and of each term carry entries off
    their pivots, with and without a pivot entry of 1."""
    alg = direct_sum(heisenberg(2, 1), abelian(2, 2))
    ideal = Subspace.from_vectors(rows, alg.dim)
    assert is_ideal(alg, ideal)
    want = _lifted_quotient_series(alg, ideal)
    assert _upper_central_series(alg, list(alg._ad), base=ideal) == want


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
        [gamma_term(alg, k) for k in range(1, 6)],
        [z_term(alg, k) for k in range(0, 5)],
        nilpotency_class(alg),
        minimal_generators(alg),
        lower_central_series(alg),
        upper_central_series(alg),
    )


def test_central_series_computed_once_per_instance(monkeypatch):
    from nlie import algebra as algebra_module

    built = free_nilpotent(2, 2, 3).algebra
    alg = StructureAlgebra(built.n, built.dim, built.basis_names, built.table)
    calls = {"_ad_images": 0, "_upper_central_series": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(algebra_module, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(algebra_module, name, counted)

    first = _series_readings(alg)
    # one [S, L, ..., L] span per lower term, the stable one included, and
    # one span of forms per upper term above the first: the upper series
    # [0, 2, 3, 5] has annihilators of dims 5, 3, 2, 0
    assert calls == {"_ad_images": 7, "_upper_central_series": 1}
    assert _series_readings(alg) == first
    assert calls == {"_ad_images": 7, "_upper_central_series": 1}

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
    assert is_ideal(h, Subspace.zero(3))
    line = _sub(h, [unit_vector(3, 0)])
    assert not is_ideal(h, line)
    with pytest.raises(ValueError):
        quotient_algebra(h, line)


def test_quotient_by_zero_keeps_table():
    h = heisenberg(2, 1)
    q, comp = quotient_algebra(h, Subspace.zero(3))
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


def test_subalgebra_on_the_whole_space_reproduces_the_table():
    """A nonzero bracket of the basis rows becomes a table entry in the
    coordinates of the echelon basis, here the unit vectors."""
    alg = free_nilpotent(2, 2, 3).algebra
    sub = subalgebra_on(alg, Subspace.full(alg.dim), alg.basis_names)
    assert sub == alg and sub.table


def test_subalgebra_rejects_non_closed():
    h = heisenberg(2, 1)
    generators = _sub(h, [unit_vector(3, 0), unit_vector(3, 1)])
    with pytest.raises(ValueError, match="subspace is not closed under the bracket"):
        subalgebra_on(h, generators)


@pytest.mark.parametrize("table,message", [
    ({(0, 1, 2): {0: 1}}, r"bracket arguments \(0, 1, 2\) do not have arity 2"),
    ({(0, 3): {0: 1}}, r"bracket arguments \(0, 3\) out of range"),
    ({(1, 0): {0: 1}}, r"bracket arguments \(1, 0\) not strictly increasing"),
    ({(1, 1): {0: 1}}, r"bracket arguments \(1, 1\) not strictly increasing"),
    ({(0, 1): {3: 1}}, "bracket value index 3 out of range"),
], ids=["arity", "index", "order", "repeat", "value"])
def test_structure_algebra_rejects_malformed_tables(table, message):
    with pytest.raises(ValueError, match=message):
        StructureAlgebra(2, 3, table=table)


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
