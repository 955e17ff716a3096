from collections import Counter

import pytest

from nlie import free_algebra
from nlie.counting import (
    CountDomainError,
    GridLimitError,
    compare_table,
    convention_count,
    formula_count,
    layer_sum,
)
from nlie.free_algebra import _TreeIds, graded_dimension


# hand-evaluated transcription fixtures
def test_formula_fixtures():
    assert formula_count(2, 2, 3) == 2
    assert formula_count(3, 2, 3) == 9
    assert formula_count(4, 2, 3) == 24


def test_formula_domain():
    with pytest.raises(CountDomainError):
        formula_count(3, 2, 2)
    with pytest.raises(CountDomainError):
        formula_count(3, 2, 1)
    with pytest.raises(CountDomainError):
        formula_count(0, 2, 3)


def test_formula_higher_weights_stay_integral():
    # pure transcription sanity: values are well-defined integers
    for d in range(1, 6):
        for w in range(3, 7):
            assert isinstance(formula_count(d, 2, w), int)
    # hand evaluation at (d=4, n=3, w=3): blocks give betas 2,1,1 and the
    # inner sum is C(C(4,2), 1) = 6
    assert formula_count(4, 3, 3) == (2 + 1 + 1) * 6


def test_convention_values():
    assert convention_count(5, 2, 2) == 10
    assert convention_count(4, 3, 2) == 4
    assert convention_count(3, 2, 1) == 3


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 5)])
def test_convention_weight_two_matches_oracle(n, d):
    assert convention_count(d, n, 2) == graded_dimension(n, d, 2)


def test_layer_sums():
    assert layer_sum(2, 2, 1, 2, use_oracle=True) == 3  # 2 + 1
    assert layer_sum(2, 2, 3, 2, use_oracle=True) == 5  # 2 + 3
    assert layer_sum(2, 2, 1, 1, use_oracle=True) == 2
    assert layer_sum(2, 2, 1, 1, use_oracle=False) == 2


def test_compare_table_flags_disagreement():
    rows = compare_table(2, [2, 3], [2, 3])
    by_key = {(r.d, r.w): r for r in rows}
    assert by_key[(2, 3)].agree and by_key[(2, 3)].formula == 2
    row = by_key[(3, 3)]
    assert row.formula == 9 and row.oracle == 8 and not row.agree
    assert by_key[(2, 2)].agree and by_key[(3, 2)].agree


def test_compare_table_guard():
    with pytest.raises(GridLimitError):
        compare_table(2, range(1, 100), range(1, 100))


def test_compare_table_pure():
    first = compare_table(2, [2, 3], [1, 2, 3])
    second = compare_table(2, [2, 3], [1, 2, 3])
    assert first == second


def test_compare_table_keys_each_column_once(monkeypatch):
    """Each (n, d) column's tree table is grown to the largest weight before
    its cells, so its multidegree keys start over at most once (21 restarts
    on this grid when the table grew a weight per cell)."""
    free_algebra.clear_caches()
    restarts = Counter()
    original = _TreeIds.multidegrees

    def spy(self, w):
        before = self._keys
        out = original(self, w)
        restarts[self.n, self.d] += self._keys is not before
        return out

    monkeypatch.setattr(_TreeIds, "multidegrees", spy)
    rows = compare_table(2, range(1, 9), range(1, 6))
    assert len(rows) == 40 and rows[-1].oracle == 6552
    assert restarts and max(restarts.values()) == 1
