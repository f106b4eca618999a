"""ArrayLabeling must be an exact columnar mirror of Labeling."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

# The gate above must run before repro.core.arrays (which imports numpy
# unconditionally), hence the post-gate imports.
from repro.core.arrays import ArrayLabeling, column_from_values  # noqa: E402
from repro.core.labeling import Labeling  # noqa: E402
from repro.errors import SchemeError  # noqa: E402


class TestColumnFromValues:
    def test_bools_get_bool_dtype(self):
        col = column_from_values([True, False, True], 3)
        assert col.dtype == bool

    def test_ints_get_int64_dtype(self):
        col = column_from_values([0, -7, 2**40], 3)
        assert col.dtype == np.int64

    def test_bool_int_mix_stays_object(self):
        # bool is a subclass of int; a faithful column must not coerce.
        col = column_from_values([True, 1, 0], 3)
        assert col.dtype == object
        assert col[0] is True and col[1] == 1

    def test_huge_ints_stay_object(self):
        col = column_from_values([2**80, 1], 2)
        assert col.dtype == object
        assert col[0] == 2**80

    def test_none_and_tuples_stay_object(self):
        values = [None, (1, 2), frozenset({3})]
        col = column_from_values(values, 3)
        assert col.dtype == object
        assert list(col) == values

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemeError):
            column_from_values([1, 2], 3)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "values",
        [
            [True, False, False, True],
            [0, 5, -3, 2**60],
            [None, 1, "x", (2, None)],
            [frozenset(), frozenset({0, 2}), None, 7],
        ],
        ids=["bools", "ints", "mixed", "sets"],
    )
    def test_labeling_invariance(self, values):
        n = len(values)
        labeling = Labeling(dict(enumerate(values)))
        arrays = ArrayLabeling.from_labeling(labeling, n)
        back = arrays.to_labeling()
        assert back == labeling
        for v in range(n):
            got = arrays.value("state", v)
            assert got == values[v] and type(got) is type(values[v])

    def test_missing_node_rejected(self):
        with pytest.raises(SchemeError):
            ArrayLabeling.from_labeling({0: 1, 2: 3}, 3)

    def test_equality_ignores_dtype(self):
        packed = ArrayLabeling.from_labeling({0: 1, 1: 2}, 2)
        loose = ArrayLabeling(2, {"state": column_from_values([1, "x"], 2)})
        loose.column("state")[1] = 2
        assert packed.column("state").dtype != loose.column("state").dtype
        assert packed == loose
