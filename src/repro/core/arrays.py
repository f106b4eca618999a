"""Columnar register storage for the array-native verification core.

:class:`ArrayLabeling` keeps one numpy column per field instead of one
dict per node.  Columns pick the tightest faithful dtype per field —
``bool`` when every value is a bool, ``int64`` when every value is a
plain int that fits, ``object`` otherwise — and conversion back through
:meth:`to_labeling` restores the exact Python values (``tolist`` turns
numpy scalars back into ``bool``/``int``), so the dict path and the
array path always see the same states.

The vectorized marker kernels emit whole columns into it
(:meth:`ArrayLabeling.from_column`), which :meth:`to_labeling` turns
back into the :class:`~repro.core.labeling.Labeling` the dict path
would have built.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from repro.core.labeling import Labeling
from repro.errors import SchemeError

__all__ = ["ArrayLabeling", "column_from_values"]


def column_from_values(values: Iterable[Any], n: int) -> np.ndarray:
    """The tightest faithful column for ``n`` Python values.

    ``bool`` and ``int64`` columns are used only when round-tripping
    through ``tolist()`` reproduces the original objects exactly (same
    type, same value); everything else — ``None``, tuples, frozensets,
    ints beyond 64 bits, mixed rows — lands in an ``object`` column,
    which stores the references untouched.
    """
    items = list(values)
    if len(items) != n:
        raise SchemeError(f"expected {n} values, got {len(items)}")
    if items and all(type(v) is bool for v in items):
        return np.array(items, dtype=bool)
    if items and all(
        type(v) is int and v.bit_length() < 63 for v in items
    ):
        return np.array(items, dtype=np.int64)
    column = np.empty(n, dtype=object)
    for i, v in enumerate(items):
        column[i] = v
    return column


class ArrayLabeling:
    """Per-field numpy columns over nodes ``0..n-1``."""

    __slots__ = ("_n", "_columns")

    def __init__(self, n: int, columns: Mapping[str, np.ndarray]) -> None:
        self._n = n
        for name, column in columns.items():
            if column.shape != (n,):
                raise SchemeError(
                    f"column {name!r} has shape {column.shape}, expected ({n},)"
                )
        self._columns = dict(columns)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_labeling(
        cls, labeling: Mapping[int, Any], n: int, field: str = "state"
    ) -> "ArrayLabeling":
        """One column holding ``labeling[v]`` for every node ``v``."""
        missing = [v for v in range(n) if v not in labeling]
        if missing:
            raise SchemeError(f"labeling misses nodes {missing[:5]}")
        column = column_from_values((labeling[v] for v in range(n)), n)
        return cls(n, {field: column})

    @classmethod
    def from_column(
        cls, column: np.ndarray, field: str = "state"
    ) -> "ArrayLabeling":
        """Wrap an already-built column — the bulk constructor the
        vectorized marker kernels emit into (no per-node conversion)."""
        return cls(int(column.shape[0]), {field: column})

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, field: str) -> np.ndarray:
        try:
            return self._columns[field]
        except KeyError:
            raise SchemeError(
                f"no column {field!r}; have {sorted(self._columns)}"
            ) from None

    def value(self, field: str, node: int) -> Any:
        """The Python value at one cell (numpy scalars converted back)."""
        cell = self.column(field)[node]
        return cell.item() if isinstance(cell, np.generic) else cell

    # -- conversion back ----------------------------------------------------

    def to_dict(self, field: str) -> dict[int, Any]:
        """``{node: value}`` with exact Python scalars."""
        column = self.column(field)
        if column.dtype == object:
            return {v: column[v] for v in range(self._n)}
        return dict(enumerate(column.tolist()))

    def to_labeling(self, field: str = "state") -> Labeling:
        """The :class:`Labeling` this column denotes, value-for-value."""
        return Labeling(self.to_dict(field))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayLabeling):
            return NotImplemented
        if self._n != other._n or set(self._columns) != set(other._columns):
            return False
        return all(
            self.to_dict(name) == other.to_dict(name)
            for name in self._columns
        )

    def __repr__(self) -> str:
        dtypes = {name: str(col.dtype) for name, col in self._columns.items()}
        return f"ArrayLabeling(n={self._n}, columns={dtypes})"
