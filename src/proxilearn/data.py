"""Tabular dataset container and treatment-effect curves.

A :class:`Dataset` holds one sample of (A, X, Z, W, Y) columns. Variable
groups are stored as 2-D float arrays so that multidimensional proxies and
a null covariate set (zero columns) are handled uniformly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np


# The variable groups of a sample, in the order of its fields, its CSV
# columns, ``--bandwidth`` lists and artifacts.
GROUPS = ("a", "x", "z", "w")


class SchemaError(ValueError):
    """Raised when a CSV file does not match the dataset schema."""


def _as_block(values, name: str, n_rows: int | None = None) -> np.ndarray:
    """Coerce a variable group to a 2-D float array of shape (n, d)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(
            f"{name} has {arr.shape[0]} rows, expected {n_rows}"
        )
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def query_rows(sample, **groups) -> SimpleNamespace:
    """Coerce a query's variable groups, named as keywords (``a=...``,
    ``w=...``), to 2-D blocks as wide as ``sample``'s groups, returned as
    attributes of one object that ``kernels.group_gram`` accepts.

    The first group sets the row count and every other group must match
    it, zero-width groups included; a zero-width group given as None has
    that many rows. Like data, queries must be finite: every estimator's
    queries pass here."""
    rows, count = {}, None
    for name, values in groups.items():
        rows[name] = _coerce_group(values, getattr(sample, name).shape[1],
                                   name, count)
        count = rows[name].shape[0]
    return SimpleNamespace(**rows)


def _coerce_group(values, dim: int, name: str, n_queries: int | None):
    """One group of ``query_rows``, shape (nq, dim)."""
    if values is None:
        if dim == 0:
            return np.empty((1 if n_queries is None else n_queries, 0))
        raise ValueError(f"{name} queries are required (dim={dim})")
    arr = np.asarray(values, dtype=float)
    if dim == 0:
        arr = np.empty((1 if arr.ndim == 0 else arr.shape[0], 0))
    elif arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr[None, :] if arr.shape[0] == dim and dim > 1 else arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(
            f"{name} queries have shape {np.shape(values)}, "
            f"expected (*, {dim})"
        )
    if n_queries is not None and arr.shape[0] != n_queries:
        raise ValueError(f"{name} query count differs from treatment count")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` as CSV, each cell as its ``str``. A
    Python float's ``str`` is its ``repr``, the shortest string that
    ``Dataset.from_csv`` parses back to the same float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_rows(path, header: list[str], rows: list[list[str]]):
    """The cells of ``rows`` as an (n, len(header)) float array.

    One numpy conversion parses every cell. Only when it fails does the
    cell-by-cell pass run, to name the row or cell in the SchemaError.
    """
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        data = None
    if data is not None and data.shape == (len(rows), len(header)):
        return data
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {i + 2} has {len(row)} cells, "
                f"expected {len(header)}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise SchemaError(
                    f"{path}: non-numeric cell at row {i + 2}, "
                    f"column {header[j]!r}: {cell!r}"
                ) from None
    return data


@dataclass(frozen=True)
class Dataset:
    """One tabular sample of treatment, covariates, proxies and outcome.

    Attributes
    ----------
    a : ndarray of shape (n, da)
        Treatment values.
    x : ndarray of shape (n, dx)
        Observed covariates; dx may be 0 (null covariate set).
    z : ndarray of shape (n, dz)
        Treatment-inducing proxy.
    w : ndarray of shape (n, dw)
        Outcome-inducing proxy.
    y : ndarray of shape (n,)
        Outcome.
    """

    a: np.ndarray
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        n = y.shape[0]
        for g in GROUPS:
            object.__setattr__(self, g, _as_block(getattr(self, g), g, n))
        if n and not np.isfinite(y).all():
            raise ValueError("y contains non-finite values")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(*(getattr(self, g)[idx] for g in GROUPS),
                       y=self.y[idx])

    def split_half(self, seed: int = 0) -> tuple["Dataset", "Dataset"]:
        """Split into two halves by a seeded shuffle (first half smaller
        when n is odd)."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n)
        m = self.n // 2
        return self.subset(perm[:m]), self.subset(perm[m:])

    def column_names(self) -> list[str]:
        names = []
        for g in GROUPS:
            width = getattr(self, g).shape[1]
            names += [g.upper()] if g == "a" and width == 1 else [
                f"{g.upper()}{i + 1}" for i in range(width)]
        return names + ["Y"]

    def to_csv(self, path) -> None:
        table = np.column_stack([*(getattr(self, g) for g in GROUPS),
                                 self.y])
        write_csv(path, self.column_names(), table.tolist())

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Load a dataset, reporting schema violations with row/column."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            header = [name.strip() for name in header]
            rows = list(reader)

        # Column index within its group -> position in the header.
        groups = {g.upper(): {} for g in (*GROUPS, "y")}
        for col, name in enumerate(header):
            prefix = name[:1].upper()
            suffix = name[1:]
            if prefix not in groups or (suffix and not suffix.isdigit()):
                raise SchemaError(f"{path}: unknown column {name!r}")
            index = int(suffix) if suffix else 1
            if index in groups[prefix]:
                raise SchemaError(
                    f"{path}: repeated column {name!r} (same as "
                    f"{header[groups[prefix][index]]!r})")
            groups[prefix][index] = col
        for key in groups:
            if key != "X" and not groups[key]:
                raise SchemaError(f"{path}: missing column group {key!r}")

        data = _parse_rows(path, header, rows)

        def block(key):
            cols = [c for _, c in sorted(groups[key].items())]
            return data[:, cols]

        y = block("Y")
        if y.shape[1] != 1:
            raise SchemaError(f"{path}: expected a single Y column")
        return cls(*(block(g.upper()) for g in GROUPS), y=y[:, 0])


@dataclass(frozen=True)
class DoCurve:
    """Estimated (and optionally true) interventional means over a grid
    of treatment values."""

    grid: np.ndarray
    estimate: np.ndarray
    truth: np.ndarray | None = field(default=None)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).ravel()
        est = np.asarray(self.estimate, dtype=float).ravel()
        if grid.shape != est.shape:
            raise ValueError("grid and estimate lengths differ")
        if not (np.isfinite(grid).all() and np.isfinite(est).all()):
            raise ValueError("DoCurve values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "estimate", est)
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=float).ravel()
            if truth.shape != grid.shape:
                raise ValueError("truth length differs from grid")
            if not np.isfinite(truth).all():
                raise ValueError("DoCurve truth must be finite")
            object.__setattr__(self, "truth", truth)
