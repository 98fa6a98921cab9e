"""Tabular dataset representation, CSV ingestion and synthetic data generation.

A dataset is split by measurement type: categorical columns are stored as
dense integer codes, numerical columns as floats, and there is exactly one
integer label column. Codes and labels are stored in the narrowest unsigned
dtype that holds their largest value (``narrowest_uint``): the largest code
is the OOD code, the largest label ``n_classes - 1``. Categorical codes are
assigned in first-seen order while building a CategoryMap; values unseen by
the map are encoded with the reserved out-of-distribution code ``n_cats``
(one past the last known category).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ParseError, SchemaError, ShapeError, SynthSpecError

KIND_CATEGORICAL = "categorical"
KIND_NUMERICAL = "numerical"
KIND_LABEL = "label"
_KINDS = (KIND_CATEGORICAL, KIND_NUMERICAL, KIND_LABEL)


def narrowest_uint(largest: int) -> np.dtype:
    """The narrowest unsigned integer dtype that holds 0..largest, the storage
    of category codes (largest: the OOD code, max n_cats) and of labels
    (largest: n_classes - 1)."""
    return np.min_scalar_type(largest)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column typing plus the number of label classes."""

    columns: tuple[tuple[str, str], ...]
    n_classes: int

    def __post_init__(self):
        for name, kind in self.columns:
            if kind not in _KINDS:
                raise SchemaError(f"unknown column kind {kind!r} for column {name!r}")
        n_labels = sum(1 for _, k in self.columns if k == KIND_LABEL)
        if n_labels != 1:
            raise SchemaError(f"schema needs exactly one label column, got {n_labels}")
        n_feat = len(self.columns) - 1
        if n_feat < 1:
            raise SchemaError("schema needs at least one feature column")
        if self.n_classes < 2:
            raise SchemaError(f"n_classes must be >= 2, got {self.n_classes}")

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.columns if k == KIND_CATEGORICAL)

    @property
    def numerical_names(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.columns if k == KIND_NUMERICAL)

    @property
    def label_name(self) -> str:
        return next(n for n, k in self.columns if k == KIND_LABEL)


@dataclass
class CategoryMap:
    """Raw-text-to-code mapping for categorical columns, plus the label universe.

    ``load_csv`` builds it from the whole file, before any train/val/test
    split, so a category seen only in test rows still gets a code and counts
    in the arity (the plan is to take the arities from each cell's training
    split instead). ``encode`` maps unknown raw values to the OOD code
    ``n_cats`` for that column.
    """

    mappings: tuple[dict, ...]
    label_values: tuple[str, ...]

    @property
    def n_cats(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.mappings)

    def encode(self, col: int, raw: str) -> int:
        m = self.mappings[col]
        return m.get(raw, len(m))

    def encode_label(self, raw: str) -> int:
        try:
            return self.label_values.index(raw)
        except ValueError:
            raise LabelError(f"unknown label value {raw!r}") from None


@dataclass
class Dataset:
    """Column-typed tabular data with aligned row counts.

    Datasets derived from another (``subset``, ``rows``) may share arrays
    with it, so nothing writes into a Dataset's arrays after it is built;
    code that needs changed values copies them first.

    The loaders store codes and labels in a narrow unsigned dtype (see
    ``narrowest_uint``), and derived datasets keep it. Under numpy 2's
    promotion rules (NEP 50) ``codes + 1`` or ``labels * n`` stays in that
    dtype and wraps past its top value, so code that does arithmetic on them
    first casts them to a wider integer (``astype(np.intp)``) or combines
    them with an int64 array. Indexing, counting and comparing need no cast.
    """

    schema: FeatureSchema
    categorical: np.ndarray  # (n, n_cat_cols) codes, narrowest_uint(max n_cats)
    numerical: np.ndarray  # (n, n_num_cols) float64
    labels: np.ndarray  # (n,) in [0, n_classes), narrowest_uint(n_classes - 1)
    n_cats: tuple[int, ...]  # category arity per categorical column

    def __post_init__(self):
        n = len(self.labels)
        if self.categorical.shape[0] != n or self.numerical.shape[0] != n:
            raise SchemaError("categorical/numerical/label row counts differ")
        n_cat_cols = self.categorical.shape[1]
        if len(self.n_cats) != n_cat_cols:
            raise SchemaError(f"{len(self.n_cats)} category arities for {n_cat_cols} categorical columns")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.schema.n_classes):
            raise LabelError("label outside [0, n_classes)")

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "Dataset":
        """The rows at integer positions ``indices`` (see row_indices), in
        that order, in C-contiguous arrays that may be shared with this
        dataset (see the class docstring)."""
        idx = row_indices(indices)
        return Dataset(
            self.schema,
            self.categorical.take(idx, axis=0),
            self.numerical.take(idx, axis=0),
            self.labels.take(idx),
            self.n_cats,
        )

    def rows(self, lo: int, hi: int) -> "Dataset":
        """Rows lo..hi as views of this dataset's arrays; the dataset itself
        when that is every row."""
        if (lo, hi) == (0, self.n_rows):
            return self
        return Dataset(self.schema, self.categorical[lo:hi], self.numerical[lo:hi], self.labels[lo:hi], self.n_cats)


def row_indices(indices) -> np.ndarray:
    """indices as an int64 array of row positions. A boolean mask is refused:
    read as integers it would select rows 0 and 1."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":  # [] arrives as float64
        raise ShapeError(f"row indices must be integers, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def utf8_lines(fh, path):
    """The lines of fh, a text file opened as UTF-8; bytes that are not
    UTF-8 raise ParseError naming path."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from None


def load_csv(path, schema: FeatureSchema, category_map: CategoryMap | None = None):
    """Read a comma-separated file against a schema.

    Returns (Dataset, CategoryMap). If no map is supplied, one is built from
    the file (first-seen categorical codes, labels sorted by raw value); if
    one is supplied, unseen categorical values get the OOD code and unseen
    labels are an error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise SchemaError(f"{path}: header repeats column {repeated[0]!r}")
        names = [n for n, _ in schema.columns]
        if set(header) != set(names):
            missing = set(names) - set(header)
            extra = set(header) - set(names)
            raise SchemaError(
                f"{path}: header mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        col_of = {name: header.index(name) for name in names}
        cat_names = schema.categorical_names
        num_names = schema.numerical_names
        raw_cat: list[list[str]] = []
        num_rows: list[list[float]] = []
        raw_labels: list[str] = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
            raw_cat.append([row[col_of[n]] for n in cat_names])
            vals = []
            for n in num_names:
                cell = row[col_of[n]]
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i}, column {n!r}: not numeric: {cell!r}"
                    ) from None
                if not math.isfinite(v):
                    raise ParseError(f"{path}: row {i}, column {n!r}: not finite: {cell!r}")
                vals.append(v)
            num_rows.append(vals)
            raw_labels.append(row[col_of[schema.label_name]])
    if not raw_labels:
        raise ParseError(f"{path}: no data rows")

    if category_map is None:
        mappings = []
        for j in range(len(cat_names)):
            m: dict = {}
            for r in raw_cat:
                if r[j] not in m:
                    m[r[j]] = len(m)
            mappings.append(m)
        label_values = tuple(sorted(set(raw_labels)))
        if len(label_values) > schema.n_classes:
            raise LabelError(
                f"{path}: {len(label_values)} distinct labels exceed n_classes={schema.n_classes}"
            )
        category_map = CategoryMap(tuple(mappings), label_values)

    n = len(raw_labels)
    cat = np.zeros((n, len(cat_names)), dtype=narrowest_uint(max(category_map.n_cats, default=0)))
    for i, r in enumerate(raw_cat):
        for j, raw in enumerate(r):
            cat[i, j] = category_map.encode(j, raw)
    num = np.array(num_rows, dtype=np.float64).reshape(n, len(num_names))
    codes = [category_map.encode_label(r) for r in raw_labels]
    i = codes.index(max(codes))  # a supplied map may know more labels than n_classes
    if codes[i] >= schema.n_classes:
        raise LabelError(f"{path}: row {i}: label {raw_labels[i]!r} outside [0, n_classes={schema.n_classes})")
    labels = np.array(codes, dtype=narrowest_uint(schema.n_classes - 1))
    ds = Dataset(schema, cat, num, labels, category_map.n_cats)
    return ds, category_map


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic generator settings with a per-node quality gradient.

    ``node_noise`` is a side channel: the generated dataset itself is clean;
    the experiment runner degrades node-local training copies with
    ``local_model.degrade_copy`` using these levels (label flips + feature
    noise).
    """

    n_rows: int
    n_classes: int
    n_categorical: int
    n_numerical: int
    node_noise: tuple[float, ...]
    n_categories: int = 4
    class_sep: float = 3.0
    name: str = "synthetic"

    def __post_init__(self):
        if self.n_rows < 1:
            raise SynthSpecError("n_rows must be positive")
        if self.n_classes < 2:
            raise SynthSpecError("n_classes must be >= 2")
        if self.n_rows < 3 * self.n_classes:  # the smallest class could not be split three ways
            raise SynthSpecError(f"n_rows {self.n_rows} must be >= 3 * n_classes = {3 * self.n_classes}")
        if self.n_categorical < 0 or self.n_numerical < 0:
            raise SynthSpecError("negative feature counts")
        if self.n_categorical + self.n_numerical < 1:
            raise SynthSpecError("need at least one feature column")
        if self.n_categorical and self.n_categories < 2:
            raise SynthSpecError("n_categories must be >= 2")
        for nz in self.node_noise:
            if not 0.0 <= nz < 1.0:
                raise SynthSpecError(f"noise level {nz} outside [0, 1)")

    def schema(self) -> FeatureSchema:
        cols = [(f"cat{j}", KIND_CATEGORICAL) for j in range(self.n_categorical)]
        cols += [(f"num{j}", KIND_NUMERICAL) for j in range(self.n_numerical)]
        cols.append(("label", KIND_LABEL))
        return FeatureSchema(tuple(cols), self.n_classes)


def synth_generate(spec: SynthSpec, seed: int) -> Dataset:
    """Class-conditional Gaussian + multinomial data, deterministic in (spec, seed).

    Built in row_blocks blocks, so that its scratch is a few blocks of rows
    whatever n: each column's draws come from the generator one block after
    another, in the order (and so with the values) of one whole-column draw.
    """
    rng = np.random.default_rng(seed)
    n, c = spec.n_rows, spec.n_classes
    blocks = row_blocks(n)

    # balanced by construction; cast after the modulo, since an arange in a
    # narrow dtype would wrap
    labels = np.empty(n, dtype=narrowest_uint(c - 1))
    for lo, hi in blocks:
        labels[lo:hi] = np.arange(lo, hi) % c
    rng.shuffle(labels)

    means = spec.class_sep * np.arange(c, dtype=np.float64)
    num = np.empty((n, spec.n_numerical), dtype=np.float64)
    for j in range(spec.n_numerical):
        for lo, hi in blocks:
            num[lo:hi, j] = rng.normal(loc=means[labels[lo:hi]], scale=1.0)

    m = spec.n_categories
    cat = np.empty((n, spec.n_categorical), dtype=narrowest_uint(m))
    for j in range(spec.n_categorical):
        for cls in range(c):  # each class's rows in row order, drawn block by block
            probs = np.full(m, 0.45 / (m - 1))
            probs[(cls + j) % m] = 0.55
            for lo, hi in blocks:
                mask = labels[lo:hi] == cls
                cat[lo:hi, j][mask] = rng.choice(m, size=int(mask.sum()), p=probs)

    return Dataset(spec.schema(), cat, num, labels, (m,) * spec.n_categorical)


ROW_BLOCK = 8192  # rows of a cell's arrays that a kernel works on at once (at least 2)


def row_blocks(n: int, one_column: bool = False) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of the row blocks a kernel works in, in row order:
    ROW_BLOCK rows each, and one (0, 0) block for n = 0. A last block of one
    row joins the block before it: numpy would sum the class or feature axis
    of a one-row slice pairwise, where a wider slice adds it in order. With
    one_column, all n rows are one block, since numpy sums the only column of
    an (n, 1) array pairwise (see row_order_sum)."""
    step = max(n, 1) if one_column else ROW_BLOCK
    bounds = [(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        bounds[-2:] = [(bounds[-2][0], n)]
    return bounds


def row_order_sum(block: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """carry plus the sum of each row of block, an (F, b) array holding F
    columns at b consecutive rows (a row block of an (n, F) array, transposed),
    which the call overwrites. Fed the blocks of row_blocks(n, F == 1) in order
    from carry = zeros(F), it returns the floats of numpy's axis-0 sum of the
    C-contiguous (n, F) array: for F >= 2 each value added in row order onto
    the carried sum (block[:, 0] becomes carry + its first value, then one
    np.add.accumulate), and for F = 1, which comes as one block, numpy's
    pairwise sum. A sum that starts from +0.0 is never -0.0, so a column of
    -0.0 sums to +0.0 as in numpy."""
    if len(block) == 1:
        return carry + np.add.reduce(block, axis=1)
    if block.shape[1]:
        block[:, 0] += carry
        carry = np.add.accumulate(block, axis=1, out=block)[:, -1].copy()
    return carry
