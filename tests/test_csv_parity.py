"""The one-pass CSV loader against the three-pass loader it replaced.

reference_load_csv is that loader as it stood, kept here as the oracle: it
held every row as Python lists before it built the category map and encoded
the rows. On generated files (quoted fields, CRLF line endings, categories
first seen late, the label column anywhere, no categorical or no numerical
columns, a supplied map with out-of-distribution values, and cells corrupted
at random rows) load_csv must return the same array bytes, dtypes and shapes
and the same CategoryMap, or raise the same error class with the same
message. The one message that differs on purpose is the unknown label's,
which now names the file and the row.
"""

import csv
import io
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fednb.data import CategoryMap, Dataset, FeatureSchema, load_csv, narrowest_uint, utf8_lines  # noqa: E402
from fednb.errors import LabelError, ParseError, SchemaError  # noqa: E402


def reference_load_csv(path, schema, category_map=None):
    """The three-pass loader, verbatim but for CategoryMap.encode_label, which
    it called and which is inlined here."""

    def encode_label(raw):
        try:
            return category_map.label_values.index(raw)
        except ValueError:
            raise LabelError(f"unknown label value {raw!r}") from None

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(utf8_lines(fh, path))
        try:
            header = [name.strip() for name in next(reader)]
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
    codes = [encode_label(r) for r in raw_labels]
    i = codes.index(max(codes))  # a supplied map may know more labels than n_classes
    if codes[i] >= schema.n_classes:
        raise LabelError(f"{path}: row {i}: label {raw_labels[i]!r} outside [0, n_classes={schema.n_classes})")
    labels = np.array(codes, dtype=narrowest_uint(schema.n_classes - 1))
    ds = Dataset(schema, cat, num, labels, category_map.n_cats)
    return ds, category_map


def _outcome(load, path, schema, category_map):
    """(dataset, map) or (error class, message)."""
    try:
        return load(path, schema, category_map)
    except (ParseError, SchemaError, LabelError) as exc:
        return type(exc), str(exc)


def assert_same_as_the_reference(path, schema, category_map=None):
    """load_csv's outcome equals reference_load_csv's: the same arrays to the
    byte, dtype and shape and the same map, or the same error."""
    got = _outcome(load_csv, path, schema, category_map)  # first: a map it changed would change the reference's
    want = _outcome(reference_load_csv, path, schema, category_map)
    if isinstance(want[0], type):
        cls, message = want
        if message.startswith("unknown label value "):  # unplaced in the reference; now file and first row
            message = f"{path}: row {_first_unknown_label_row(path, schema, category_map)}: {message}"
        assert got == (cls, message)
        return want
    assert isinstance(got[0], Dataset), got
    (ds, cmap), (ref, ref_map) = got, want
    assert cmap == ref_map and [list(m) for m in cmap.mappings] == [list(m) for m in ref_map.mappings]
    assert ds.schema == ref.schema and ds.n_cats == ref.n_cats
    for name in ("categorical", "numerical", "labels"):
        a, b = getattr(ds, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), name
    return want


def _first_unknown_label_row(path, schema, category_map):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return next(i for i, row in enumerate(rows) if row[schema.label_name] not in category_map.label_values)


# Category texts a quoting writer must quote (commas, quotes, line breaks) or
# that are easy to confuse (empty, spaced, case).
CATEGORY_TEXTS = ("tcp", "udp", "a,b", 'say "hi"', "", " tcp", "TCP", "two\nlines", "é")
# Numerical cells float() reads the same in both loaders, beside generated floats.
NUMBER_TEXTS = ("-0.0", "1e3", " 2.5 ", "1_000", "+7", ".5", "0")
LABEL_TEXTS = ("normal", "dos", "a,b", "z", "")
# What a corrupted cell becomes; the field-count cases drop or add a field.
BAD_NUMBERS = ("abc", "nan", "inf", "-inf", "", "0x1p3", "1e999")


@st.composite
def csv_files(draw):
    """(text, schema, supplied map or None)."""
    n_cat = draw(st.integers(0, 3))
    n_num = draw(st.integers(0 if n_cat else 1, 3))
    columns = [(f"c{j}", "categorical") for j in range(n_cat)] + [(f"x{j}", "numerical") for j in range(n_num)]
    columns = draw(st.permutations([*columns, ("y", "label")]))  # the label column anywhere
    n_rows = draw(st.integers(0, 25))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr), st.sampled_from(NUMBER_TEXTS)
    )
    cell = {"categorical": st.sampled_from(CATEGORY_TEXTS), "numerical": number, "label": st.sampled_from(LABEL_TEXTS)}
    rows = [[draw(cell[kind]) for _, kind in columns] for _ in range(n_rows)]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):  # corrupt a cell or a row's field count
        if not rows:
            break
        row = rows[draw(st.integers(0, n_rows - 1))]
        how = draw(st.sampled_from(("number", "drop", "add")))
        nums = [j for j, (_, kind) in enumerate(columns) if kind == "numerical" and j < len(row)]
        if how == "number" and nums:
            row[draw(st.sampled_from(nums))] = draw(st.sampled_from(BAD_NUMBERS))
        elif how == "drop":
            row.pop()
        elif how == "add":
            row.append("extra")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
    writer.writerow([name for name, _ in columns])
    writer.writerows(rows)
    present = sorted({row[columns.index(("y", "label"))] for row in rows if len(row) == len(columns)})
    schema = FeatureSchema(tuple(columns), draw(st.integers(max(2, len(present) - 1), max(2, len(present) + 1))))
    category_map = None
    if draw(st.booleans()):  # a supplied map: some texts unknown (OOD), labels maybe unknown or past n_classes
        known = st.lists(st.sampled_from(CATEGORY_TEXTS), unique=True, max_size=4)
        mappings = tuple({raw: code for code, raw in enumerate(draw(known))} for _ in range(n_cat))
        absent = draw(st.permutations([v for v in LABEL_TEXTS if v not in present]))
        label_values = draw(st.permutations(present)) + absent[: draw(st.integers(0, 2))]
        if present and draw(st.integers(0, 3)) == 0:  # a label the map does not know
            label_values.remove(draw(st.sampled_from(present)))
        category_map = CategoryMap(mappings, tuple(label_values))
    return out.getvalue(), schema, category_map


@settings(max_examples=300, deadline=None, database=None)
@given(case=csv_files())
def test_generated_files_load_as_the_reference_loads_them(case, tmp_path_factory):
    text, schema, category_map = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_as_the_reference(path, schema, category_map)


SCHEMA = FeatureSchema((("proto", "categorical"), ("dur", "numerical"), ("label", "label")), 2)
GOOD = "proto,dur,label\ntcp,1.0,a\nudp,2.0,b\n"


@pytest.mark.parametrize(
    "text, category_map, error",
    [
        ("", None, ParseError),  # empty file
        ("proto,dur,dur,label\ntcp,1,2,a\n", None, SchemaError),  # repeated header
        ("protocol,dur,label\ntcp,1,a\n", None, SchemaError),  # header mismatch
        (GOOD + "tcp,1.0\n", None, ParseError),  # wrong field count
        (GOOD + "tcp,abc,a\n", None, ParseError),  # not numeric
        (GOOD + "tcp,inf,a\n", None, ParseError),  # not finite
        ("proto,dur,label\n", None, ParseError),  # no data rows
        ("proto,dur,label\n", CategoryMap(({"tcp": 0},), ("a", "b")), ParseError),  # no data rows, a supplied map
        (GOOD + "tcp,3.0,c\n", None, LabelError),  # too many labels
        (GOOD, CategoryMap(({"tcp": 0},), ("b", "c", "a")), LabelError),  # label outside n_classes
        (GOOD + "tcp,3.0,zzz\ntcp,4.0,zzz\n", CategoryMap(({"tcp": 0},), ("a", "b")), LabelError),  # unknown label
        # the errors of a row come before those of a later row, and label errors last
        (GOOD + "tcp,3.0,zzz\nudp,nan,a\n", CategoryMap(({"tcp": 0},), ("a", "b")), ParseError),
        (GOOD + "tcp,abc,a\ntcp,1.0\n", None, ParseError),
    ],
    ids=[
        "empty", "repeated-header", "header-mismatch", "field-count", "not-numeric", "not-finite",
        "no-rows", "no-rows-supplied-map", "too-many-labels", "label-outside-n-classes", "unknown-label", "row-before-label",
        "first-bad-row",
    ],
)
def test_every_error_form_raises_the_reference_class_and_message(tmp_path, text, category_map, error):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    cls, _ = assert_same_as_the_reference(path, SCHEMA, category_map)
    assert cls is error
