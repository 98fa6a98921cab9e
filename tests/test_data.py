import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import fednb.data
from fednb.cli import main
from fednb.data import (
    ROW_BLOCK,
    CategoryMap,
    Dataset,
    FeatureSchema,
    SynthSpec,
    load_csv,
    narrowest_uint,
    synth_generate,
)
from fednb.errors import LabelError, ParseError, SchemaError, ShapeError, SynthSpecError
from fednb.evaluation import f1_macro
from fednb.local_model import column_mean_var, degrade_copy, fit_hybrid, joint_log_scores_batch

SCHEMA = FeatureSchema((("proto", "categorical"), ("dur", "numerical"), ("label", "label")), 2)
LABEL_NAMES = ("benign", "attack")


def write_csv(ds, path, label_names=LABEL_NAMES):
    """Write ds as text: categorical code c becomes "v<c>" and label i becomes label_names[i]."""
    schema = ds.schema
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*schema.categorical_names, *schema.numerical_names, schema.label_name])
        for cat, num, label in zip(ds.categorical, ds.numerical, ds.labels):
            writer.writerow([*(f"v{c}" for c in cat), *(repr(float(x)) for x in num), label_names[label]])


def text_map(ds, label_names=LABEL_NAMES) -> CategoryMap:
    """The CategoryMap that reads write_csv's text back to ds's codes."""
    return CategoryMap(tuple({f"v{c}": c for c in range(n)} for n in ds.n_cats), label_names)


def _write(tmp_path, rows, header="proto,dur,label"):
    p = tmp_path / "data.csv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return p


def test_first_seen_category_codes(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,a", "udp,2.0,b", "tcp,3.0,a"])
    ds, cmap = load_csv(p, SCHEMA)
    assert cmap.n_cats == (2,)
    assert ds.categorical[:, 0].tolist() == [0, 1, 0]


def test_unseen_value_gets_ood_code(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,a", "udp,2.0,b", "tcp,3.0,a"])
    _, cmap = load_csv(p, SCHEMA)
    p2 = _write(tmp_path, ["icmp,4.0,a"])
    ds2, _ = load_csv(p2, SCHEMA, cmap)
    assert ds2.categorical[0, 0] == 2  # == n_cats


def test_parse_error_names_row(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,a", "udp,abc,b", "tcp,3.0,a"])
    with pytest.raises(ParseError, match="row 1"):
        load_csv(p, SCHEMA)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_value_names_row_and_column(tmp_path, cell):
    p = _write(tmp_path, ["tcp,1.0,a", "udp,2.0,b", f"tcp,{cell},a"])
    with pytest.raises(ParseError, match=f"row 2, column 'dur': not finite: '{cell}'"):
        load_csv(p, SCHEMA)


def test_header_mismatch(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,a"], header="protocol,dur,label")
    with pytest.raises(SchemaError):
        load_csv(p, SCHEMA)


def test_header_repeating_a_column_is_a_schema_error(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,2.0,a", "udp,3.0,4.0,b"], header="proto,dur,dur,label")
    with pytest.raises(SchemaError, match="repeats column 'dur'"):
        load_csv(p, SCHEMA)


@pytest.mark.parametrize("header", [" proto, dur, label", "proto , dur,label "], ids=["after", "around"])
def test_header_names_match_after_stripping_their_spaces(tmp_path, header):
    """CIC-IDS2017's headers put a space after each comma."""
    rows = ["tcp,1.0,a", "udp,2.0,b", "tcp,3.0,a"]
    want, want_map = load_csv(_write(tmp_path, rows), SCHEMA)
    got, got_map = load_csv(_write(tmp_path, rows, header=header), SCHEMA)
    assert got_map == want_map and got.schema == want.schema and got.n_cats == want.n_cats
    for name in ("categorical", "numerical", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_a_header_name_repeated_after_stripping_is_a_schema_error(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,2.0,a", "udp,3.0,4.0,b"], header="proto,dur, dur,label")
    with pytest.raises(SchemaError, match="repeats column 'dur'"):
        load_csv(p, SCHEMA)


def test_unknown_label_with_fixed_map(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,a", "udp,2.0,b", "udp,2.5,b"])
    _, cmap = load_csv(p, SCHEMA)
    p2 = _write(tmp_path, ["tcp,1.0,a", "tcp,1.0,zzz", "udp,2.0,zzz"])
    with pytest.raises(LabelError) as info:
        load_csv(p2, SCHEMA, cmap)
    assert str(info.value) == f"{p2}: row 1: unknown label value 'zzz'"


def test_labels_sorted_by_raw_value(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,b", "udp,2.0,a", "tcp,3.0,b"])
    ds, cmap = load_csv(p, SCHEMA)
    assert cmap.label_values == ("a", "b")
    assert ds.labels.tolist() == [1, 0, 1]


def test_encoding_with_fixed_map_is_pure(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,a", "udp,2.0,b"])
    _, cmap = load_csv(p, SCHEMA)
    assert cmap.encode(0, "udp") == cmap.encode(0, "udp") == 1
    assert cmap.encode(0, "other") == 2


def test_csv_round_trip(tmp_path):
    spec = SynthSpec(50, 2, 2, 2, (0.0,), n_categories=3)
    ds = synth_generate(spec, 7)
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back, _ = load_csv(path, ds.schema, text_map(ds))
    assert np.array_equal(back.categorical, ds.categorical)
    assert np.array_equal(back.numerical, ds.numerical)
    assert np.array_equal(back.labels, ds.labels)


def test_synth_deterministic():
    spec = SynthSpec(3000, 2, 1, 2, (0.0, 0.1, 0.3))
    a = synth_generate(spec, 42)
    b = synth_generate(spec, 42)
    assert np.array_equal(a.categorical, b.categorical)
    assert np.array_equal(a.numerical, b.numerical)
    assert np.array_equal(a.labels, b.labels)
    c = synth_generate(spec, 43)
    assert not np.array_equal(a.numerical, c.numerical)


def test_synth_separable_classes_perfectly_learnable():
    # 6+ std devs between class means -> Bayes error ~ 0
    spec = SynthSpec(2000, 2, 0, 2, (0.0, 0.0, 0.0), class_sep=6.0)
    ds = synth_generate(spec, 1)
    model = fit_hybrid(ds)
    assert f1_macro(ds.labels, joint_log_scores_batch(model, ds).argmax(axis=1), 2) == 1.0


def test_synth_spec_validation():
    with pytest.raises(SynthSpecError):
        SynthSpec(100, 1, 1, 1, (0.0,))
    with pytest.raises(SynthSpecError):
        SynthSpec(0, 2, 1, 1, (0.0,))
    with pytest.raises(SynthSpecError):
        SynthSpec(100, 2, 1, 1, (1.5,))
    with pytest.raises(SynthSpecError, match="n_rows 8 must be >= 3 \\* n_classes = 9"):
        SynthSpec(8, 3, 1, 1, (0.0,))  # the smallest class would have 2 rows to split three ways
    SynthSpec(9, 3, 1, 1, (0.0,))


def _columns_on_scales(n, f, seed):
    """(n, f) values whose columns sit on scales from 1e-2 to 1e6, with offsets."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-2, 6, f)
    return rng.normal(size=(n, f)) * scale + rng.uniform(-3, 3, f) * scale


@pytest.mark.parametrize("f", [*range(1, 41), 130])
def test_column_sums_equal_the_axis0_reduction_bitwise(f, monkeypatch):
    """column_mean_var's carried row-block sums give the floats of numpy's
    axis-0 mean and var of z = (x - shift) / scale and of its rows of each of
    two classes: the raw columns (shift 0, scale 1) of labels sorted by class,
    so that a class is absent from a block, in row-major and column-major x,
    and standardized columns of interleaved labels. n runs below, at and past
    the default block size, with a last block of one row, and over blocks of
    999 rows to a last block of neither."""
    rng = np.random.default_rng(f)
    raw = np.zeros((f, 1)), np.ones((f, 1))
    negative_zeros = np.full((7, f), -0.0)  # numpy starts each sum from +0.0
    _assert_column_moments(negative_zeros, *raw, np.zeros(7, np.uint8))
    default = fednb.data.ROW_BLOCK
    for block, sizes in ((default, (1, 7, default, 2 * default + 1)), (999, (999, 2 * 999 + 1, 2500))):
        monkeypatch.setattr(fednb.data, "ROW_BLOCK", block)
        for n in sizes:
            x = _columns_on_scales(n, f, seed=n + f)
            labels = (np.arange(n) >= n // 3).astype(np.uint8)
            _assert_column_moments(x, *raw, labels)
            _assert_column_moments(np.asfortranarray(x), *raw, labels)
            spread = np.abs(x).max(axis=0)[:, None] + 1.0
            shift, scale = rng.uniform(-1, 1, (f, 1)) * spread, rng.uniform(0.1, 10, (f, 1)) * spread
            _assert_column_moments(x, shift, scale, rng.permutation(labels))


def _assert_column_moments(x, shift, scale, labels):
    """column_mean_var's floats are numpy's of a C-ordered z, whatever x's
    layout (numpy sums a column-major array pairwise), for x itself and for
    x's rows read through shuffled positions in a larger array."""
    z = np.ascontiguousarray((x - shift.T) / scale.T)
    classes = np.unique(labels).tolist()
    by_class = [(z[labels == c].mean(axis=0), z[labels == c].var(axis=0)) for c in classes]
    want = [b.tobytes() for b in (z.mean(axis=0), z.var(axis=0), *(np.array(m).reshape(len(classes), -1) for m in zip(*by_class)))]
    got = column_mean_var(x, None, shift, scale, labels, classes)
    assert [a.tobytes() for a in got] == want, (x.shape, fednb.data.ROW_BLOCK)
    n = len(x)
    rows = np.random.default_rng(n).permutation(n + 2)[:n]
    pool, pool_labels = np.zeros((n + 2, x.shape[1])), np.zeros(n + 2, labels.dtype)
    pool[rows], pool_labels[rows] = x, labels
    got = column_mean_var(pool, rows, shift, scale, pool_labels, classes)
    assert [a.tobytes() for a in got] == want, (x.shape, fednb.data.ROW_BLOCK)


def _degraded_numerical(ds, noise, seed):
    """degrade_copy's numerical columns as first written: a copy, plus noise
    drawn by Generator.normal at noise times the numpy std."""
    num = ds.numerical.copy()
    std = num.std(axis=0)
    std[std == 0.0] = 1.0
    rng = np.random.default_rng(seed)  # the label flips' draws, then the noise
    flip = rng.random(ds.n_rows) < noise
    rng.integers(1, ds.schema.n_classes, size=int(flip.sum()))
    return num + rng.normal(0.0, noise * std, size=num.shape)


@pytest.mark.parametrize("n_num", [1, 4, 7])
def test_degrade_copy_scales_the_noise_by_the_numpy_std_bitwise(n_num):
    ds = synth_generate(SynthSpec(3000, 2, 1, n_num, (0.0,)), 3)
    num = ds.numerical.copy()
    num[:, -1] = 7.0  # zero spread: noise at unit scale
    ds = Dataset(ds.schema, ds.categorical, num, ds.labels, ds.n_cats)
    assert degrade_copy(ds, range(ds.n_rows), 0.25, 5).numerical.tobytes() == _degraded_numerical(ds, 0.25, 5).tobytes()


@pytest.mark.parametrize("n_num", [1, 3])
def test_degrade_copy_in_one_buffer_keeps_the_floats_on_one_column_and_on_negative_zeros(n_num):
    ds = synth_generate(SynthSpec(3000, 3, 1, n_num, (0.0,)), 4)
    num = ds.numerical.copy()
    num[::5, 0] = -0.0  # -0.0 among spread values
    if n_num > 1:
        num[:, 1] = -0.0  # a column of -0.0 only: zero spread
    ds = Dataset(ds.schema, ds.categorical, num, ds.labels, ds.n_cats)
    for noise, seed in ((0.25, 5), (0.9, 6)):
        want = _degraded_numerical(ds, noise, seed)
        assert degrade_copy(ds, range(ds.n_rows), noise, seed).numerical.tobytes() == want.tobytes()
    fortran = Dataset(ds.schema, ds.categorical, np.asfortranarray(num), ds.labels, ds.n_cats)
    assert degrade_copy(fortran, range(ds.n_rows), 0.25, 5).numerical.tobytes() == _degraded_numerical(ds, 0.25, 5).tobytes()


def test_degrade_copy_keeps_a_zero_row_dataset_at_noise():
    ds = synth_generate(SynthSpec(200, 2, 1, 3, (0.0,)), 3).subset([])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no column statistics of zero rows
        out = degrade_copy(ds, range(ds.n_rows), 0.3, 99)
    assert out.n_rows == 0 and out.numerical.shape == (0, 3) and out.labels.dtype == ds.labels.dtype


def test_degrade_copy_zero_noise_is_identity():
    ds = synth_generate(SynthSpec(200, 2, 1, 1, (0.0,)), 3)
    out = degrade_copy(ds, range(ds.n_rows), 0.0, 99)
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.numerical, ds.numerical)


def test_degrade_copy_flips_labels_and_perturbs():
    ds = synth_generate(SynthSpec(2000, 2, 1, 1, (0.0,)), 3)
    out = degrade_copy(ds, range(ds.n_rows), 0.3, 99)
    flip_rate = (out.labels != ds.labels).mean()
    assert 0.2 < flip_rate < 0.4
    assert not np.array_equal(out.numerical, ds.numerical)


def test_dataset_row_count_mismatch():
    with pytest.raises(SchemaError):
        Dataset(
            SCHEMA,
            np.zeros((3, 1), dtype=np.int64),
            np.zeros((2, 1)),
            np.zeros(3, dtype=np.int64),
            (2,),
        )


@pytest.mark.parametrize("n_cats", [(), (2, 2)])
def test_dataset_refuses_arities_that_miss_a_categorical_column(n_cats):
    cat, num, labels = np.zeros((3, 1), dtype=np.int64), np.zeros((3, 1)), np.zeros(3, dtype=np.int64)
    with pytest.raises(SchemaError, match=f"{len(n_cats)} category arities for 1 categorical columns"):
        Dataset(SCHEMA, cat, num, labels, n_cats)


CSV_CFG = """\
[experiment]
name = csv-test
seed = 3
alphas = 0.10, 1.00
reps = 1
proposals = C, B, E, A

[csv]
path = data.csv
schema = schema.cfg

[profiles]
Financial = 4, 0.82, 0.12, 3.2
Health = 3, 0.70, 0.25, 5.1
Government = 2, 0.55, 0.40, 6.8
"""

CSV_SCHEMA = """\
[schema]
n_classes = 2

[columns]
cat0 = categorical
cat1 = categorical
num0 = numerical
num1 = numerical
label = label
"""


def _csv_config(tmp_path, n_classes=2):
    """Write CSV_CFG and its schema next to tmp_path/data.csv; returns the config path."""
    (tmp_path / "schema.cfg").write_text(CSV_SCHEMA.replace("n_classes = 2", f"n_classes = {n_classes}"))
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(CSV_CFG)
    return cfg


def test_csv_source_runs_the_grid_end_to_end(tmp_path):
    write_csv(synth_generate(SynthSpec(900, 2, 2, 2, (0.0,), n_categories=3), 5), tmp_path / "data.csv")
    cfg = _csv_config(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run-grid", "--config", str(cfg), "--out", str(first)]) == 0
    assert "15/15 passed" in (first / "verification.txt").read_text()
    assert main(["verify", "--results", str(first)]) == 0
    assert main(["emit-plots", "--results", str(first), "--out", str(tmp_path / "plots")]) == 0
    for plot in (first / "plots").iterdir():
        assert (tmp_path / "plots" / plot.name).read_bytes() == plot.read_bytes()
    assert main(["run-grid", "--config", str(cfg), "--out", str(second)]) == 0
    assert (second / "results.csv").read_bytes() == (first / "results.csv").read_bytes()


def test_emit_plots_needs_no_dataset_file(tmp_path):
    write_csv(synth_generate(SynthSpec(900, 2, 2, 2, (0.0,), n_categories=3), 5), tmp_path / "data.csv")
    out = tmp_path / "out"
    assert main(["run-grid", "--config", str(_csv_config(tmp_path)), "--out", str(out)]) == 0
    (tmp_path / "data.csv").unlink()
    assert main(["emit-plots", "--results", str(out), "--out", str(tmp_path / "plots")]) == 0
    assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == sorted(p.name for p in (out / "plots").iterdir())
    for plot in (out / "plots").iterdir():
        assert (tmp_path / "plots" / plot.name).read_bytes() == plot.read_bytes(), plot.name


def test_csv_header_without_data_rows_exits_1_naming_the_file(tmp_path, capsys):
    (tmp_path / "data.csv").write_text("cat0,cat1,num0,num1,label\n")
    cfg = _csv_config(tmp_path)
    assert main(["run-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'data.csv'}: no data rows\n"


def test_a_dataset_csv_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys):
    write_csv(synth_generate(SynthSpec(900, 2, 2, 2, (0.0,), n_categories=3), 5), tmp_path / "data.csv")
    with open(tmp_path / "data.csv", "ab") as fh:
        fh.write(b"\xff")
    cfg = _csv_config(tmp_path)
    assert main(["run-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'data.csv'}: not UTF-8: ") and err.count("\n") == 1


def test_count_matrices_keep_a_column_for_each_class_the_data_lack(tmp_path, capsys):
    write_csv(synth_generate(SynthSpec(900, 2, 2, 2, (0.0,), n_categories=3), 5), tmp_path / "data.csv")
    cfg = _csv_config(tmp_path, n_classes=3)
    out = tmp_path / "out"
    assert main(["run-grid", "--config", str(cfg), "--out", str(out)]) == 0
    cells = json.loads((out / "grid.json").read_text())["cells"]
    assert [(cell["alpha_index"], cell["rep"]) for cell in cells] == [(0, 0), (1, 0)]
    for counts in (cell["counts"] for cell in cells):
        assert len(counts) == 3 and all(len(row) == 3 and row[2] == 0 for row in counts)
    capsys.readouterr()
    assert main(["partition", "--config", str(cfg), "--alpha", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "node\tsize\tclass_0\tclass_1\tclass_2"
    assert [ln.split("\t")[-1] for ln in lines[1:4]] == ["0", "0", "0"]


def test_subset_refuses_a_boolean_mask():
    ds = synth_generate(SynthSpec(50, 2, 1, 1, (0.0,)), 3)
    with pytest.raises(ShapeError, match="dtype bool"):
        ds.subset(ds.labels == 1)


@pytest.mark.parametrize("indices", [[], [4, 0, 4, 49], np.arange(49, 0, -3), np.array([], dtype=np.int64)])
def test_subset_equals_fancy_indexing_bitwise(indices):
    ds = synth_generate(SynthSpec(50, 3, 2, 2, (0.0,)), 3)
    got = ds.subset(indices)
    idx = np.asarray(indices, dtype=np.int64)
    for name in ("categorical", "numerical", "labels"):
        a, want = getattr(got, name), getattr(ds, name)[idx]
        assert a.dtype == want.dtype and a.shape == want.shape and np.array_equal(a, want), name
        assert a.flags.c_contiguous, name


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_degrade_copy_never_writes_into_its_input(noise):
    ds = synth_generate(SynthSpec(500, 3, 2, 2, (0.0,)), 5)
    arrays = (ds.categorical, ds.numerical, ds.labels)
    before = [a.copy() for a in arrays]
    for a in arrays:
        a.flags.writeable = False  # any write into them raises
    out = degrade_copy(ds, range(ds.n_rows), noise, 11)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert np.array_equal(out.categorical, ds.categorical)


def test_storage_dtype_is_the_narrowest_unsigned_that_holds_the_largest_value():
    # codes: the largest is the OOD code n_cats, so 255 categories still fit in uint8
    assert narrowest_uint(255) == np.uint8 and narrowest_uint(256) == np.uint16
    # labels: the largest is n_classes - 1
    assert narrowest_uint(256 - 1) == np.uint8 and narrowest_uint(257 - 1) == np.uint16
    assert narrowest_uint(0) == np.uint8
    assert narrowest_uint(65535) == np.uint16 and narrowest_uint(65536) == np.uint32


def _synth_int64(spec, seed):
    """synth_generate with int64 codes and labels, step for step, each column
    drawn whole: the oracle of its row-blocked draws."""
    rng = np.random.default_rng(seed)
    n, c, m = spec.n_rows, spec.n_classes, spec.n_categories
    labels = np.arange(n, dtype=np.int64) % c
    rng.shuffle(labels)
    num = np.empty((n, spec.n_numerical))
    for j in range(spec.n_numerical):
        num[:, j] = rng.normal(loc=spec.class_sep * np.arange(c, dtype=np.float64)[labels], scale=1.0)
    cat = np.empty((n, spec.n_categorical), dtype=np.int64)
    for j in range(spec.n_categorical):
        for cls in range(c):
            mask = labels == cls
            probs = np.full(m, 0.45 / (m - 1))
            probs[(cls + j) % m] = 0.55
            cat[mask, j] = rng.choice(m, size=int(mask.sum()), p=probs)
    return cat, num, labels


@pytest.mark.parametrize(
    "spec, code_dtype, label_dtype",
    [
        (SynthSpec(3000, 2, 3, 2, (0.0,)), np.uint8, np.uint8),
        (SynthSpec(1500, 3, 2, 1, (0.0,), n_categories=255), np.uint8, np.uint8),  # OOD code 255
        (SynthSpec(1500, 256, 2, 1, (0.0,), n_categories=256), np.uint16, np.uint8),  # label 255
        # 257 classes: an arange in uint8 would wrap the labels
        (SynthSpec(1542, 257, 1, 2, (0.0,), n_categories=3), np.uint8, np.uint16),
    ],
)
def test_synth_stores_narrow_codes_and_labels_with_the_int64_values(spec, code_dtype, label_dtype):
    ds = synth_generate(spec, 11)
    cat, num, labels = _synth_int64(spec, 11)
    assert ds.categorical.dtype == code_dtype and ds.labels.dtype == label_dtype
    assert ds.categorical.astype(np.int64).tobytes() == cat.tobytes()
    assert ds.labels.astype(np.int64).tobytes() == labels.tobytes()
    assert ds.numerical.tobytes() == num.tobytes()


@pytest.mark.parametrize("c", [2, 15])
@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 20000])
def test_synth_drawn_in_row_blocks_equals_the_whole_column_draws_bitwise(n, c):
    spec = SynthSpec(max(n, 3 * c), c, 2, 3, (0.0,))
    # SynthSpec refuses n < 3c, whose classes could not be split three ways; the draws hold at any n
    object.__setattr__(spec, "n_rows", n)
    ds = synth_generate(spec, n)
    cat, num, labels = _synth_int64(spec, n)
    assert ds.categorical.dtype == ds.labels.dtype == np.uint8 and ds.numerical.shape == (n, 3)
    assert ds.categorical.astype(np.int64).tobytes() == cat.tobytes()
    assert ds.labels.astype(np.int64).tobytes() == labels.tobytes()
    assert ds.numerical.tobytes() == num.tobytes()


@pytest.mark.parametrize("blocks", [5, 25])
def test_synth_generate_peaks_a_few_row_blocks_above_its_dataset(blocks):
    """Drawn block by block, the build's scratch is about ten bytes per row
    of a block whatever n is; drawn whole, the labels' int64 arange and its
    modulo alone took sixteen bytes per row of the dataset."""
    spec = SynthSpec(blocks * ROW_BLOCK, 2, 2, 3, (0.0,))
    synth_generate(SynthSpec(600, 2, 2, 3, (0.0,)), 1)  # numpy's lazy imports and caches, outside the trace
    tracemalloc.start()
    try:
        ds = synth_generate(spec, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = peak - (ds.categorical.nbytes + ds.numerical.nbytes + ds.labels.nbytes)
    assert scratch < 32 * ROW_BLOCK, scratch / ROW_BLOCK


def test_load_csv_peaks_near_its_dataset(tmp_path):
    """Read in one pass into typed buffers, the load holds beside the finished
    arrays only each code and label staged as int64 (8 bytes), the float
    buffer's growth room (a sixteenth) and a fixed 64 KiB for the reader.
    Kept as Python lists of strings and floats, the rows took about 570 bytes
    each here."""
    spec = SynthSpec(4000, 2, 2, 6, (0.0,), n_categories=3)
    write_csv(synth_generate(spec, 5), tmp_path / "data.csv")
    load_csv(tmp_path / "data.csv", spec.schema())  # lazy imports and caches, outside the trace
    tracemalloc.start()
    try:
        ds, _ = load_csv(tmp_path / "data.csv", spec.schema())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    staged = 8 * (ds.categorical.size + ds.labels.size)
    slack = staged + ds.numerical.nbytes // 16 + 64 * 1024
    assert peak - (ds.categorical.nbytes + ds.numerical.nbytes + ds.labels.nbytes) <= slack


def _encoded_int64(path, schema, cmap):
    """The codes and labels of a CSV file by CategoryMap.encode, as int64."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cat = [[cmap.encode(j, row[name]) for j, name in enumerate(schema.categorical_names)] for row in rows]
    labels = [cmap.label_values.index(row[schema.label_name]) for row in rows]
    return np.array(cat, dtype=np.int64).reshape(len(rows), -1), np.array(labels, dtype=np.int64)


@pytest.mark.parametrize("n_categories, code_dtype", [(3, np.uint8), (300, np.uint16)])
def test_load_csv_stores_narrow_codes_and_labels_with_the_int64_values(tmp_path, n_categories, code_dtype):
    written = synth_generate(SynthSpec(3000, 2, 2, 2, (0.0,), n_categories=n_categories), 5)
    write_csv(written, tmp_path / "data.csv")
    schema = written.schema  # the columns of CSV_SCHEMA
    built, cmap = load_csv(tmp_path / "data.csv", schema)
    # a fixed map that knows two values per column: every other value gets the OOD code 2
    fixed = CategoryMap(tuple({"v0": 0, "v1": 1} for _ in range(2)), LABEL_NAMES)
    ood, _ = load_csv(tmp_path / "data.csv", schema, fixed)
    assert (ood.categorical == 2).any() and (max(cmap.n_cats) >= 256) == (code_dtype == np.uint16)
    for ds, m, want_codes in ((built, cmap, code_dtype), (ood, fixed, np.uint8)):
        cat, labels = _encoded_int64(tmp_path / "data.csv", schema, m)
        assert ds.categorical.dtype == want_codes and ds.labels.dtype == np.uint8
        assert ds.categorical.astype(np.int64).tobytes() == cat.tobytes()
        assert ds.labels.astype(np.int64).tobytes() == labels.tobytes()


def test_a_fixed_map_label_past_the_label_dtype_is_a_label_error_naming_the_row(tmp_path):
    names = tuple(f"l{i}" for i in range(300))
    p = _write(tmp_path, ["tcp,1.0,l0", "udp,2.0,l1", "tcp,3.0,l299"])
    with pytest.raises(LabelError, match=r"row 2: label 'l299' outside \[0, n_classes=2\)"):
        load_csv(p, SCHEMA, CategoryMap(({"tcp": 0, "udp": 1},), names))


@pytest.mark.parametrize("n_classes", [3, 255, 256])
def test_degraded_labels_equal_the_int64_build_at_the_top_class(n_classes):
    ds = synth_generate(SynthSpec(40 * n_classes, n_classes, 1, 1, (0.0,)), 2)
    wide = Dataset(ds.schema, ds.categorical.astype(np.int64), ds.numerical, ds.labels.astype(np.int64), ds.n_cats)
    got, want = degrade_copy(ds, range(ds.n_rows), 0.5, 9), degrade_copy(wide, range(ds.n_rows), 0.5, 9)
    assert got.labels.dtype == ds.labels.dtype == np.uint8 and want.labels.dtype == np.int64
    assert got.labels.astype(np.int64).tobytes() == want.labels.tobytes()
    assert got.numerical.tobytes() == want.numerical.tobytes()
    flipped = got.labels != ds.labels
    top = n_classes - 1  # 255 at 256 classes: the top code of uint8
    # flips both from and onto the top class; from it, label + shift passes n_classes
    assert (ds.labels[flipped] == top).any() and (got.labels[flipped] == top).any()
