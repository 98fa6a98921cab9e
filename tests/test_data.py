import numpy as np
import pytest

from fednb.data import (
    CategoryMap,
    Dataset,
    FeatureSchema,
    SynthSpec,
    degrade_copy,
    load_csv,
    synth_generate,
    write_csv,
)
from fednb.errors import LabelError, ParseError, SchemaError, SynthSpecError
from fednb.evaluation import f1_macro
from fednb.local_model import fit_hybrid, predict_local

SCHEMA = FeatureSchema((("proto", "categorical"), ("dur", "numerical"), ("label", "label")), 2)


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


def test_unknown_label_with_fixed_map(tmp_path):
    p = _write(tmp_path, ["tcp,1.0,a", "udp,2.0,b", "udp,2.5,b"])
    _, cmap = load_csv(p, SCHEMA)
    p2 = _write(tmp_path, ["tcp,1.0,zzz"])
    with pytest.raises(LabelError):
        load_csv(p2, SCHEMA, cmap)


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
    cmap = CategoryMap.identity(ds.n_cats, 2)
    path = tmp_path / "rt.csv"
    write_csv(ds, path, cmap)
    back, _ = load_csv(path, ds.schema, cmap)
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
    assert f1_macro(ds.labels, predict_local(model, ds), 2) == 1.0


def test_synth_spec_validation():
    with pytest.raises(SynthSpecError):
        SynthSpec(100, 1, 1, 1, (0.0,))
    with pytest.raises(SynthSpecError):
        SynthSpec(0, 2, 1, 1, (0.0,))
    with pytest.raises(SynthSpecError):
        SynthSpec(100, 2, 1, 1, (1.5,))


def test_degrade_copy_zero_noise_is_identity():
    ds = synth_generate(SynthSpec(200, 2, 1, 1, (0.0,)), 3)
    out = degrade_copy(ds, 0.0, 99)
    assert np.array_equal(out.labels, ds.labels)
    assert np.array_equal(out.numerical, ds.numerical)


def test_degrade_copy_flips_labels_and_perturbs():
    ds = synth_generate(SynthSpec(2000, 2, 1, 1, (0.0,)), 3)
    out = degrade_copy(ds, 0.3, 99)
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
