import json

import pytest

import fednb.experiment
from fednb.cli import main
from fednb.config import CsvSource, ExperimentConfig, config_from_dict, config_to_dict, load_config
from fednb.data import FeatureSchema, SynthSpec
from fednb.errors import CellError, ConfigError
from fednb.experiment import GridResult, materialize_dataset, verify
from fednb.governance import NodeProfile
from fednb.weights import OptimizerConfig

PROFILES = (
    NodeProfile("Financial", 4, 0.82, 0.12, 3.2),
    NodeProfile("Health", 3, 0.70, 0.25, 5.1),
    NodeProfile("Government", 2, 0.55, 0.40, 6.8),
)
SYNTH = SynthSpec(300, 2, 1, 2, (0.0, 0.2, 0.45), n_categories=3, class_sep=2.0, name="cfg-test")
NON_DEFAULT = dict(
    alphas=(0.1, 1.0),
    reps=1,
    seed=7,
    split_fracs=(0.5, 0.25, 0.25),
    optimizer=OptimizerConfig(lam=0.2, floor_delta=0.1, max_iters=50, n_starts=3),
    proposals=("B", "A"),
)

CFG = """\
[experiment]
name = cfg-test
seed = 7
alphas = 0.05, 1.0
reps = 1
proposals = C, B, E, A
train_frac = 0.6
val_frac = 0.2
test_frac = 0.2
lambda = 0.10
floor_delta = 0.05
max_iters = 500
n_starts = 5

[synth]
n_rows = 900
n_classes = 2
n_categorical = 1
n_numerical = 2
n_categories = 4
class_sep = 2.0
node_noise = 0.0, 0.2, 0.45

[profiles]
Financial = 4, 0.82, 0.12, 3.2
Health = 3, 0.70, 0.25, 5.1
Government = 2, 0.55, 0.40, 6.8
"""

# the config echo as grid.json files written before this schema had one reader
LEGACY_ECHO = {
    "source": {
        "kind": "synth", "n_rows": 900, "n_classes": 2, "n_categorical": 1, "n_numerical": 2,
        "node_noise": [0.0, 0.2, 0.45], "n_categories": 4, "class_sep": 2.0, "name": "cfg-test",
    },
    "profiles": [
        {"name": "Financial", "cmm": 4, "kci": 0.82, "kri": 0.12, "cvss": 3.2},
        {"name": "Health", "cmm": 3, "kci": 0.7, "kri": 0.25, "cvss": 5.1},
        {"name": "Government", "cmm": 2, "kci": 0.55, "kri": 0.4, "cvss": 6.8},
    ],
    "alphas": [0.05, 1.0],
    "reps": 1,
    "seed": 7,
    "split_fracs": [0.6, 0.2, 0.2],
    "optimizer": {"lambda": 0.1, "floor_delta": 0.05, "max_iters": 500, "n_starts": 5, "seed": 0},
    "proposals": ["C", "B", "E", "A"],
}


def _round_trips(cfg):
    d = config_to_dict(cfg)
    assert config_from_dict(d) == cfg
    assert config_from_dict(json.loads(json.dumps(d))) == cfg


def test_synth_config_round_trips():
    _round_trips(ExperimentConfig(source=SYNTH, profiles=PROFILES, **NON_DEFAULT))


def test_csv_config_round_trips():
    schema = FeatureSchema((("proto", "categorical"), ("dur", "numerical"), ("y", "label")), 3)
    source = CsvSource("/data/x.csv", schema, "x")
    _round_trips(ExperimentConfig(source=source, profiles=PROFILES, **NON_DEFAULT))


def test_ini_and_legacy_echo_build_the_same_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(CFG)
    assert load_config(path) == config_from_dict(LEGACY_ECHO)


def test_percent_sign_in_a_value_is_literal(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(CFG.replace("name = cfg-test", "name = 50%-sample"))
    assert load_config(path).dataset_name == "50%-sample"


def test_minimal_ini_takes_the_dataclass_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text(
        "[experiment]\n"
        "[synth]\nn_rows = 300\nn_classes = 2\nn_categorical = 1\nn_numerical = 2\n"
        "node_noise = 0.0, 0.2, 0.45\n"
        "[profiles]\nFinancial = 4, 0.82, 0.12, 3.2\nHealth = 3, 0.70, 0.25, 5.1\n"
        "Government = 2, 0.55, 0.40, 6.8\n"
    )
    expected = ExperimentConfig(source=SynthSpec(300, 2, 1, 2, (0.0, 0.2, 0.45)), profiles=PROFILES)
    assert load_config(path) == expected


def test_csv_section_reads_the_schema_file(tmp_path):
    (tmp_path / "schema.cfg").write_text(
        "[schema]\nn_classes = 2\n[columns]\nproto = categorical\ndur = numerical\ny = label\n"
    )
    csv = "[csv]\npath = x.csv\nschema = schema.cfg\n\n"
    (tmp_path / "c.cfg").write_text(CFG[: CFG.index("[synth]")] + csv + CFG[CFG.index("[profiles]") :])
    cfg = load_config(tmp_path / "c.cfg")
    schema = FeatureSchema((("proto", "categorical"), ("dur", "numerical"), ("y", "label")), 2)
    assert cfg.source == CsvSource(str(tmp_path / "x.csv"), schema, "cfg-test")


@pytest.mark.parametrize(
    "line, bad, named",
    [
        ("lambda = 0.10", "lambda = -1", "lambda"),
        ("Financial = 4,", "Financial = 7,", "cmm 7"),
        ("n_rows = 900", "n_rows = abc", "n_rows"),
        ("max_iters = 500", "max_iters = 0", "max_iters"),
        ("n_rows = 900", "n_rows = 0", "n_rows"),
        ("n_rows = 900", "n_rows = 5", "n_rows"),
        ("train_frac = 0.6", "train_frac = 0.7", "0.7"),
        ("n_starts = 5", "n_starts = 9", "n_starts"),
        ("lambda = 0.10", "lamda = 0.10", "lamda"),
        ("reps = 1", "reps = 0", "reps"),
        ("n_categories = 4", "n_categorys = 4", "n_categorys"),
        ("alphas = 0.05, 1.0", "alphas = 0.1234567, 1.0", "alphas"),
        ("train_frac = 0.6", "train_frac = 0.5", "split_fracs (0.5, 0.2, 0.2)"),
        ("test_frac = 0.2", "test_frac = -0.0", "split_fracs (0.6, 0.2, -0.0)"),
        ("alphas = 0.05, 1.0", "alphas =", "alphas"),
        ("proposals = C, B, E, A", "proposals = C, B, B", "['B']"),
    ],
)
def test_bad_config_value_exits_64_and_names_it(tmp_path, capsys, line, bad, named):
    assert line in CFG
    path = tmp_path / "bad.cfg"
    path.write_text(CFG.replace(line, bad))
    code = main(["run-grid", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--set", "seed=7"])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["c.cfg", "schema.cfg"])
def test_a_config_or_schema_that_is_not_utf8_exits_64_naming_it(tmp_path, capsys, name):
    (tmp_path / "schema.cfg").write_text("[schema]\nn_classes = 2\n[columns]\nproto = categorical\ny = label\n")
    csv = "[csv]\npath = x.csv\nschema = schema.cfg\n\n"
    (tmp_path / "c.cfg").write_text(CFG[: CFG.index("[synth]")] + csv + CFG[CFG.index("[profiles]") :])
    with open(tmp_path / name, "ab") as fh:
        fh.write(b"\xff")
    assert main(["run-grid", "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "out")]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ") and "utf-8" in err and err.count("\n") == 1


@pytest.mark.parametrize("fracs", [[0.6, 0.4], [0.4, 0.2, 0.2, 0.2]])
def test_grid_json_with_other_than_three_split_fracs_exits_1(tmp_path, capsys, fracs):
    bundle = {"config": {**LEGACY_ECHO, "split_fracs": fracs}, "cells": []}
    (tmp_path / "grid.json").write_text(json.dumps(bundle))
    (tmp_path / "results.csv").write_text("dataset,alpha,rep,proposal,f1_macro,anll,jsd\n")
    assert main(["verify", "--results", str(tmp_path)]) == 1  # a saved file is data, not usage
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'grid.json'}: ") and "split_fracs" in err and "Traceback" not in err


def test_empty_alpha_grid_exits_64_before_writing_anything(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text(CFG)
    out = tmp_path / "out"
    assert main(["run-grid", "--config", str(path), "--set", "alphas=", "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alphas" in err and "Traceback" not in err
    assert not out.exists()


def test_repeated_proposal_is_a_config_error_that_names_it(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"\['A'\]"):
        ExperimentConfig(source=SYNTH, profiles=PROFILES, proposals=("A", "B", "A"))
    path = tmp_path / "c.cfg"
    path.write_text(
        CFG.replace("proposals = C, B, E, A", "proposals = C, B, B").replace("alphas = 0.05, 1.0", "alphas = 0.5")
    )
    out = tmp_path / "out"
    assert main(["run-grid", "--config", str(path), "--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "['B']" in err and "Traceback" not in err
    assert not out.exists()


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(source=SYNTH, profiles=PROFILES, seed=-1)


@pytest.mark.parametrize("where", ["file", "override"])
def test_negative_seed_exits_64_and_names_it(tmp_path, capsys, where):
    path = tmp_path / "neg.cfg"
    path.write_text(CFG.replace("seed = 7", "seed = -1") if where == "file" else CFG)
    overrides = ["--set", "seed=-1"] if where == "override" else []
    code = main(["run-grid", "--config", str(path), "--out", str(tmp_path / "out"), *overrides])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith("error: ") and "seed" in err
    assert "Traceback" not in err


def _config_echo(result):
    unrun = CellError(result.config.alphas[0], 0, RuntimeError("not run"))  # the grid holds no cell to re-run
    checks = verify(result, materialize_dataset(result.config), unrun).checks
    return next(c for c in checks if c[0] == "config_echo")


def test_config_echo_check_fails_when_the_round_trip_breaks(monkeypatch):
    cfg = ExperimentConfig(source=SYNTH, profiles=PROFILES, **NON_DEFAULT)
    result = GridResult(cfg, [])
    assert _config_echo(result)[1]

    def drop_n_starts(c):
        d = config_to_dict(c)
        del d["optimizer"]["n_starts"]
        return d

    monkeypatch.setattr(fednb.experiment, "config_to_dict", drop_n_starts)
    _, ok, msg = _config_echo(result)
    assert not ok
    assert "optimizer.n_starts (3 vs 5)" in msg
