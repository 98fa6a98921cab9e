"""Layout rules: no fednb module imports another fednb module's private helpers,
only cli.py imports json, one function calls the row-order sum, every
definition is used, every default is both overridden and taken by some call,
every field is read, every lookup point of perfbench/tracer.py exists, and a
traced run passes the tracer's consistency check."""

import ast
import importlib.util
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fednb.cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fednb"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "fednb"
        if internal:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    offenders = [msg for path in modules for msg in _private_imports(path)]
    assert offenders == []


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_cli_imports_json():
    """grid.json has one encoder and one decoder, both in cli.py."""
    importers = [
        path.name for path in sorted(SRC.glob("*.py"))
        if "json" in {m.split(".")[0] for m in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))}
    ]
    assert importers == ["cli.py"]


def test_one_function_calls_row_order_sum():
    """Every column statistic of the node path comes from one routine that
    replays numpy's row order (local_model.column_mean_var); a second caller
    would be a second copy of that rule."""
    callers = {
        f"{path.name}:{func.name}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef)
        for call in ast.walk(func)
        if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "row_order_sum"
    }
    assert callers == {"local_model.py:column_mean_var"}


# Kept although nothing in src/fednb refers to them, each for a stated reason.
UNREFERENCED_ALLOWED = {
    "mog_log_scores_batch": "a lookup point of perfbench/tracer.py, imported by experiment.py",
}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
            )


def _references(tree: ast.Module):
    """(name, line) of every Name and Attribute; import aliases are not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_referenced_outside_itself():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = [(module, name, line) for module, tree in trees.items() for name, line in _references(tree)]
    unreferenced = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            outside = [
                (m, line) for m, name, line in refs
                if name == node.name and not (m == module and node.lineno <= line <= node.end_lineno)
            ]
            if not outside and node.name not in UNREFERENCED_ALLOWED:
                unreferenced.append(f"{module}:{node.lineno} {node.name}")
    assert unreferenced == []


# Parameters with a default that no call in src/fednb passes, kept each for a stated reason.
UNPASSED_DEFAULTS_ALLOWED = {
    "cli.main(argv)": "the entry point: tests and perfbench pass argv, the console script none",
    "data.load_csv(category_map)": "a fixed category map, which the fixed-map tests and the "
    "per-split OOD contract of ROADMAP item 6a use",
}


def _defaulted_parameters(module: str, tree: ast.Module):
    """(function name, "module.function(parameter)", parameter name, its
    position in a call or None when it is keyword-only) of each parameter
    with a default."""
    methods = {
        id(m) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for m in cls.body
        if isinstance(m, ast.FunctionDef)
        and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in m.decorator_list)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if id(node) in methods else 0  # self or cls, bound before the call
        first = len(positional) - len(node.args.defaults)
        named = [(a, i - skip) for i, a in enumerate(positional) if i >= first]
        named += [(a, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
        for arg, position in named:
            yield node.name, f"{module}.{node.name}({arg.arg})", arg.arg, position


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether call passes param, by keyword, by position or through * or **."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _defaults_and_callers():
    """(label, parameter, position, the src/fednb calls of its function by
    name) of each parameter with a default (see _defaulted_parameters)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for module, tree in trees.items():
        for name, label, param, position in _defaulted_parameters(module, tree):
            callers = [
                c for c in calls
                if (c.func.id if isinstance(c.func, ast.Name) else getattr(c.func, "attr", None)) == name
            ]
            yield label, param, position, callers


def test_every_defaulted_parameter_is_passed_by_a_caller():
    """A default that every caller takes is a constant in disguise, and the
    code for the other values is dead."""
    unpassed = [
        label for label, param, position, callers in _defaults_and_callers()
        if not any(_passes(c, param, position) for c in callers) and label not in UNPASSED_DEFAULTS_ALLOWED
    ]
    assert unpassed == []


# Parameters with a default that every call in src/fednb passes, kept each for a stated reason.
UNTAKEN_DEFAULTS_ALLOWED = {
    "config.load_config(overrides)": "perfbench/sweep.py calls load_config(path), and only a "
    "benchmark change may edit perfbench/",
    "experiment.run_cell(dataset)": "perfbench/sweep.py calls run_cell(config, alpha, rep), and "
    "only a benchmark change may edit perfbench/",
}


def test_every_defaulted_parameter_is_left_out_by_a_caller():
    """A default that every caller overrides is never used, so the parameter
    should be required and its default is dead."""
    untaken = [
        label for label, param, position, callers in _defaults_and_callers()
        if all(_passes(c, param, position) for c in callers) and label not in UNTAKEN_DEFAULTS_ALLOWED
    ]
    assert untaken == []
    assert set(UNTAKEN_DEFAULTS_ALLOWED) <= {label for label, *_ in _defaults_and_callers()}


# Kept although nothing in src/fednb reads them, each for a stated reason.
UNREAD_FIELDS_ALLOWED = {
    "StartResult.initial_theta": "saved in grid.json through dataclasses.asdict, for the optimizer trace",
    "StartResult.evaluations": "saved in grid.json through dataclasses.asdict, for the optimizer trace",
    "StartResult.iterations": "saved in grid.json through dataclasses.asdict, for the optimizer trace",
    "McNemarResult.b": "a discordant count that acceptance criterion 7 checks",
    "McNemarResult.c": "a discordant count that acceptance criterion 7 checks",
    "McNemarResult.chi2": "the Yates statistic that the McNemar hand example checks",
}


def _fields(tree: ast.Module):
    """(class, name, first line, last line) of every class-level annotated
    field and @property of the top-level classes."""
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for m in cls.body:
            if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name):
                yield cls.name, m.target.id, m.lineno, m.end_lineno
            elif isinstance(m, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "property" for d in m.decorator_list
            ):
                yield cls.name, m.name, m.lineno, m.end_lineno


def test_every_field_is_read_outside_its_declaration():
    """A field or property that nothing reads restates something or is dead."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    reads = [
        (module, node.attr, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for module, tree in trees.items():
        for cls, name, first, last in _fields(tree):
            if f"{cls}.{name}" in UNREAD_FIELDS_ALLOWED:
                continue
            if not any(a == name and not (m == module and first <= line <= last) for m, a, line in reads):
                unread.append(f"{module}:{first} {cls}.{name}")
    assert unread == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module, attr, span", _load_tracer().WRAPS)
def test_every_tracer_lookup_point_resolves(module, attr, span):
    """A rename in src/fednb would otherwise break only `pytest perfbench`."""
    assert callable(getattr(import_module(module), attr, None)), f"{module}.{attr} ({span})"


TRACED_CFG = """\
[experiment]
name = traced
seed = 3
alphas = 0.1, 1.0
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
n_rows = 600
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


def test_traced_run_grid_passes_the_tracer_consistency_check(tmp_path, pin_cpus):
    """The tracer counts one weights.anll_from_stacked call under nelder_mead per
    objective evaluation; a second call per evaluation, or a call that bypasses
    that lookup point, would otherwise break only `pytest perfbench`. The
    tracer sees only this process, so the grid's cells run here."""
    pin_cpus(1)
    tracer = _load_tracer()
    cfg = tmp_path / "traced.cfg"
    cfg.write_text(TRACED_CFG)
    with tracer.Tracer() as tr:
        tr.instrument()
        # through the module attribute, which instrument() wraps
        assert fednb.cli.main(["run-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert tracer.consistency_errors(tr.spans) == []
    evaluations = sum(tracer.evals_per_start(tr.spans))
    assert evaluations > 0 and len(tracer.objective_calls(tr.spans)) == evaluations


def test_run_grid_loads_no_process_pool_module(tmp_path):
    """run_grid forks its workers with os.fork and pickle alone; importing
    multiprocessing or concurrent.futures would add to every run's memory."""
    cfg = tmp_path / "traced.cfg"
    cfg.write_text(TRACED_CFG)
    code = (
        "import atexit, sys, fednb.cli\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules\n"
        "                                     if m.split('.')[0] in ('multiprocessing', 'concurrent'))))\n"
        f"sys.exit(fednb.cli.main(['run-grid', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_run_grid_on_two_cpus_loads_no_numpy_random(tmp_path, pin_cpus):
    """Where the cells run in workers, they fork from the grid process, which
    builds the dataset and verifies the grid; the run-grid process holds
    neither the dataset nor numpy.random (about 5 MB of its memory)."""
    pin_cpus(2)
    cfg, log = tmp_path / "traced.cfg", tmp_path / "calls"
    cfg.write_text(TRACED_CFG)
    code = (
        "import atexit, os, sys, fednb.cli\n"
        "def logged(name):\n"
        "    real = getattr(fednb.cli, name)\n"
        "    def call(*args):\n"
        f"        with open({str(log)!r}, 'a', encoding='utf-8') as fh:\n"
        "            fh.write(f'{name} {os.getpid()}\\n')\n"
        "        return real(*args)\n"
        "    setattr(fednb.cli, name, call)\n"
        "logged('materialize_dataset')\n"
        "logged('verify')\n"
        "atexit.register(lambda: print(os.getpid(), 'numpy.random' in sys.modules))\n"
        f"sys.exit(fednb.cli.main(['run-grid', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pid, loaded = proc.stdout.splitlines()[-1].split()
    assert loaded == "False"
    calls = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    assert [name for name, _ in calls] == ["materialize_dataset", "verify"]
    assert len({p for _, p in calls}) == 1 and calls[0][1] != pid
