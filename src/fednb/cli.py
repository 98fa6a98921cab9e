"""Command-line entry point.

Subcommands: run-grid, verify, partition, emit-plots.
Each command that needs the dataset materializes it once; emit-plots needs
none. grid.json keeps every record float exactly, and results.csv must be the
CSV of those records. verify and emit-plots read the grid from the two files,
so they print and write exactly what run-grid did.
Exit codes: 0 success (and 15/15 verification for run-grid/verify),
2 verification failure, 64 usage or an invalid config file or override,
1 a failed grid cell, a malformed saved result (its config echo included)
or any other error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys
import types
import typing

# experiment is imported before numpy: where no bytecode cache is written
# (PYTHONDONTWRITEBYTECODE), each run compiles experiment.py, the largest
# module, and numpy's import then reuses the heap that the compile frees
# instead of leaving it free below numpy's objects.
from .experiment import (
    STAGES,
    CellResult,
    GridResult,
    VerificationReport,
    emit_plot_data,
    emit_results_csv,
    in_grid_process,
    materialize_dataset,
    results_csv_lines,
    run_grid,
    run_tasks,
    verify,
    worker_count,
    write_lines,
)
import numpy as np

from .config import config_from_dict, config_to_dict, load_config
from .data import utf8_lines
from .errors import ConfigError, FedNBError, ParseError
from .partition import dirichlet_partition, jsd_heterogeneity

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAIL = 2
EXIT_USAGE = 64

# glibc's mallopt parameters (malloc.h) and the values main sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's maximum on 64-bit hosts
TRIM_THRESHOLD = 1024 * 1024 * 1024

GRID_BUNDLE = "grid.json"
RESULTS_CSV = "results.csv"


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _save_bundle(result: GridResult, out_dir: str) -> None:
    bundle = {"config": config_to_dict(result.config), "cells": [dataclasses.asdict(c) for c in result.cells]}
    with open(os.path.join(out_dir, GRID_BUNDLE), "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, default=np.ndarray.tolist)


_field_types = functools.cache(typing.get_type_hints)


def _decoded(kind, v, key: str):
    """v, the grid.json value at key, as a value of the annotation kind. v must
    have kind's exact JSON type, so neither true nor 2.0 is an int and neither
    1 nor "0.5" is a float. A tuple is a list of floats, an np.ndarray one too
    or a list of such lists of one length, a list[X] a list of X, a dict[str, X]
    an object of X values, X | None also null, and a dataclass an object
    holding its fields (other keys are ignored). An error names v's place
    below key, as in cells[3].rep or cells[0].stage_ms.fit."""
    if dataclasses.is_dataclass(kind):
        fields = _field_types(kind)
        if type(v) is not dict:
            raise TypeError(f"{key}: expected an object holding {', '.join(fields)}, got {v!r}")
        missing = [name for name in fields if name not in v]
        if missing:
            raise ValueError(f"{key}: missing key {missing[0]!r}")
        return kind(**{name: _decoded(t, v[name], f"{key}.{name}") for name, t in fields.items()})
    if type(kind) is types.UnionType:  # X | None
        return None if v is None else _decoded(typing.get_args(kind)[0], v, key)
    if kind in (tuple, np.ndarray):
        items = _decoded(list, v, key)
        if kind is np.ndarray and items and type(items[0]) is list:  # a matrix, row by row
            rows = [_decoded(kind, row, key) for row in items]
            if len({row.shape for row in rows}) > 1:
                raise ValueError(f"{key} must hold rows of one length, got {v!r}")
            return np.array(rows)
        if any(type(x) is not float for x in items):
            raise TypeError(f"{key} must hold floats, got {v!r}")
        return tuple(v) if kind is tuple else np.array(v)
    base, args = typing.get_origin(kind) or kind, typing.get_args(kind)
    if type(v) is not base:
        raise TypeError(f"{key} must be {base.__name__}, got {v!r}")
    if base is dict:  # a JSON object's keys are strings
        return {name: _decoded(args[1], x, f"{key}.{name}") for name, x in v.items()}
    return [_decoded(args[0], x, f"{key}[{i}]") for i, x in enumerate(v)] if args else v


def _load_bundle(results_dir: str) -> GridResult:
    """The saved grid; ParseError names a malformed grid.json (its config echo
    too) and the place in it, or a results.csv that is not the CSV of its
    records."""
    bundle_path = os.path.join(results_dir, GRID_BUNDLE)
    try:
        with open(bundle_path, encoding="utf-8") as fh:
            bundle = json.load(fh)
        if type(bundle) is not dict:
            raise TypeError(f"expected a JSON object, got {type(bundle).__name__}")
        try:
            config = config_from_dict(bundle["config"])
        except ConfigError as exc:  # a saved file is data, not usage
            raise ValueError(str(exc)) from None
        result = GridResult(config, _decoded(list[CellResult], bundle["cells"], "cells"))
        if not result.cells:  # run-grid writes every cell of the grid
            raise ValueError("cells must hold at least one cell, got []")
        seen = {}  # (alpha_index, rep) -> the position of its cell
        for i, cell in enumerate(result.cells):
            if tuple(cell.stage_ms) != STAGES:
                raise ValueError(f"cells[{i}].stage_ms must hold the stages {', '.join(STAGES)} in that order, "
                                 f"got {', '.join(cell.stage_ms) or 'none'}")
            for name, n in ("alpha_index", len(config.alphas)), ("rep", config.reps):
                if not 0 <= getattr(cell, name) < n:
                    raise ValueError(f"cells[{i}]: {name} {getattr(cell, name)} outside 0..{n - 1}")
            first = seen.setdefault((cell.alpha_index, cell.rep), i)
            if first != i:
                raise ValueError(f"cells[{i}]: (alpha_index, rep) ({cell.alpha_index}, {cell.rep}) "
                                 f"repeats cells[{first}]")
            if cell.density.shape not in ((2, config.k), (2, 0)):
                raise ValueError(f"cells[{i}].density must be two lists of {config.k} floats, or two empty lists")
            if not (np.isfinite(cell.density).all() and (cell.density[1] > 0).all()):
                raise ValueError(f"cells[{i}].density must hold finite means and finite, positive standard deviations")
            # the cell's JSD is read off its counts
            if not (len(cell.counts) == config.k and len({len(row) for row in cell.counts}) == 1
                    and all(any(row) and min(row) >= 0 for row in cell.counts)):
                raise ValueError(f"cells[{i}].counts must be K = {config.k} rows of one length of non-negative "
                                 f"integers, none all zero, got {cell.counts}")
            for j, r in enumerate(cell.records):
                if r.weights is not None and len(r.weights) != config.k:
                    place = config.alphas[cell.alpha_index], cell.rep, r.proposal
                    raise ValueError(f"cells[{i}].records[{j}] {place} must hold null or K = {config.k} weights, "
                                     f"got {len(r.weights)}")
    except KeyError as exc:
        raise ParseError(f"{bundle_path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{bundle_path}: {exc}") from None
    csv_path = os.path.join(results_dir, RESULTS_CSV)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        got = "".join(utf8_lines(fh, csv_path)).split("\n")
    want = results_csv_lines(result) + [""]  # write_lines ends the last line too
    row = next((i for i in range(max(len(got), len(want))) if got[i:i + 1] != want[i:i + 1]), None)
    if row is not None:
        raise ParseError(f"{csv_path}: row {row} is {got[row:row + 1]}; the CSV of the records in "
                         f"{GRID_BUNDLE} has {want[row:row + 1]}")
    return result


def _checked_grid(config) -> tuple[GridResult, VerificationReport]:
    """The grid of config, run on the dataset it builds, and its verification."""
    dataset = materialize_dataset(config)
    # check 2 compares the first cell with a re-run of it, run with the cells
    result, (rerun,) = run_grid(config, dataset, [(config.alphas[0], 0)])
    # hand back the heap pages the cells freed (when they ran in this process),
    # so that the peak of the steps below does not depend on where their
    # allocations land among those pages
    _c_call("malloc_trim", (ctypes.c_size_t,), 0)
    return result, verify(result, dataset, rerun)


def cmd_run_grid(args) -> int:
    config = load_config(args.config, _parse_overrides(args.set))
    os.makedirs(args.out, exist_ok=True)
    if worker_count(len(config.alphas) * config.reps) > 1:
        result, report = in_grid_process(_checked_grid, config)
    else:
        result, report = _checked_grid(config)
    emit_results_csv(result, os.path.join(args.out, RESULTS_CSV))
    _save_bundle(result, args.out)
    emit_plot_data(result, os.path.join(args.out, "plots"))
    write_lines(os.path.join(args.out, "verification.txt"), [report.to_text()])
    write_lines(os.path.join(args.out, "verification.kv"), [report.to_kv()])
    print(report.to_text())
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL


def cmd_verify(args) -> int:
    result = _load_bundle(args.results)
    config, first = result.config, result.cells[0]
    # rebuilt from the grid.json echo, so check 2 also tests that the data
    # and the first cell's records come out the same in a new process
    dataset = materialize_dataset(config)
    (rerun,) = run_tasks(config, dataset, [(config.alphas[first.alpha_index], first.rep)])
    report = verify(result, dataset, rerun)
    print(report.to_text())
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL


def cmd_partition(args) -> int:
    if not 0 < args.alpha < math.inf:
        raise ConfigError(f"--alpha must be finite and positive, got {args.alpha}")
    if not 0 <= args.seed < 2**32:  # the seed a partition draws from is 32 bits
        raise ConfigError(f"--seed must be in 0..{2**32 - 1}, got {args.seed}")
    config = load_config(args.config, _parse_overrides(args.set))
    dataset = materialize_dataset(config)
    part = dirichlet_partition(dataset.labels, config.k, args.alpha, args.seed)
    counts = np.pad(part.counts, ((0, 0), (0, dataset.schema.n_classes - part.counts.shape[1])))
    jsd = jsd_heterogeneity(counts)
    lines = ["node\tsize\t" + "\t".join(f"class_{c}" for c in range(counts.shape[1]))]
    for i, p in enumerate(config.profiles):
        lines.append(f"{p.name}\t{len(part.node_indices[i])}\t" + "\t".join(map(str, counts[i])))
    lines.append(f"jsd\t{jsd:.6f}")
    if args.out:
        write_lines(args.out, lines)
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_emit_plots(args) -> int:
    emit_plot_data(_load_bundle(args.results), args.out)
    print(f"plot data written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fednb", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override seed, alphas, reps, lambda or delta")

    p = sub.add_parser("run-grid", help="run the full grid, emit results and verify")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_run_grid)

    p = sub.add_parser("verify", help="re-run the 15-check protocol on emitted results")
    p.add_argument("--results", required=True, help="directory written by run-grid")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partition", help="partition the dataset once and report counts")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("emit-plots", help="emit plot-ready TSV files from saved results")
    p.add_argument("--results", required=True, help="directory written by run-grid")
    p.add_argument("--out", required=True, help="plot data output directory")
    p.set_defaults(func=cmd_emit_plots)
    return ap


def _c_call(name: str, argtypes: tuple, *args) -> None:
    """The C library's name(*args), declared with argtypes and an int result.
    Does nothing where the C library has no such function (mallopt on macOS)
    or CDLL(None) is unsupported (Windows)."""
    try:
        func = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return
    func.argtypes, func.restype = argtypes, ctypes.c_int
    func(*args)


def _keep_freed_memory() -> None:
    """Keep the heap pages a grid cell frees for the next one.

    By default glibc serves blocks above a dynamic threshold with mmap,
    unmaps them when they are freed and trims the heap top, so each cell
    faults the same tens of megabytes in again. Setting either threshold
    alone switches the dynamic threshold off, so both are set.
    """
    _c_call("mallopt", (ctypes.c_int, ctypes.c_int), M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    _c_call("mallopt", (ctypes.c_int, ctypes.c_int), M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _keep_freed_memory()
    try:
        return args.func(args)
    except FedNBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
