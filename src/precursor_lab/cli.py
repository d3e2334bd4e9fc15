"""Batch experiment runner: argument parsing, dispatch and serialisation.

``precursor-lab <config> [--output-dir PATH] [--experiment NAME] [--seed N]
[--threads N]`` reads a config file (format in :mod:`precursor_lab.config`).
:func:`run` plans the grid, loads the pulse and calls the experiment
(:mod:`precursor_lab.experiments`, :mod:`precursor_lab.verify`), which
returns a :class:`~precursor_lab.experiments.Run`; only then does it create
the output directory and write the record:

* ``signal_<z>.csv`` -- propagated waveform per depth, columns ``t,f``;
* ``sweep.csv`` -- per-depth metrics, columns
  ``z,t_peak,peak_amp,rms_width,energy_ratio``;
* ``summary.txt`` -- one ``key: value`` line per metric: ``experiment``,
  the experiment's entries, then the discrepancy diagnostics.

A run that fails writes nothing.  Exit status: 0 on success, 1 on
configuration or I/O failure, 2 when ``verify`` finds a failing check.
Identical config and seed give byte-identical outputs for any ``--threads``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import _csvfmt, experiments, verify
from .config import ConfigError, ExperimentConfig, parse_config

__all__ = ["main", "run"]

_EXPERIMENTS = {
    "propagate": experiments.run_propagation,
    "sweep-z": experiments.run_propagation,
    "stochastic": experiments.run_stochastic,
    "chirp": experiments.run_chirp,
    "slab": experiments.run_slab,
    "verify": verify.run_verify,
}

_SWEEP_COLUMNS = ("z", "t_peak", "peak_amp", "rms_width", "energy_ratio")

# rows formatted per write, and values per layout call; keeps the character
# blocks O(block) instead of O(file)
_CSV_BLOCK_ROWS = 4096


def _layouts(columns, seps: str):
    """Yield the ``(30, rows)`` layout of each of ``columns``, all of one length, with its separator.

    Whole columns side by side share ``_csvfmt.layout`` calls of up to
    ``_CSV_BLOCK_ROWS`` values each, which saves each call's fixed cost on
    short columns.
    """
    rows = len(columns[0])
    per_call = max(1, _CSV_BLOCK_ROWS // rows)
    for i in range(0, len(columns), per_call):
        laid = _csvfmt.layout(np.concatenate(columns[i : i + per_call]), seps[i : i + per_call])
        for j in range(0, laid.shape[1], rows):
            yield laid[:, j : j + rows]


def _write_tables(header: str, shared, files) -> None:
    """Write each ``(path, columns)`` of ``files`` as a CSV whose rows are ``shared`` then ``columns``.

    A header line, then one ``%.17g`` field per column, ``,``-separated, per
    row: the bytes ``np.savetxt(fh, data, fmt="%.17g", delimiter=",")``
    writes (:mod:`precursor_lab._csvfmt`).  Every file has as many columns.
    Blocks of rows are the outer loop: each block lays out the ``shared``
    columns and every file's columns, in that order (:func:`_layouts`), and
    fills one row-major character buffer, whose ``shared`` columns are copied
    once for every file, and whose other columns are overwritten file by file.
    """
    with contextlib.ExitStack() as stack:
        handles = []
        for path, columns in files:
            fh = stack.enter_context(open(path, "wb"))
            fh.write(header.encode() + b"\n")
            handles.append((fh, columns))
        n = len(files[0][1][0])
        width = len(shared) + len(files[0][1])
        w = _csvfmt.WIDTH
        slots = [slice(w * i, w * (i + 1)) for i in range(width)]
        seps = "," * (width - 1) + "\n"
        seps = seps[: len(shared)] + seps[len(shared) :] * len(files)
        buf = np.empty((min(n, _CSV_BLOCK_ROWS), w * width), np.uint8)
        for start in range(0, n, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            chars = buf[: min(n - start, _CSV_BLOCK_ROWS)]
            laid = _layouts([c[rows] for c in shared] + [c[rows] for _, cs in handles for c in cs], seps)
            for slot, block in zip(slots[: len(shared)], laid):
                chars[:, slot] = block.T
            for fh, _ in handles:
                for slot, block in zip(slots[len(shared) :], laid):
                    chars[:, slot] = block.T
                fh.write(_csvfmt.join(chars))


def _write_csv(path: Path, header: str, columns) -> None:
    """One CSV of ``columns``, each a sequence of floats."""
    _write_tables(header, [], [(path, columns)])


def _write_outputs(out_dir: Path, t: np.ndarray, files) -> None:
    """Write each ``(name, values)`` of ``files`` as a ``t,f`` CSV on the shared times ``t``."""
    _write_tables("t,f", [t], [(out_dir / name, [values]) for name, values in files])


def run(cfg: ExperimentConfig) -> int:
    """Execute an experiment and write its record; returns the process exit status."""
    rows = experiments.read_pulse_csv(cfg)
    grid = experiments.plan_grid(cfg, rows)
    f0 = experiments.load_pulse(cfg, grid, rows)
    record = _EXPERIMENTS[cfg.experiment](cfg, grid, f0)
    entries = [("experiment", cfg.experiment), *record.entries]
    entries.extend(experiments.discrepancy_entries(cfg))

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if record.files:
        _write_outputs(out_dir, grid.times(), record.files)
    if record.records:
        columns = [[getattr(r, name) for r in record.records] for name in _SWEEP_COLUMNS]
        _write_csv(out_dir / "sweep.csv", ",".join(_SWEEP_COLUMNS), columns)
    (out_dir / "summary.txt").write_text("".join(f"{k}: {v}\n" for k, v in entries))
    return record.status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="precursor-lab",
        description="Batch pulse-propagation experiments for passive media",
    )
    parser.add_argument("config", help="path to a config file")
    parser.add_argument("--output-dir", help="override the config output directory")
    parser.add_argument("--experiment", help="override the experiment name")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--threads", type=int, help="override the thread count")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"io-error: cannot read config: {exc}", file=sys.stderr)
        return 1

    # each option overrides the top-level config key of the same name
    overrides = {
        key.replace("_", "-"): value
        for key, value in vars(args).items()
        if key != "config" and value is not None
    }

    try:
        return run(parse_config(text, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
