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

from . import experiments, verify
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

# rows formatted per write; keeps the transient strings and float objects
# O(block) instead of O(file)
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: str, columns) -> None:
    """Header line, then one ``%.17g`` field per column, ``,``-separated, per row.

    The bytes equal ``np.savetxt(fh, data, fmt="%.17g", delimiter=",")``:
    ``.tolist()`` yields Python floats, which ``%.17g`` formats exactly as
    it formats the ``np.float64`` rows savetxt passes, but a whole block of
    rows goes through one ``%`` instead of one Python call per row.
    """
    data = np.column_stack(columns)
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            block = data[start : start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_outputs(out_dir: Path, t: np.ndarray, files) -> None:
    """Write each ``(name, values)`` of ``files`` as a ``t,f`` CSV on the shared times ``t``.

    Each file holds the bytes ``_write_csv`` writes for ``(t, values)``.  Each
    block of ``t`` is formatted once into a row template, ``"<t>,%.17g\\n"``
    per row, which every file fills with its own values in one ``%``.  Blocks
    are the outer loop, so one template is alive at a time.
    """
    with contextlib.ExitStack() as stack:
        handles = []
        for name, values in files:
            fh = stack.enter_context((out_dir / name).open("w"))
            fh.write("t,f\n")
            handles.append((fh, values))
        for start in range(0, len(t), _CSV_BLOCK_ROWS):
            tb = t[start : start + _CSV_BLOCK_ROWS]
            rows = ("%.17g,%%.17g\n" * len(tb)) % tuple(tb.tolist())
            for fh, values in handles:
                fh.write(rows % tuple(values[start : start + _CSV_BLOCK_ROWS].tolist()))


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
