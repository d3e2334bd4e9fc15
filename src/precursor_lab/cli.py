"""Batch experiment runner: argument parsing, dispatch and serialisation.

``precursor-lab <config> [--output-dir PATH] [--experiment NAME] [--seed N]
[--threads N]`` reads a config file (format in :mod:`precursor_lab.config`).
:func:`run` looks the experiment up (``experiments.EXPERIMENTS``), plans the
grid, checks every rule that reads it (``experiments.check_ranges``), loads
the pulse and calls the experiment's runner, which returns a
:class:`~precursor_lab.experiments.Run`; only then does it create
the output directory and write the record, its CSV tables through
:func:`precursor_lab._csvfmt.write_tables`:

* ``signal_<z>.csv`` -- propagated waveform per depth, columns ``t,f``;
* ``sweep.csv`` -- per-depth metrics, columns
  ``z,t_peak,peak_amp,rms_width,energy_ratio``;
* ``summary.txt`` -- one ``key: value`` line per metric: ``experiment``,
  the experiment's entries, then the discrepancy diagnostics.

A run that fails writes nothing, and prints only its one ``config error:``
or ``io-error:`` line: :func:`main` holds back the run's grid-adequacy
warnings and shows the first of each only once the run returns, since their
advice is about outputs a failed run never writes.  Every other warning is
shown as it is raised.  Exit status: 0 on success, 1 on configuration or
I/O failure, 2 when ``verify`` finds a failing check.
Identical config and seed give byte-identical outputs.  ``--threads`` is
checked (at least 1) and has no other effect: the depths run in order on one
thread.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from . import _csvfmt, experiments
from .config import ConfigError, ExperimentConfig, parse_config
from .propagate import GridAdequacyWarning

__all__ = ["main", "run"]

_SWEEP_COLUMNS = ("z", "t_peak", "peak_amp", "rms_width", "energy_ratio")


def run(cfg: ExperimentConfig) -> int:
    """Execute an experiment and write its record; returns the process exit status."""
    entry = experiments.experiment(cfg)
    rows = experiments.read_pulse_csv(cfg)
    grid = experiments.plan_grid(cfg, rows)
    experiments.check_ranges(cfg, grid)
    f0 = experiments.load_pulse(cfg, grid, rows)
    record = entry.run(cfg, grid, f0)
    entries = [("experiment", cfg.experiment), *record.entries]
    entries.extend(experiments.discrepancy_entries(cfg))

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if record.files:
        _csvfmt.write_tables("t,f", [grid.times()], [(out_dir / name, [values]) for name, values in record.files])
    if record.records:
        columns = [[getattr(r, name) for r in record.records] for name in _SWEEP_COLUMNS]
        _csvfmt.write_tables(",".join(_SWEEP_COLUMNS), [], [(out_dir / "sweep.csv", columns)])
    (out_dir / "summary.txt").write_text("".join(f"{k}: {v}\n" for k, v in entries))
    return record.status


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="precursor-lab",
        description="Batch pulse-propagation experiments for passive media",
    )
    parser.add_argument("config", help="path to a config file")
    parser.add_argument("--output-dir", help="override the config output directory")
    parser.add_argument("--experiment", help="override the experiment name")
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument("--threads", type=int, help="checked (at least 1); has no effect")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"io-error: cannot read config: {exc}", file=sys.stderr)
        return 1

    # each option overrides the top-level config key of the same name
    overrides = {
        key.replace("_", "-"): value
        for key, value in vars(args).items()
        if key != "config" and value is not None
    }

    held = {}  # (category, message, file, line) -> the first such warning
    show = warnings.showwarning

    def hold(message, category, filename, lineno, file=None, line=None):
        warning = (message, category, filename, lineno, file, line)
        if issubclass(category, GridAdequacyWarning):
            held.setdefault((category, str(message), filename, lineno), warning)
        else:
            show(*warning)

    with warnings.catch_warnings():
        warnings.showwarning = hold
        try:
            status = run(parse_config(text, overrides))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"io-error: {exc}", file=sys.stderr)
            return 1
    for warning in held.values():
        warnings.showwarning(*warning)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
