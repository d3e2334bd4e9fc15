#!/usr/bin/env python3
"""Compare the outputs of a fixed set of runs between a revision and this tree.

    python3 tools/compare_outputs.py REV

REV is any git revision of this repository.  It is unpacked with
``git archive`` into a temporary directory, and every case below runs once
on it and once on the working tree, as ``python -m precursor_lab.cli`` with
that tree's ``src`` on ``PYTHONPATH``.  The cases are the two benchmark
workload configs (``perfbench/workloads/*.ini``, read and never written) at
seeds 1 and 7 with ``--threads`` 1, 2 and 4, and a chirp, a two-layer slab,
an exp-kernel propagate, two csv-pulse propagates (a narrow pulse and one
spanning t = -200 to 200) and a ``verify`` run.

Every output file, the exit status and ``verify``'s standard output are
compared byte for byte; standard error is not, since a warning names the
source line that raised it.  One line is printed per differing file, with
its first differing lines.  Exit status: 0 when everything is identical,
1 on any difference, 2 when a tree cannot be unpacked.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"
SHOWN_LINES = 3  # differing lines printed per file

CHIRP = """
experiment = chirp
[pulse]
kind = chirp-gaussian
T = 1
omega0 = 1
alpha = 20
"""

SLAB = """
experiment = slab
z-list = 2 4 8
[pulse]
kind = gaussian
T = 1
[medium]
variant = layered
layer = 0.5 quadratic 1 1
layer = 1.0 quadratic 3 1.2
tail = free-space
"""

EXP_KERNEL = """
experiment = propagate
z-list = 5 20
[pulse]
kind = gaussian
T = 1
omega0 = 1
[medium]
variant = exp-kernel
K = 10
Kp = 100
"""

CSV_PULSE = """
experiment = propagate
z-list = 10 40
[pulse]
kind = csv
file = {csv}
[medium]
variant = quadratic
a = 1
v = 1
"""

VERIFY = "experiment = verify\nseed = 3\n"


def pulse_csv(path: Path) -> None:
    """A sampled two-sided exponential pulse, coarser than the grid it is resampled on."""
    rows = ["t,f"] + [f"{0.25 * k:.2f},{2.0 ** -abs(k / 4):.17g}" for k in range(-40, 41)]
    path.write_text("\n".join(rows) + "\n")


def wide_pulse_csv(path: Path) -> None:
    """A Gaussian pulse of width 50 sampled at t = -200, -199, ..., 200."""
    rows = ["t,f"] + [f"{t},{math.exp(-0.5 * (t / 50) ** 2):.17g}" for t in range(-200, 201)]
    path.write_text("\n".join(rows) + "\n")


def cases(inputs: Path) -> dict[str, tuple[Path, list[str]]]:
    """Case name -> (config file, extra CLI arguments)."""
    csv, wide = inputs / "pulse.csv", inputs / "wide-pulse.csv"
    pulse_csv(csv)
    wide_pulse_csv(wide)
    texts = {
        "chirp": CHIRP,
        "slab": SLAB,
        "exp-kernel": EXP_KERNEL,
        "csv-pulse": CSV_PULSE.format(csv=csv),
        "wide-csv-pulse": CSV_PULSE.format(csv=wide),
        "verify": VERIFY,
    }
    out = {}
    for workload in ("sweep-z", "stochastic"):
        for seed in (1, 7):
            for threads in (1, 2, 4):
                args = ["--seed", str(seed), "--threads", str(threads)]
                out[f"{workload}-seed{seed}-threads{threads}"] = (WORKLOADS / f"{workload}.ini", args)
    for name, text in texts.items():
        path = inputs / f"{name}.ini"
        path.write_text(text)
        out[name] = (path, [])
    return out


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, capture_output=True, check=True)


def run_case(tree: Path, config: Path, args: list[str], out_dir: Path) -> dict[str, bytes]:
    """Every output file of one run, plus its exit status and standard output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "precursor_lab.cli", str(config), "--output-dir", str(out_dir), *args],
        env=env, cwd=out_dir.parent, capture_output=True,
    )
    files = {"<exit status>": str(proc.returncode).encode(), "<stdout>": proc.stdout}
    if out_dir.is_dir():
        files.update((p.name, p.read_bytes()) for p in sorted(out_dir.iterdir()))
    return files


def differences(old: bytes, new: bytes) -> list[str]:
    a = old.decode(errors="replace").splitlines()
    b = new.decode(errors="replace").splitlines()
    lines = [
        line for line in difflib.unified_diff(a, b, lineterm="", n=0)
        if line[:1] in "-+" and not line.startswith(("---", "+++"))
    ]
    return lines[: 2 * SHOWN_LINES]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        try:
            unpack(args.rev, base)
        except subprocess.CalledProcessError as exc:
            print(f"cannot unpack {args.rev}: {exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        inputs = tmp / "inputs"
        inputs.mkdir()
        differing = compared = 0
        for name, (config, extra) in cases(inputs).items():
            runs = []
            for label, tree in (("out-base", base), ("out-head", ROOT)):
                (tmp / label).mkdir(exist_ok=True)
                runs.append(run_case(tree, config, extra, tmp / label / name))
            old, new = runs
            for file in sorted(set(old) | set(new)):
                compared += 1
                if old.get(file) == new.get(file):
                    continue
                differing += 1
                if file not in old or file not in new:
                    print(f"{name}/{file}: only in {'head' if file in new else args.rev}")
                    continue
                print(f"{name}/{file}: differs")
                for line in differences(old[file], new[file]):
                    print(f"    {line}")
        print(f"{compared} outputs compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
