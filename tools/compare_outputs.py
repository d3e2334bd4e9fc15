#!/usr/bin/env python3
"""Compare the outputs of a fixed set of runs between a revision and this tree.

    python3 tools/compare_outputs.py REV

REV is any git revision of this repository.  It is unpacked with
``git archive`` into a temporary directory, and every case below runs once
on it and once on the working tree, as ``python -m precursor_lab.cli`` with
that tree's ``src`` on ``PYTHONPATH``.  The cases are the two benchmark
workload configs (``perfbench/workloads/*.ini``, read and never written) at
seeds 1 and 7 with ``--threads`` 1, 2 and 4, and a chirp, a two-layer slab,
two exp-kernel propagates (the second passes much of its spectrum up to
Nyquist), three csv-pulse propagates (a narrow pulse, one
spanning t = -200 to 200, and one at t = 1e9 that needs a given grid), a propagate on a given grid whose times cross
``%g``'s switch to exponent notation and hold an exact 0, a ``stochastic``
run on a given grid of 65,536 samples, a ``stochastic`` run of a rect pulse
at m = 0 whose spectrum reaches Nyquist, a ``stochastic`` run of 10,000 draws
at z = 4, 8 and 16 on the automatic grid with ``--threads`` 1 and 2, a
``stochastic`` run at m = 30, b = 1e12 and z = 1600 (the other cases take the
summary's rule probe at m = 1 only), a ``verify`` run, and two runs that
are config errors: an automatic grid whose span overflows and a pulse width
whose square overflows.

Every output file, the exit status and ``verify``'s standard output are
compared byte for byte.  So is standard error: a failing run's whole, and
otherwise its warnings, as one ``Category: message`` line each: the
``path:line:`` prefix and the echoed source line that follows it are
dropped, since they name where the warning was raised.  One line is printed per differing file, with its first
differing lines, and then how large the differences are: for a CSV, the
largest |delta| in each differing column relative to that column's peak in
REV's output; for ``summary.txt``, the relative change of each differing
line's value.  Exit status: 0 when everything is identical,
1 on any difference, 2 when a tree cannot be unpacked.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"
SHOWN_LINES = 3  # differing lines printed per file
WARNING_LINE = re.compile(r"^\S.*?:\d+: (\w+): (.*)$")  # path:line: Category: message

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

WEAK_EXP_KERNEL = """
experiment = propagate
z-list = 0.5 1
[pulse]
kind = gaussian
T = 1
omega0 = 1
[medium]
variant = exp-kernel
K = 5
Kp = 25
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

# a given grid whose t column runs from -3e-4 through an exact 0 at dt = 1e-6,
# so the shared times cross %g's switch to exponent notation below 1e-4
FORMAT_EDGES = """
experiment = propagate
z = 1e-4
[pulse]
kind = gaussian
T = 2e-5
[medium]
variant = quadratic
a = 1e8
v = 10
[grid]
n = 512
dt = 1e-6
t0 = -3e-4
"""

# the stochastic workload on a given grid of 65,536 samples, so that the Monte
# Carlo mean and sigma run over blocks of a few rows each
WIDE_STOCHASTIC = """
experiment = stochastic
z-list = 4
mc-samples = 2000
seed = 1
[pulse]
kind = gaussian
T = 1
[ensemble]
b = 2
m = 1
v = 1
[grid]
n = 65536
dt = 0.05
t0 = -1638.4
"""

# a rect pulse, whose spectrum does not vanish up to Nyquist, so the kernel
# terms the cut drops meet the largest spectral weights there
RECT_STOCHASTIC = """
experiment = stochastic
z-list = 4 16
mc-samples = 3000
seed = 1
[pulse]
kind = rect
T = 1
[ensemble]
b = 2
m = 0
v = 1
[grid]
n = 4096
dt = 0.05
t0 = -40
"""

# 10,000 draws at three depths on the automatic grid (n = 4,096), so that the
# Monte Carlo mean runs over 159 row blocks per depth
MANY_DRAWS_STOCHASTIC = """
experiment = stochastic
z-list = 4 8 16
mc-samples = 10000
seed = 1
[pulse]
kind = gaussian
T = 1
[ensemble]
b = 2
m = 1
v = 1
"""

# the highest ensemble order at a far scale and depth, so that the summary's
# rule probe runs at m = 30
HIGH_ORDER_STOCHASTIC = """
experiment = stochastic
z-list = 1600
mc-samples = 200
seed = 1
[pulse]
kind = gaussian
T = 1
[ensemble]
b = 1e12
m = 30
v = 1
"""

VERIFY = "experiment = verify\nseed = 3\n"

# the medium's width sqrt(z/a) overflows, and so does the automatic grid's span
OVERFLOWING_GRID = """
experiment = propagate
z = 1e300
[pulse]
kind = gaussian
T = 1
[medium]
variant = quadratic
a = 1e-300
v = 1
"""

# 2T^2 overflows
HUGE_PULSE_WIDTH = """
experiment = propagate
z = 100
[pulse]
kind = gaussian
T = 1e160
[medium]
variant = quadratic
a = 1
v = 1
"""


def pulse_csv(path: Path) -> None:
    """A sampled two-sided exponential pulse, coarser than the grid it is resampled on."""
    rows = ["t,f"] + [f"{0.25 * k:.2f},{2.0 ** -abs(k / 4):.17g}" for k in range(-40, 41)]
    path.write_text("\n".join(rows) + "\n")


def wide_pulse_csv(path: Path) -> None:
    """A Gaussian pulse of width 50 sampled at t = -200, -199, ..., 200."""
    rows = ["t,f"] + [f"{t},{math.exp(-0.5 * (t / 50) ** 2):.17g}" for t in range(-200, 201)]
    path.write_text("\n".join(rows) + "\n")


def far_pulse_csv(path: Path) -> None:
    """Two samples at t = 1e9, which an automatic grid would need 2^34 samples to reach."""
    path.write_text("t,f\n1e9,1\n1.000000001e9,2\n")


def cases(inputs: Path) -> dict[str, tuple[Path, list[str]]]:
    """Case name -> (config file, extra CLI arguments)."""
    csv, wide, far = inputs / "pulse.csv", inputs / "wide-pulse.csv", inputs / "far-pulse.csv"
    pulse_csv(csv)
    wide_pulse_csv(wide)
    far_pulse_csv(far)
    texts = {
        "chirp": CHIRP,
        "slab": SLAB,
        "exp-kernel": EXP_KERNEL,
        "weak-exp-kernel": WEAK_EXP_KERNEL,
        "csv-pulse": CSV_PULSE.format(csv=csv),
        "wide-csv-pulse": CSV_PULSE.format(csv=wide),
        "far-csv-pulse": CSV_PULSE.format(csv=far),
        "format-edges": FORMAT_EDGES,
        "stochastic-wide-grid": WIDE_STOCHASTIC,
        "stochastic-rect": RECT_STOCHASTIC,
        "stochastic-high-order": HIGH_ORDER_STOCHASTIC,
        "verify": VERIFY,
        "overflowing-grid": OVERFLOWING_GRID,
        "huge-pulse-width": HUGE_PULSE_WIDTH,
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
    many = inputs / "stochastic-many-draws.ini"
    many.write_text(MANY_DRAWS_STOCHASTIC)
    for threads in (1, 2):
        out[f"stochastic-many-draws-threads{threads}"] = (many, ["--threads", str(threads)])
    return out


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, capture_output=True, check=True)


def warnings_of(stderr: bytes) -> bytes:
    """One ``Category: message`` line per warning printed in ``stderr``."""
    matches = map(WARNING_LINE.match, stderr.decode(errors="replace").splitlines())
    return "".join(f"{m[1]}: {m[2]}\n" for m in matches if m).encode()


def run_case(tree: Path, config: Path, args: list[str], out_dir: Path) -> dict[str, bytes]:
    """Every output file of one run, plus its exit status, standard output and standard error.

    Standard error is kept whole when the run fails, and as its warnings otherwise.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "precursor_lab.cli", str(config), "--output-dir", str(out_dir), *args],
        env=env, cwd=out_dir.parent, capture_output=True,
    )
    files = {"<exit status>": str(proc.returncode).encode(), "<stdout>": proc.stdout}
    if proc.returncode:
        files["<stderr>"] = proc.stderr
    else:
        files["<warnings>"] = warnings_of(proc.stderr)
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


def csv_columns(data: bytes) -> tuple[list[str], list[tuple[float, ...]]]:
    """The header names and the columns of a CSV output, as floats."""
    header, *rows = data.decode().splitlines()
    return header.split(","), list(zip(*(map(float, row.split(",")) for row in rows)))


def csv_sizes(old: bytes, new: bytes) -> list[str]:
    """Per differing column: the largest |delta| over the column's peak in ``old``."""
    (names, a), (names_new, b) = csv_columns(old), csv_columns(new)
    if names != names_new or [len(c) for c in a] != [len(c) for c in b]:
        return ["columns or rows differ"]
    sizes = []
    for name, x, y in zip(names, a, b):
        if x != y:
            delta, peak = max(abs(p - q) for p, q in zip(x, y)), max(map(abs, x))
            rel = delta / peak if peak else math.inf
            sizes.append(f"{name}: largest |delta| {delta:.3g}, {rel:.3g} of the peak {peak:.3g}")
    return sizes


def summary_sizes(old: bytes, new: bytes, rev: str) -> list[str]:
    """Per differing ``key: value`` line: the relative change of the value."""
    a, b = ({k: v for k, _, v in (line.partition(": ") for line in text.decode().splitlines())}
            for text in (old, new))
    sizes = []
    for key in [*a, *(k for k in b if k not in a)]:
        if key not in a or key not in b:
            sizes.append(f"{key}: only in {'head' if key in b else rev}")
        elif a[key] != b[key]:
            try:
                x, y = float(a[key]), float(b[key])
            except ValueError:
                sizes.append(f"{key}: not a number")
                continue
            rel = abs(y - x) / abs(x) if x else math.inf
            sizes.append(f"{key}: relative change {rel:.3g}")
    return sizes


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
                if file.endswith(".csv"):
                    sizes = csv_sizes(old[file], new[file])
                elif file == "summary.txt":
                    sizes = summary_sizes(old[file], new[file], args.rev)
                else:
                    sizes = []
                for line in sizes:
                    print(f"    size: {line}")
        print(f"{compared} outputs compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
