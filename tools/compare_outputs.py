#!/usr/bin/env python3
"""Compare the outputs of a fixed set of runs between a revision and this tree.

    python3 tools/compare_outputs.py REV

REV is any git revision of this repository.  It is unpacked with
``git archive`` into a temporary directory, and every case below runs once
on it and once on the working tree, as ``python -m precursor_lab.cli`` with
that tree's ``src`` on ``PYTHONPATH``.  The cases are the two benchmark
workload configs (``perfbench/workloads/*.ini``, read and never written) at
seeds 1 and 7 with ``--threads`` 1, 2 and 4, and a chirp, a weak chirp whose
DC content underflows (``chirp-weak``), a chirp of width 9e153 whose phase
overflows far out on a given grid (``wide-chirp``, which runs: the chirp run's
DC content is exact, with no quadrature span to overflow), a two-layer slab,
two exp-kernel propagates (the second passes much of its spectrum up to
Nyquist), three csv-pulse propagates (a narrow pulse, one
spanning t = -200 to 200, and one at t = 1e9 that needs a given grid), a propagate on a given grid whose times cross
``%g``'s switch to exponent notation and hold an exact 0, a ``stochastic``
run on a given grid of 65,536 samples, a ``stochastic`` run of a rect pulse
at m = 0 whose spectrum reaches Nyquist, a ``stochastic`` run of 10,000 draws
at z = 4, 8 and 16 on the automatic grid with ``--threads`` 1 and 2, a
``stochastic`` run at m = 30, b = 1e12 and z = 1600 (the other cases take the
summary's rule probe at m = 1 only), the ``stochastic`` workload at 100 draws,
the least count, whose Monte Carlo mean has the tightest relative cut, the
``stochastic`` workload at 500 draws and seed 3 on given grids of 2,728 and
2,730 samples (``stochastic-rule-one-block`` and
``stochastic-rule-two-blocks``: sigma's rule fits one kernel block up to
1,365 bins, and takes two from 1,366), a ``sweep-z`` on a given grid of 10,000
samples through a layer stack, where most transfer bins are exact zeros and
every CSV ends in a partial block of rows, a ``verify`` run and one at seed -5,
a propagate at z = 1e-320, where the summary's probe frequency overflows,
and sixteen runs that are config errors: an automatic grid whose span
overflows, a pulse width whose square overflows, a chirp rate whose square
underflows, misspelled keys, a given grid whose Nyquist frequency squares to
inf, a chirp whose phase overflows on a far grid, a slab whose closed form
misses the grid, a chirp whose carrier squares to inf
(``chirp-carrier-overflow``), an empty ``[grid]`` and an empty ``[pulse]`` header, the ``stochastic``
workload at ``mc-samples = 10^13`` (a count whose draws no host can hold),
a propagate on a given grid of 2^45 samples (whose times alone would take
256 TiB; revisions that do not bound a given grid fail to allocate them at
once, with a traceback), a ``stochastic`` run without a depth and one without
an ``[ensemble]`` section, the ``sweep-z`` workload under ``--experiment
banana``, and a slab whose arrival time squares to inf (revisions before the
closed form's exponent was formed under ``np.errstate`` print a
``RuntimeWarning`` before the error),
two runs that revisions before each medium had its exact quadratic reduction
(``media.ExpKernelMedium.quadratic_reduction``) ran otherwise: a two-layer
stack of a quadratic and an exp-kernel layer on the automatic grid
(``layered-exp-kernel-auto-grid``, a one-line error before), and an
exp-kernel propagate at z = 50 (``exp-kernel-exact-reduction``, whose
automatic grid starts at t0 = -144.4, not -144.3, once a is exact),
two slabs through exp-kernel layers, which revisions whose slab check took
quadratic layers only (before ``_check_slab`` took its rule from
``media.effective_params``) reject as ``medium.layer[...]`` errors: the mixed
stack of the case above at z = 2, 4 and 8 (``slab-exp-kernel``, which runs)
and a layer of K = 1e-300 whose reduction underflows to a = 0
(``slab-exp-kernel-no-reduction``, still a one-line error, naming that reason),
and four runs on bad input files: a config whose first line holds a byte that
is not UTF-8, a csv pulse whose header is Latin-1, a csv pulse of 201 rows
whose peak row is mistyped as ``0.000000,1.0.0``, and a csv pulse whose rows
all have three fields, so that no row is two numbers.

A run computes its depths in order on one thread whatever ``--threads``
says, so the ``--threads`` variants check that the option has no effect:
against a revision that ran depths on a thread pool, that the serial path
keeps the pool's bytes.

The ``stochastic`` cases cover both paths of a Monte Carlo kernel block
(``stochastic._kernel_blocks``).  Blocks whose largest product passes 700
clamp their cut terms before ``exp``: all 3 of ``stochastic-few-draws``,
and 2 each of ``stochastic-rule-one-block`` and
``stochastic-rule-two-blocks``.  The rest skip the clamp: the workload's 24
per run, ``stochastic-many-draws`` 477, ``stochastic-wide-grid`` 667,
``stochastic-rect`` 96, ``stochastic-high-order`` 14 and 16 in each rule
case.  Of sigma's rule blocks, those of the workload, ``stochastic-rect``,
``stochastic-few-draws``, ``stochastic-many-draws`` and both rule cases all
take the clamp, ``stochastic-high-order``'s 6 all skip it, and
``stochastic-wide-grid`` clamps 36 and skips 28.

Every output file, the exit status and ``verify``'s standard output are
compared byte for byte.  So is standard error: a failing run's whole, and
otherwise its warnings, as one ``Category: message`` line each: the
``path:line:`` prefix and the echoed source line that follows it are
dropped, since they name where the warning was raised.  One line is printed per differing file, with its first
differing lines, and then how large the differences are: for a CSV, the
largest |delta| in each differing column relative to that column's peak in
REV's output, on the times both outputs hold where the CSV has a ``t``
column (a grid moved by whole samples is reported as that shift); for
``summary.txt``, the relative change of each differing line's value.
Exit status: 0 when everything is identical, 1 on any difference, 2 when a
tree cannot be unpacked.
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

# the stochastic workload at the least draw count, where the Monte Carlo
# mean's relative cut ln N + 60 ln 2 is the smallest
FEW_DRAWS_STOCHASTIC = """
experiment = stochastic
z-list = 0.5 1 2
mc-samples = 100
seed = 1
[pulse]
kind = gaussian
T = 1
[ensemble]
b = 2
m = 1
v = 1
"""

# the stochastic workload on given grids either side of the largest whose
# 1,365 bins let sigma's rule (96 nodes at m = 1) fit one kernel block: at
# n = 2,728 sigma forms that block once per depth, at n = 2,730 two blocks twice
RULE_ONE_BLOCK_STOCHASTIC = (
    FEW_DRAWS_STOCHASTIC.replace("mc-samples = 100", "mc-samples = 500").replace("seed = 1", "seed = 3")
    + "[grid]\nn = 2728\ndt = 0.04\nt0 = -54.56\n"
)
RULE_TWO_BLOCKS_STOCHASTIC = RULE_ONE_BLOCK_STOCHASTIC.replace("n = 2728", "n = 2730")

# the stochastic workload at a draw count whose draws would take 80 TB
HUGE_DRAWS_STOCHASTIC = FEW_DRAWS_STOCHASTIC.replace("mc-samples = 100", "mc-samples = 10000000000000")

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

# reduced modulo 2^64, as the ensemble draws reduce it
NEGATIVE_SEED_VERIFY = "experiment = verify\nseed = -5\n"

# b/z overflows, and with it the summary's probe frequency 0.05 sqrt(b/z)
TINY_DEPTH = """
experiment = propagate
z = 1e-320
[pulse]
kind = gaussian
T = 1
[medium]
variant = quadratic
a = 1
v = 1
"""

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


# a given grid of 10,000 samples, so every CSV ends in a partial block of
# 1,808 rows, through a stack whose transfer exponent passes -746 on most bins
LAYERED_SWEEP = """
experiment = sweep-z
z-list = 20 40 80
[pulse]
kind = gaussian
T = 1
omega0 = 2
[medium]
variant = layered
layer = 10 quadratic 1 1
layer = 20 exp-kernel 10 100
tail = free-space
[grid]
n = 10000
dt = 0.05
t0 = -100
"""

# 2 alpha^2 T^2 underflows to 0
TINY_CHIRP_RATE = CHIRP.replace("alpha = 20", "alpha = 1e-170")

# a given grid of 2^45 samples, whose times alone would take 256 TiB
HUGE_GIVEN_GRID = """
experiment = propagate
z = 100
[pulse]
kind = gaussian
T = 1
[medium]
variant = quadratic
a = 1
v = 1
[grid]
n = 35184372088832
dt = 0.1
t0 = -200
"""

# a key no section declares, at the top level and in two sections
MISSPELLED_KEYS = """
experiment = stochastic
z = 4
mc-sample = 200
[pulse]
kind = gaussian
T = 1
omega = 5
[ensemble]
b = 2
m = 1
v = 1
variant = quadratic
"""

# pi/dt squares to inf, and the free-space tail's 0.5 w^2/inf would be nan
TINY_SPACING = """
experiment = propagate
z = 10
[pulse]
kind = gaussian
T = 1
[medium]
variant = layered
layer = 1.6 quadratic 0.17 1.9
tail = free-space
[grid]
n = 256
dt = 1e-160
t0 = -1e-158
"""

# alpha t^2/2 overflows at both samples, where the envelope is 0
FAR_CHIRP = """
experiment = chirp
[pulse]
kind = chirp-gaussian
T = 0.277
omega0 = 0
alpha = 21.6
[grid]
n = 2
dt = 1e300
t0 = -1.65e300
"""

# with v = 1e-12 the thin-slab closed form arrives near t = 1.7e11, off the grid
SLAB_OFF_GRID = """
experiment = slab
z-list = 3.161883 3.435876 31.3092
[pulse]
kind = gaussian
T = 0.2126
omega0 = 0
[medium]
variant = layered
layer = 0.1657 quadratic 0.1996 1e-12
layer = 0.1223 quadratic 0.2515 0.2345
[grid]
n = 1000
dt = 0.0806
t0 = -40.76
"""


# alpha s^2/2 overflows from s = 1.9e154 on, where the envelope is 0; revisions
# whose chirp run integrated over |s| <= 12 T = 1.08e155 rejected it
WIDE_CHIRP = """
experiment = chirp
[pulse]
kind = chirp-gaussian
T = 9e153
omega0 = 0
alpha = 1
[grid]
n = 64
dt = 1e153
t0 = -3.2e154
"""

# the DC content, 10^-625, underflows; revisions that took it from quadrature
# printed 767.16 orders of quadrature noise, not the exact 156.30
WEAK_CHIRP = CHIRP.replace("omega0 = 1", "omega0 = 60").replace("alpha = 20", "alpha = 0.5")

# omega0^2 overflows; revisions without a carrier check ended in an OverflowError traceback
CARRIER_OVERFLOW_CHIRP = """
experiment = chirp
[pulse]
kind = chirp-gaussian
T = 1
omega0 = 1e200
alpha = 20
[grid]
n = 256
dt = 1
t0 = -128
"""

# a section header without keys counts as given
EMPTY_GRID = EXP_KERNEL + "[grid]\n"
EMPTY_PULSE = EXP_KERNEL.replace("kind = gaussian\nT = 1\nomega0 = 1\n", "")

# what the stochastic experiment needs, each left out
STOCHASTIC_WITHOUT_DEPTH = FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2\n", "")
STOCHASTIC_WITHOUT_ENSEMBLE = FEW_DRAWS_STOCHASTIC[: FEW_DRAWS_STOCHASTIC.index("[ensemble]")]

# with v = 1e-300 the closed form arrives at t = 1.3e300, and (t - 1.3e300)^2 overflows
SLAB_FAR_ARRIVAL = """
experiment = slab
z-list = 11 36
[pulse]
kind = gaussian
T = 1
[medium]
variant = layered
layer = 1.3 quadratic 0.37 1e-300
tail = free-space
[grid]
n = 4096
dt = 0.0125
t0 = -16.5
"""

# an exp-kernel layer under a quadratic one, on the automatic grid; revisions
# before each medium had its exact quadratic reduction reject it
LAYERED_EXP_KERNEL_AUTO_GRID = """
experiment = propagate
z-list = 1 2
[pulse]
kind = gaussian
T = 1
omega0 = 2
[medium]
variant = layered
layer = 0.5 quadratic 1 1
layer = 0.5 exp-kernel 10 100
tail = free-space
"""

# deep enough that the automatic grid's t0 shows the exact reduction
# a = K^3/(2 Kp) against the probe's, 1e-4 larger
EXP_KERNEL_EXACT_REDUCTION = """
experiment = propagate
z = 50
[pulse]
kind = gaussian
T = 1
[medium]
variant = exp-kernel
K = 2
Kp = 20
"""

# the mixed stack of layered-exp-kernel-auto-grid as a slab; revisions whose slab
# check took quadratic layers only reject it
EXP_KERNEL_SLAB = """
experiment = slab
z-list = 2 4 8
[pulse]
kind = gaussian
T = 1
[medium]
variant = layered
layer = 0.5 quadratic 1 1
layer = 0.5 exp-kernel 10 100
tail = free-space
"""

# K^2/Kp underflows, so the layer's reduction has a = 0: a config error either way
EXP_KERNEL_SLAB_NO_REDUCTION = """
experiment = slab
z-list = 4 8 16
[pulse]
kind = gaussian
T = 1
[medium]
variant = layered
layer = 2 exp-kernel 1e-300 1
tail = free-space
[grid]
n = 512
dt = 0.1
t0 = -14.1
"""

# the first line ends in the byte 0xff, which UTF-8 never uses
NON_UTF8_CONFIG = EXP_KERNEL.lstrip().encode().replace(b"propagate", b"propagate\xff", 1)


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


def latin1_pulse_csv(path: Path) -> None:
    """The narrow pulse's rows under a header that names microseconds in Latin-1."""
    pulse_csv(path)
    path.write_bytes(path.read_bytes().replace(b"t,f", b"t (\xb5s),f", 1))


def mistyped_pulse_csv(path: Path) -> None:
    """A unit Gaussian sampled at t = -5, -4.95, ..., 5, its peak row mistyped as ``0.000000,1.0.0``."""
    rows = [f"{(k - 100) / 20:.6f},{math.exp(-0.5 * ((k - 100) / 20) ** 2):.17g}" for k in range(201)]
    rows[100] = rows[100].replace(",1", ",1.0.0")
    path.write_text("t,f\n" + "\n".join(rows) + "\n")


def no_numeric_rows_csv(path: Path) -> None:
    """A header and two rows of three fields each, so that no row is two numbers t, f."""
    path.write_text("t,f,g\n0,1,2\n1,2,3\n")


def cases(inputs: Path) -> dict[str, tuple[Path, list[str]]]:
    """Case name -> (config file, extra CLI arguments)."""
    csv, wide, far = inputs / "pulse.csv", inputs / "wide-pulse.csv", inputs / "far-pulse.csv"
    latin1, mistyped = inputs / "latin1-pulse.csv", inputs / "mistyped-pulse.csv"
    no_numeric = inputs / "no-numeric-rows.csv"
    pulse_csv(csv)
    wide_pulse_csv(wide)
    far_pulse_csv(far)
    latin1_pulse_csv(latin1)
    mistyped_pulse_csv(mistyped)
    no_numeric_rows_csv(no_numeric)
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
        "stochastic-few-draws": FEW_DRAWS_STOCHASTIC,
        "stochastic-rule-one-block": RULE_ONE_BLOCK_STOCHASTIC,
        "stochastic-rule-two-blocks": RULE_TWO_BLOCKS_STOCHASTIC,
        "layered-sweep": LAYERED_SWEEP,
        "verify": VERIFY,
        "verify-negative-seed": NEGATIVE_SEED_VERIFY,
        "tiny-depth": TINY_DEPTH,
        "overflowing-grid": OVERFLOWING_GRID,
        "huge-pulse-width": HUGE_PULSE_WIDTH,
        "tiny-chirp-rate": TINY_CHIRP_RATE,
        "misspelled-keys": MISSPELLED_KEYS,
        "tiny-spacing": TINY_SPACING,
        "far-chirp": FAR_CHIRP,
        "slab-off-grid": SLAB_OFF_GRID,
        "wide-chirp": WIDE_CHIRP,
        "chirp-weak": WEAK_CHIRP,
        "chirp-carrier-overflow": CARRIER_OVERFLOW_CHIRP,
        "empty-grid": EMPTY_GRID,
        "empty-pulse": EMPTY_PULSE,
        "huge-mc-samples": HUGE_DRAWS_STOCHASTIC,
        "huge-given-grid": HUGE_GIVEN_GRID,
        "non-utf8-config": NON_UTF8_CONFIG,
        "latin1-csv-pulse": CSV_PULSE.format(csv=latin1),
        "mistyped-csv-pulse": CSV_PULSE.format(csv=mistyped),
        "csv-no-numeric-rows": CSV_PULSE.format(csv=no_numeric),
        "stochastic-without-depth": STOCHASTIC_WITHOUT_DEPTH,
        "stochastic-without-ensemble": STOCHASTIC_WITHOUT_ENSEMBLE,
        "slab-far-arrival": SLAB_FAR_ARRIVAL,
        "layered-exp-kernel-auto-grid": LAYERED_EXP_KERNEL_AUTO_GRID,
        "exp-kernel-exact-reduction": EXP_KERNEL_EXACT_REDUCTION,
        "slab-exp-kernel": EXP_KERNEL_SLAB,
        "slab-exp-kernel-no-reduction": EXP_KERNEL_SLAB_NO_REDUCTION,
    }
    out = {}
    for workload in ("sweep-z", "stochastic"):
        for seed in (1, 7):
            for threads in (1, 2, 4):
                args = ["--seed", str(seed), "--threads", str(threads)]
                out[f"{workload}-seed{seed}-threads{threads}"] = (WORKLOADS / f"{workload}.ini", args)
    out["unknown-experiment"] = (WORKLOADS / "sweep-z.ini", ["--experiment", "banana"])
    for name, text in texts.items():
        path = inputs / f"{name}.ini"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
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


def shared_times(ta, tb) -> tuple[int, list[tuple[int, int]]]:
    """How many samples ``tb``'s grid starts after ``ta``'s, and the row pairs (i, j) of one time.

    Times pair where they agree to 1e-6 of ``ta``'s spacing: a grid moved by
    whole samples may round its times apart.
    """
    dt = (ta[-1] - ta[0]) / (len(ta) - 1)
    shift = round((tb[0] - ta[0]) / dt)
    rows = range(max(0, -shift), min(len(tb), len(ta) - shift))
    return shift, [(j + shift, j) for j in rows if abs(ta[j + shift] - tb[j]) <= 1e-6 * dt]


def csv_sizes(old: bytes, new: bytes) -> list[str]:
    """Per differing column: the largest |delta| over the column's peak in ``old``.

    Rows pair by position, or, where both CSVs have a ``t`` column of at least
    two rows, by time: a grid moved by whole samples is reported as that shift,
    and the columns are compared on the times both files hold.
    """
    (names, a), (names_new, b) = csv_columns(old), csv_columns(new)
    if names != names_new:
        return ["columns differ"]
    sizes = []
    k = names.index("t") if "t" in names else -1
    if k >= 0 and len(a) == len(b) == len(names) and min(len(a[k]), len(b[k])) >= 2:
        shift, pairs = shared_times(a[k], b[k])
        if not pairs:
            return ["no shared t values"]
        moved = shift or len(pairs) < max(len(a[k]), len(b[k]))
        if moved:
            sizes.append(f"t: shifted by {shift:+d} samples, t0 {a[k][0]:.17g} -> {b[k][0]:.17g}; "
                         f"{len(pairs)} shared times of {len(a[k])} and {len(b[k])}")
        a = [[x[i] for i, _ in pairs] for x in a]
        b = [[y[j] for _, j in pairs] for y in b]
        if moved:  # paired times differ by rounding alone, and the line above reports the times
            b[k] = a[k]
    elif [len(c) for c in a] != [len(c) for c in b]:
        return ["rows differ"]
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
