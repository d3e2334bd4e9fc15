#!/usr/bin/env python3
"""Every pinned run of the program, declared once, and the digests of its outputs.

    python3 tools/cases.py

runs every case of :data:`CASES` on this tree, prints each ``case/file``
whose digest differs from the recorded one (:func:`mismatches`), and
rewrites ``tests/golden/outputs.json``: the SHA-256 of each output of each
case, and the host they were made on (:func:`host`).  It takes no arguments.

The table is the one place a pinned run of the program is declared.  A case
is a config (text, or bytes that need not be UTF-8), its command-line
arguments, the input files it reads, one line saying why it is pinned and,
for a run that fails, its one line of standard error.  A case that names
another in ``same_as`` differs from it only where the program promises no
difference (the seed of an experiment that draws nothing), and the two must
give the same digest for every output.  Three readers use the table:
``tests/test_cases.py`` compares a fresh run's digests with the file and
each ``same_as`` pair's recorded digests with each other,
``tests/test_cli.py`` checks each failing case's line, and
``tools/compare_outputs.py`` runs the table on two trees and shows how large
each difference is.  That ``--threads`` changes no byte is checked on drawn
configs instead: ``tests/test_fuzz.py`` runs each through :func:`run` at
``--threads 1`` and ``--threads 2``.

:func:`run` runs one case in-process: ``cli.main`` with the directory of the
config and its input files as working directory, so a message naming a csv
file names it as the config does, with no temporary path.  Its outputs are
the exit status, standard output, standard error and every file the run
writes.  Warnings are reset per case, each shown once per place it is raised
(the ``default`` action, as in a fresh process), and written to standard
error as one ``Category: message`` line: where a warning was raised names
the checkout, not the run.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"
WORKLOADS = ROOT / "perfbench" / "workloads"  # read, never written


@dataclass(frozen=True)
class Case:
    name: str
    config: str | bytes | Path  # text, bytes that need not be UTF-8, or a file read when the case runs
    why: str
    args: tuple = ()
    inputs: dict = field(default_factory=dict)  # file name -> bytes, beside the config
    error: str | None = None  # a failing run's one line of standard error
    same_as: str | None = None  # the case whose every output this one's must equal


def _mistyped_pulse_csv() -> bytes:
    """A unit Gaussian at t = -5, -4.95, ..., 5, its peak row (line 102) mistyped as ``0.000000,1.0.0``."""
    rows = [f"{(k - 100) / 20:.6f},{math.exp(-0.5 * ((k - 100) / 20) ** 2):.17g}" for k in range(201)]
    rows[100] = rows[100].replace(",1", ",1.0.0")
    return ("t,f\n" + "\n".join(rows) + "\n").encode()


# a sampled two-sided exponential pulse, coarser than the grid it is resampled on
PULSE_CSV = ("\n".join(["t,f"] + [f"{0.25 * k:.2f},{2.0 ** -abs(k / 4):.17g}" for k in range(-40, 41)]) + "\n").encode()
# a Gaussian of width 50 sampled at t = -200, -199, ..., 200
WIDE_PULSE_CSV = ("\n".join(["t,f"] + [f"{t},{math.exp(-0.5 * (t / 50) ** 2):.17g}" for t in range(-200, 201)]) + "\n").encode()
# two samples at t = 1e9, which an automatic grid would need 2^34 samples to reach
FAR_PULSE_CSV = b"t,f\n1e9,1\n1.000000001e9,2\n"
# the narrow pulse's rows under a header that names microseconds in Latin-1
LATIN1_PULSE_CSV = PULSE_CSV.replace(b"t,f", b"t (\xb5s),f", 1)
MISTYPED_PULSE_CSV = _mistyped_pulse_csv()
# a header and two rows of three fields each, so that no row is two numbers t, f
NO_NUMERIC_ROWS_CSV = b"t,f,g\n0,1,2\n1,2,3\n"

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
file = {}
[medium]
variant = quadratic
a = 1
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

# sigma's rule (96 nodes at m = 1) fits one kernel block up to 1,365 bins (n = 2,728)
RULE_ONE_BLOCK_STOCHASTIC = (
    FEW_DRAWS_STOCHASTIC.replace("mc-samples = 100", "mc-samples = 500").replace("seed = 1", "seed = 3")
    + "[grid]\nn = 2728\ndt = 0.04\nt0 = -54.56\n"
)

# a propagate run, the base of most config errors
PROPAGATE = """
experiment = propagate
z = 100

[pulse]
kind = gaussian
T = 1
omega0 = 2

[medium]
variant = quadratic
a = 1
v = 1
"""

SWEEP = PROPAGATE.replace("experiment = propagate", "experiment = sweep-z").replace("z = 100", "z-list = 100 200 400")

# PROPAGATE with the body of its [medium] section left to fill in
MEDIUM = PROPAGATE.replace("variant = quadratic\na = 1\nv = 1", "{}")

# a slab at z-list 4 8 16 on a given grid, its layer left to fill in
GIVEN_GRID_SLAB = """
experiment = slab
z-list = 4 8 16

[pulse]
kind = gaussian
T = 1

[medium]
variant = layered
{}
tail = free-space
[grid]
n = 512
dt = 0.1
t0 = -14.1
"""

LAYERED_EXP_KERNEL = """
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

# FEW_DRAWS_STOCHASTIC on a given grid of 1,024 samples from t = -30
GIVEN_GRID_STOCHASTIC = FEW_DRAWS_STOCHASTIC + "[grid]\nn = 1024\ndt = 0.1\nt0 = -30\n"

# SWEEP and GIVEN_GRID_STOCHASTIC with a csv pulse read from pulse.csv
CSV_SWEEP = SWEEP.replace("kind = gaussian\nT = 1\nomega0 = 2", "kind = csv\nfile = pulse.csv")
CSV_STOCHASTIC = GIVEN_GRID_STOCHASTIC.replace("kind = gaussian\nT = 1", "kind = csv\nfile = pulse.csv")

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

CASES = [
    Case("sweep-z-seed1-threads1", WORKLOADS / "sweep-z.ini", "the sweep-z benchmark workload", ("--seed", "1", "--threads", "1")),
    Case("sweep-z-seed7-threads1", WORKLOADS / "sweep-z.ini", "sweep-z draws nothing, so its seed has no effect",
         ("--seed", "7", "--threads", "1"), same_as="sweep-z-seed1-threads1"),
    Case("stochastic-seed1-threads1", WORKLOADS / "stochastic.ini", "the stochastic benchmark workload",
         ("--seed", "1", "--threads", "1")),
    Case("stochastic-seed7-threads1", WORKLOADS / "stochastic.ini", "the stochastic workload's draws at a second seed",
         ("--seed", "7", "--threads", "1")),
    Case("unknown-experiment", WORKLOADS / "sweep-z.ini", "an --experiment override naming no experiment",
         ("--experiment", "banana"),
         error="config error: experiment: unknown experiment 'banana'; "
         "valid names: propagate, sweep-z, stochastic, chirp, slab, verify"),
    Case("chirp", CHIRP, "a chirp's DC content: exact, both estimates and the enhancement"),
    Case("slab", SLAB, "a two-layer slab against the thin-slab closed form"),
    Case("exp-kernel", EXP_KERNEL, "an exp-kernel propagate on the automatic grid"),
    Case(
        "weak-exp-kernel",
        EXP_KERNEL.replace("z-list = 5 20", "z-list = 0.5 1").replace("K = 10\nKp = 100", "K = 5\nKp = 25"),
        "an exp-kernel propagate that passes much of its spectrum up to Nyquist",
    ),
    Case("csv-pulse", CSV_PULSE.format("pulse.csv"), "a narrow csv pulse, resampled onto a finer grid",
         inputs={"pulse.csv": PULSE_CSV}),
    Case("wide-csv-pulse", CSV_PULSE.format("wide-pulse.csv"), "a csv pulse spanning t = -200 to 200",
         inputs={"wide-pulse.csv": WIDE_PULSE_CSV}),
    Case("far-csv-pulse", CSV_PULSE.format("far-pulse.csv"), "a csv pulse at t = 1e9 needs a given grid",
         inputs={"far-pulse.csv": FAR_PULSE_CSV},
         error="config error: grid: automatic grid needs 2^34 samples, more than 2^20; give a [grid] section"),
    Case(
        "format-edges",
        """
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
""",
        "a t column from -3e-4 through an exact 0 at dt = 1e-6 crosses %g's switch to exponent notation",
    ),
    # The stochastic cases take both paths of a Monte Carlo kernel block
    # (stochastic._kernel_blocks).  Blocks whose largest product passes 700
    # clamp their cut terms before exp: all 3 of stochastic-few-draws and 2 in
    # each rule case.  The rest skip it: the workload's 24 per run, 477 of
    # stochastic-many-draws, 667 of stochastic-wide-grid, 96 of stochastic-rect,
    # 14 of stochastic-high-order and 16 in each rule case.  Of sigma's rule
    # blocks, stochastic-high-order's 6 all skip the clamp, stochastic-wide-grid
    # clamps 36 and skips 28, and every other case's take it.
    Case(
        "stochastic-wide-grid",
        """
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
""",
        "65,536 samples, so the Monte Carlo mean and sigma run over blocks of a few rows each",
    ),
    Case(
        "stochastic-rect",
        """
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
""",
        "a rect spectrum reaches Nyquist, where the kernel terms the cut drops meet its largest weights",
    ),
    Case(
        "stochastic-high-order",
        """
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
""",
        "the highest order at a far scale and depth, so that the summary's rule probe runs at m = 30",
    ),
    Case("stochastic-few-draws", FEW_DRAWS_STOCHASTIC, "100 draws, whose Monte Carlo mean has the tightest relative cut"),
    Case("stochastic-rule-one-block", RULE_ONE_BLOCK_STOCHASTIC, "1,365 bins: sigma's rule fits one kernel block"),
    Case("stochastic-rule-two-blocks", RULE_ONE_BLOCK_STOCHASTIC.replace("n = 2728", "n = 2730"),
         "1,366 bins: sigma's rule takes two kernel blocks"),
    Case(
        "layered-sweep",
        """
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
""",
        "every CSV ends in a partial block of rows, and most transfer bins are exact zeros",
    ),
    Case("verify", "experiment = verify\nseed = 3\n", "every check of verify, printed on standard output"),
    Case("verify-negative-seed", "experiment = verify\nseed = -5\n", "a negative seed, reduced modulo 2^64"),
    Case("tiny-depth", PROPAGATE.replace("z = 100", "z = 1e-320").replace("omega0 = 2\n", ""),
         "b/z overflows, and with it the summary's probe frequency 0.05 sqrt(b/z)"),
    Case(
        "overflowing-grid",
        PROPAGATE.replace("z = 100", "z = 1e300").replace("omega0 = 2\n", "").replace("a = 1\n", "a = 1e-300\n"),
        "the medium's width sqrt(z/a) overflows, and so does the automatic grid's span",
        error="config error: grid: automatic grid needs infinitely many samples, more than 2^20; give a [grid] section",
    ),
    Case(
        "huge-pulse-width", PROPAGATE.replace("T = 1\nomega0 = 2", "T = 1e160"), "2T^2 overflows",
        error="config error: pulse: pulse width needs T^2 >= 2.22507e-308 and a finite 2T^2, got T=1e+160",
    ),
    Case(
        "tiny-chirp-rate", CHIRP.replace("alpha = 20", "alpha = 1e-170"), "2 alpha^2 T^2 underflows to 0",
        error="config error: pulse.alpha: chirp rate 1e-170 too small: 2 alpha^2 T^2 underflows to 0",
    ),
    Case(
        "misspelled-keys",
        """
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
""",
        "a key no section declares: the first is named with its line",
        error="config error: line 4: unknown key 'mc-sample'",
    ),
    Case(
        "tiny-spacing",
        """experiment = propagate
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
""",
        "pi/dt squares to inf, and the free-space tail's 0.5 w^2/inf would be nan",
        error="config error: grid.dt: spacing 1e-160 too small: the Nyquist frequency pi/dt squares to inf",
    ),
    Case(
        "far-chirp",
        """
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
""",
        "alpha t^2/2 overflows at both samples, where the envelope is 0",
        error="config error: pulse: zero at every sample of the grid (t from -1.65e+300 to -6.5e+299)",
    ),
    Case(
        "slab-off-grid",
        """experiment = slab
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
""",
        "with v = 1e-12 the thin-slab closed form arrives near t = 1.7e11, off the grid",
        error="config error: z: the thin-slab closed form at depth 3.16188 misses the grid (zero at every sample)",
    ),
    Case(
        "wide-chirp",
        """
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
""",
        "a width of 9e153 on a far grid: where alpha t^2/2 overflows, t^2 does too and the envelope is 0",
    ),
    Case("chirp-weak", CHIRP.replace("omega0 = 1", "omega0 = 60").replace("alpha = 20", "alpha = 0.5"),
         "the DC content, 10^-625, underflows: the enhancement is taken in logs"),
    Case(
        "chirp-carrier-square-overflows", CHIRP.replace("omega0 = 1", "omega0 = 1e200") + "[grid]\nn = 256\ndt = 1\nt0 = -128\n",
        "omega0^2 overflows",
        error="config error: pulse.omega0: carrier 1e+200 too large: omega0^2 or (omega0 T)^2 overflows",
    ),
    Case("empty-grid", EXP_KERNEL + "[grid]\n", "a section header without keys counts as given",
         error="config error: grid.n: missing"),
    Case("empty-pulse", EXP_KERNEL.replace("kind = gaussian\nT = 1\nomega0 = 1\n", ""),
         "a section header without keys counts as given", error="config error: pulse.kind: missing"),
    Case(
        "huge-mc-samples", FEW_DRAWS_STOCHASTIC.replace("mc-samples = 100", "mc-samples = 10000000000000"),
        "draws that would take 80 TB are refused before any is drawn",
        error="config error: mc-samples: need at most 16777216 samples (128 MiB of draws), got 10000000000000",
    ),
    Case(
        "huge-given-grid", PROPAGATE.replace("omega0 = 2\n", "") + "[grid]\nn = 35184372088832\ndt = 0.1\nt0 = -200\n",
        "a given grid of 2^45 samples, whose times alone would take 256 TiB, is refused before sampling",
        error="config error: grid.n: need at most 16777216 samples (128 MiB per array), got 35184372088832",
    ),
    Case(
        "non-utf8-config", EXP_KERNEL.lstrip().encode().replace(b"propagate", b"propagate\xff", 1),
        "the first line ends in the byte 0xff, which UTF-8 never uses",
        error="io-error: cannot read config: 'utf-8' codec can't decode byte 0xff in position 22: invalid start byte",
    ),
    Case("latin1-csv-pulse", CSV_PULSE.format("latin1-pulse.csv"), "a csv pulse whose header is Latin-1",
         inputs={"latin1-pulse.csv": LATIN1_PULSE_CSV},
         error="config error: pulse.file: latin1-pulse.csv line 1: not UTF-8 text"),
    Case("mistyped-csv-pulse", CSV_PULSE.format("mistyped-pulse.csv"), "a csv pulse whose peak row is mistyped",
         inputs={"mistyped-pulse.csv": MISTYPED_PULSE_CSV},
         error="config error: pulse.file: mistyped-pulse.csv line 102: not two numbers t, f"),
    Case("csv-no-numeric-rows", CSV_PULSE.format("no-numeric-rows.csv"), "a csv pulse with no row of two numbers",
         inputs={"no-numeric-rows.csv": NO_NUMERIC_ROWS_CSV},
         error="config error: pulse.file: no numeric (t, f) rows found in no-numeric-rows.csv"),
    Case("stochastic-without-depth", FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2\n", ""),
         "the stochastic experiment needs depths",
         error="config error: z: experiment 'stochastic' needs z or z-list"),
    Case("stochastic-without-ensemble", FEW_DRAWS_STOCHASTIC[: FEW_DRAWS_STOCHASTIC.index("[ensemble]")],
         "the stochastic experiment needs an ensemble",
         error="config error: ensemble: experiment 'stochastic' needs an [ensemble] section"),
    Case(
        "slab-far-arrival",
        """experiment = slab
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
""",
        "with v = 1e-300 the closed form arrives at t = 1.3e300, and (t - 1.3e300)^2 overflows",
        error="config error: z: the thin-slab closed form at depth 11 misses the grid (zero at every sample)",
    ),
    Case("layered-exp-kernel-auto-grid", LAYERED_EXP_KERNEL,
         "an exp-kernel layer's exact quadratic reduction sizes the automatic grid"),
    Case(
        "exp-kernel-exact-reduction",
        EXP_KERNEL.replace("z-list = 5 20", "z = 50").replace("omega0 = 1\n", "").replace("K = 10\nKp = 100", "K = 2\nKp = 20"),
        "deep enough that the automatic grid's t0 shows the exact reduction a = K^3/(2 Kp)",
    ),
    Case(
        "slab-exp-kernel",
        """
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
""",
        "a slab through an exp-kernel layer takes its exact reduction",
    ),
    Case(
        "slab-reduction-underflows", GIVEN_GRID_SLAB.format("layer = 2 exp-kernel 1e-300 1"),
        "K^2/Kp underflows, so the layer's reduction has a = 0",
        error="config error: medium: slab experiment needs a quadratic reduction of the stack "
        "(curvature scale must be positive, got a=0.0)",
    ),
    Case("stochastic-many-draws-threads1", MANY_DRAWS_STOCHASTIC,
         "10,000 draws: the Monte Carlo mean runs over 159 row blocks per depth", ("--threads", "1")),
    # config errors, each the one line its check gives
    Case("malformed-header", "[grid\n" + PROPAGATE, "a header without its bracket",
         error="config error: line 1: malformed section header '[grid'"),
    Case("empty-key", "= 5\n" + PROPAGATE, "a line with no key", error="config error: line 1: empty key"),
    Case("empty-value", "seed =\n" + PROPAGATE, "a key with no value",
         error="config error: line 1: empty value for key 'seed'"),
    Case("empty-output-dir-option", PROPAGATE, "an empty --output-dir would write into the working directory",
         ("--output-dir", ""), error="config error: output-dir: empty value"),
    Case("not-a-number", PROPAGATE.replace("z = 100", "z = deep"), "a depth that is not a number",
         error="config error: z: not a number: 'deep'"),
    Case("not-an-integer", "seed = 1.5\n" + PROPAGATE, "a seed that is not an integer",
         error="config error: seed: not an integer: '1.5'"),
    Case("csv-without-file", PROPAGATE.replace("kind = gaussian", "kind = csv"), "a csv pulse without its file",
         error="config error: pulse.file: csv pulse needs a file path"),
    Case("unknown-pulse-kind", PROPAGATE.replace("kind = gaussian", "kind = sawtooth"), "a pulse kind that does not exist",
         error="config error: pulse.kind: unknown kind 'sawtooth'; expected gaussian, rect, chirp-gaussian or csv"),
    Case("zero-width", PROPAGATE.replace("T = 1", "T = 0"), "a pulse of zero width",
         error="config error: pulse.T: pulse width must be positive"),
    Case("layer-too-short", MEDIUM.format("variant = layered\nlayer = 0.5"), "a layer line of one field",
         error="config error: medium.layer[0]: expected: <thickness> <variant> <params...>"),
    Case("quadratic-layer-arity", MEDIUM.format("variant = layered\nlayer = 0.5 quadratic 1"), "a quadratic layer without v",
         error="config error: medium.layer[0]: quadratic layer needs: thickness quadratic a v"),
    Case("exp-kernel-layer-arity", MEDIUM.format("variant = layered\nlayer = 0.5 exp-kernel 10"),
         "an exp-kernel layer without Kp",
         error="config error: medium.layer[0]: exp-kernel layer needs: thickness exp-kernel K Kp"),
    Case("layer-constructor", MEDIUM.format("variant = layered\nlayer = 0.5 quadratic -1 1"), "a layer of negative a",
         error="config error: medium.layer[0]: curvature scale must be positive, got a=-1.0"),
    Case("unknown-layer-variant", MEDIUM.format("variant = layered\nlayer = 0.5 glass 1 1"), "a layer variant that does not exist",
         error="config error: medium.layer[0]: unknown layer variant 'glass'"),
    Case("layered-without-layers", MEDIUM.format("variant = layered"), "a layered medium without layers",
         error="config error: medium.layer: layered medium needs layer lines"),
    Case("unknown-tail", MEDIUM.format("variant = layered\nlayer = 0.5 quadratic 1 1\ntail = mirror"), "a tail that does not exist",
         error="config error: medium.tail: expected free-space or none, got 'mirror'"),
    Case("unknown-medium-variant", MEDIUM.format("variant = glass"), "a medium variant that does not exist",
         error="config error: medium.variant: unknown variant 'glass'"),
    Case("z-and-z-list", "z-list = 1 2\n" + PROPAGATE, "both z and z-list",
         error="config error: z: give either z or z-list, not both"),
    Case("too-few-mc-samples", FEW_DRAWS_STOCHASTIC.replace("mc-samples = 100", "mc-samples = 99"), "fewer than 100 draws",
         error="config error: mc-samples: need at least 100 samples"),
    Case("zero-threads", "threads = 0\n" + PROPAGATE, "threads is checked", error="config error: threads: need at least 1 thread"),
    Case("zero-threads-option", PROPAGATE, "--threads is checked", ("--threads", "0"),
         error="config error: threads: need at least 1 thread"),
    Case("grid-constructor", PROPAGATE + "[grid]\nn = 1\ndt = 0.1\nt0 = 0\n", "a grid of one sample",
         error="config error: grid: grid needs at least 2 samples, got n=1"),
    Case("ensemble-constructor", FEW_DRAWS_STOCHASTIC.replace("b = 2", "b = -2"), "a negative ensemble scale",
         error="config error: ensemble: scale parameter must be positive, got b=-2.0"),
    Case("no-pulse", PROPAGATE.split("[pulse]")[0], "propagate needs a pulse",
         error="config error: pulse: experiment 'propagate' needs a [pulse] section"),
    Case("no-medium", PROPAGATE.split("[medium]")[0], "propagate needs a medium",
         error="config error: medium: experiment 'propagate' needs a [medium] section"),
    Case("propagate-without-depth", PROPAGATE.replace("z = 100", ""), "propagate needs depths",
         error="config error: z: experiment 'propagate' needs z or z-list"),
    Case("chirp-of-gaussian", CHIRP.replace("kind = chirp-gaussian", "kind = gaussian").replace("alpha = 20", ""),
         "the chirp experiment takes a chirp pulse only",
         error="config error: pulse.kind: chirp experiment needs kind = chirp-gaussian"),
    Case("chirp-of-csv", CHIRP.replace("kind = chirp-gaussian", "kind = csv\nfile = wave.csv"),
         "the chirp experiment takes no csv pulse, and reads no file",
         error="config error: pulse: chirp experiment needs an explicit chirp pulse"),
    Case("slab-of-quadratic", SLAB.replace("variant = layered\nlayer = 0.5 quadratic 1 1\nlayer = 1.0 quadratic 3 1.2\n"
                                           "tail = free-space", "variant = quadratic\na = 1\nv = 1"),
         "the slab experiment takes a layered medium only",
         error="config error: medium.variant: slab experiment needs a layered medium"),
    Case("slab-reduction-overflows", GIVEN_GRID_SLAB.format("layer = 2 exp-kernel 1e200 1e-100"),
         "the layer's reduction overflows",
         error="config error: medium: slab experiment needs a quadratic reduction of the stack "
         "(medium parameters must be finite (a may be inf), got a=inf, v=inf, ell_inv=0.0)"),
    Case("slab-mean-underflows", GIVEN_GRID_SLAB.format("layer = 2 quadratic 5e-310 1"),
         "a subnormal a whose inverse overflows leaves a harmonic mean of 0",
         error="config error: medium: slab experiment needs a quadratic reduction of the stack "
         "(curvature scale must be positive, got a=0.0)"),
    Case("automatic-grid-mean-underflows",
         MEDIUM.format("variant = layered\nlayer = 0.1 quadratic 1 1e-320\nlayer = 1 quadratic 1 1"),
         "a subnormal v leaves the automatic grid no reduction of the stack",
         error="config error: grid: automatic grid needs a quadratic reduction of the medium "
         "(velocity must be positive, got v=0.0); give a [grid] section"),
    Case("chirp-carrier-times-width-square-overflows",
         CHIRP.replace("T = 1\nomega0 = 1", "T = 100\nomega0 = 1e154") + "[grid]\nn = 256\ndt = 1\nt0 = -128\n",
         "(omega0 T)^2 overflows though omega0^2 does not",
         error="config error: pulse.omega0: carrier 1e+154 too large: omega0^2 or (omega0 T)^2 overflows"),
    # values whose squares or phases overflow, each refused where it comes in
    Case("grid-times-square-overflows", PROPAGATE.replace("omega0 = 2\n", "") + "[grid]\nn = 2\ndt = 1.7e308\nt0 = 0\n",
         "a given grid whose times square to inf, as the rms width squares them",
         error="config error: grid: times reach |t| = 1.7e+308, whose square overflows in the rms width"),
    Case("automatic-grid-times-square-overflows",
         PROPAGATE.replace("z = 100", "z-list = 1 2").replace("T = 1\nomega0 = 2", "T = 1e153"),
         "an automatic grid whose times square to inf: the same rule as for a given grid",
         error="config error: grid: times reach |t| = 1.69e+154, whose square overflows in the rms width"),
    Case("delay-phase-overflows-subnormal-v",
         PROPAGATE.replace("z = 100", "z-list = 1 2").replace("T = 1\nomega0 = 2", "T = 100")
         .replace("a = 1\nv = 1", "a = 6\nv = 5e-324") + "[grid]\nn = 64\ndt = 8\nt0 = -3\n",
         "w/v overflows on a given grid for a subnormal v",
         error="config error: z: the delay phase z w/v at depth 2 overflows at the grid's Nyquist frequency "
         "pi/dt = 0.392699"),
    Case("delay-phase-overflows-far-depth",
         PROPAGATE.replace("z = 100", "z = 1e10").replace("omega0 = 2\n", "")
         .replace("a = 1\nv = 1", "a = 1e300\nv = 1e-300") + "[grid]\nn = 64\ndt = 0.5\nt0 = -16\n",
         "w/v is finite on a given grid, and z times it overflows",
         error="config error: z: the delay phase z w/v at depth 1e+10 overflows at the grid's Nyquist frequency "
         "pi/dt = 6.28319"),
    Case("stochastic-delay-phase-overflows",
         FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2", "z = 1.7e308").replace("mc-samples = 100", "mc-samples = 200")
         .replace("T = 1", "T = 7").replace("b = 2\nm = 1\nv = 1", "b = 5\nm = 2\nv = 1.3")
         + "[grid]\nn = 1000\ndt = 0.004\nt0 = -2\n",
         "the ensemble's delay phase overflows on a given grid",
         error="config error: z: the delay phase z w/v at depth 1.7e+308 overflows at the grid's Nyquist frequency "
         "pi/dt = 785.398"),
    Case("stochastic-kernel-exponent-overflows",
         FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2", "z = 1.7e308").replace("b = 2\nm = 1\nv = 1", "b = 1\nm = 30\nv = 1")
         + "[grid]\nn = 64\ndt = 10\nt0 = -300\n",
         "z w^2 is finite, and a kernel block's largest exponent, the largest draw 1139/b times z w^2/2, overflows",
         error="config error: z: the absorption z Re gamma(w) at depth 1.7e+308 overflows at the grid's Nyquist frequency "
         "pi/dt = 0.314159"),
    Case("stochastic-kernel-exponent-overflows-two-depths",
         FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2", "z-list = 1e-300 1.7e308").replace("mc-samples = 100", "mc-samples = 400")
         .replace("kind = gaussian\nT = 1", "kind = rect\nT = 10\nomega0 = 3")
         .replace("b = 2\nm = 1\nv = 1", "b = 1.51\nm = 30\nv = 4.354") + "[grid]\nn = 3\ndt = 10\nt0 = -1\n",
         "the kernel block's overflow at the deepest depth is refused before the run meets the shallow depth's zero rms width",
         error="config error: z: the absorption z Re gamma(w) at depth 1.7e+308 overflows at the grid's Nyquist frequency "
         "pi/dt = 0.314159"),
    Case("stochastic-delay-phase-subnormal-v",
         FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2", "z = 5e-324").replace("b = 2\nm = 1\nv = 1", "b = 1\nm = 0\nv = 5e-324")
         + "[grid]\nn = 64\ndt = 1\nt0 = -8\n",
         "w z/v is 3 in floats, but numpy's complex division multiplies by 1/v = inf, so the run's phase is nan",
         error="config error: z: the delay phase z w/v at depth 4.94066e-324 overflows at the grid's Nyquist frequency "
         "pi/dt = 3.14159"),
    Case("stochastic-delay-phase-product-first",
         FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2", "z = 1.7e308").replace("b = 2\nm = 1\nv = 1", "b = 1e300\nm = 0\nv = 2")
         + "[grid]\nn = 64\ndt = 2\nt0 = -8\n",
         "w z overflows, though z (w/v) would not: the run forms w z first",
         error="config error: z: the delay phase z w/v at depth 1.7e+308 overflows at the grid's Nyquist frequency "
         "pi/dt = 1.5708"),
    Case("chirp-phase-overflows-in-propagate",
         PROPAGATE.replace("z = 100", "z = 1").replace("kind = gaussian\nT = 1\nomega0 = 2",
                                                       "kind = chirp-gaussian\nT = 1\nalpha = 1.7e308")
         + "[grid]\nn = 64\ndt = 0.5\nt0 = -16\n",
         "a chirp phase that overflows where the envelope is not 0, in an experiment other than chirp",
         error="config error: pulse.alpha: chirp rate 1.7e+308 too large: the phase alpha t^2/2 overflows "
         "where the envelope is not 0"),
    Case("stochastic-subnormal-scale",
         FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2", "z = 318").replace("mc-samples = 100", "mc-samples = 500")
         .replace("T = 1", "T = 5").replace("b = 2\nm = 1\nv = 1", "b = 5e-324\nm = 25\nv = 368")
         + "[grid]\nn = 3\ndt = 0.2\nt0 = -79\n",
         "a subnormal scale b, for which the largest draw overflows",
         error="config error: ensemble.b: scale 4.94066e-324 too small: the largest draw 955.157/b overflows"),
    Case("slab-subnormal-thickness",
         SLAB.replace("z-list = 2 4 8", "z-list = 0.3089 5.166")
         .replace("layer = 0.5 quadratic 1 1\nlayer = 1.0 quadratic 3 1.2\ntail = free-space",
                  "layer = 5e-324 quadratic 2.322 0.004136"),
         "a subnormal slab thickness, for which the closed form's a/(2 pi ell) overflows",
         error="config error: medium.layer: slab experiment needs a finite a/(2 pi ell), "
         "got a=inf over thickness ell=4.94066e-324"),
    Case("tiny-spacing-quadratic",
         PROPAGATE.replace("omega0 = 2", "omega0 = 0").replace("z = 100", "z = 10") + "[grid]\nn = 256\ndt = 1e-160\nt0 = -1e-158\n",
         "pi/dt squares to inf on a given grid, in a homogeneous medium",
         error="config error: grid.dt: spacing 1e-160 too small: the Nyquist frequency pi/dt squares to inf"),
    Case("automatic-grid-tiny-spacing", PROPAGATE.replace("T = 1\nomega0 = 2", "T = 2e-154").replace("z = 100", "z = 1e-300"),
         "the automatic spacing 0.1 T of the least width T, whose pi/dt squares to inf: the same rule as for a given grid",
         error="config error: grid: automatic grid spacing 2e-155 too small: the Nyquist frequency pi/dt squares to inf; "
         "give a coarser [grid] section"),
    Case("chirp-rate-square-underflows", CHIRP.replace("alpha = 20", "alpha = 1e-162"),
         "the largest rate at which 2 alpha^2 T^2 underflows to 0 (1e-160 runs)",
         error="config error: pulse.alpha: chirp rate 1e-162 too small: 2 alpha^2 T^2 underflows to 0"),
    *(
        Case(name, CHIRP.replace("alpha = 20", f"alpha = {alpha}") + "[grid]\nn = 1024\ndt = 0.1\nt0 = -20\n",
             "2 alpha^2 T^2 overflows on a given grid, which the automatic grid's own size rule cannot pre-empt",
             error=f"config error: pulse.alpha: chirp rate {alpha} too large: 2 alpha^2 T^2 overflows")
        for name, alpha in (("chirp-rate-square-overflows", "1e+155"), ("huge-chirp-rate", "1e+200"))
    ),
    Case("automatic-grid-carrier-spacing", PROPAGATE.replace("T = 1\nomega0 = 2", "T = 1e100\nomega0 = 1e300"),
         "the carrier's spacing 0.1 pi/omega0 is 1e-301, so span/dt overflows: the grid's size rule wins over the carrier's",
         error="config error: grid: automatic grid needs infinitely many samples, more than 2^20; give a [grid] section"),
    Case("ensemble-arrival-overflows",
         FEW_DRAWS_STOCHASTIC.replace("z-list = 0.5 1 2", "z = 1e300").replace("b = 2\nm = 1\nv = 1", "b = 1e-300\nm = 1\nv = 1e-300"),
         "the ensemble's arrival z/v and tail sqrt(z/b) overflow the automatic grid's span",
         error="config error: grid: automatic grid needs infinitely many samples, more than 2^20; give a [grid] section"),
    Case("tiny-pulse-width", PROPAGATE.replace("T = 1\n", "T = 1e-170\n") + "[grid]\nn = 1024\ndt = 0.05\nt0 = -20\n",
         "2T^2 underflows to 0, and the envelope would be 0/0 at t = 0",
         error="config error: pulse: pulse width needs T^2 >= 2.22507e-308 and a finite 2T^2, got T=1e-170"),
    *(
        Case(f"far-grid-carrier-{kind}",
             PROPAGATE.replace("z = 100", "z = 1").replace("kind = gaussian\nT = 1\nomega0 = 2", f"kind = {kind}\nT = 1\nomega0 = 1e10")
             + "[grid]\nn = 2\ndt = 1e300\nt0 = -1.65e300\n",
             "omega0 t overflows at both samples, where the pulse is 0: the pulse misses the grid",
             error="config error: pulse: zero at every sample of the grid (t from -1.65e+300 to -6.5e+299)")
        for kind in ("gaussian", "rect")
    ),
    Case("slab-far-arrival-automatic-grid",
         "experiment = slab\nz-list = 11 36\n[pulse]\nkind = gaussian\nT = 1\n"
         "[medium]\nvariant = layered\nlayer = 1.3 quadratic 0.37 1e-300\ntail = free-space\n",
         "slab-far-arrival on the automatic grid, whose span to t = 1.3e300 needs 2^1001 samples",
         error="config error: grid: automatic grid needs 2^1001 samples, more than 2^20; give a [grid] section"),
    Case("slab-inverse-velocity-underflows",
         SLAB.replace("z-list = 2 4 8", "z-list = 1 2")
         .replace("layer = 0.5 quadratic 1 1\nlayer = 1.0 quadratic 3 1.2", "layer = 5e-324 quadratic 1 4"),
         "a subnormal thickness over v = 4 rounds to 0, so the stack's mean velocity is inf",
         error="config error: medium: slab experiment needs a quadratic reduction of the stack "
         "(medium parameters must be finite (a may be inf), got a=1.0, v=inf, ell_inv=0.0)"),
    Case("carrier-phase-overflows",
         PROPAGATE.replace("z = 100", "z = 1").replace("omega0 = 2", "omega0 = 1e308") + "[grid]\nn = 64\ndt = 0.5\nt0 = -16\n",
         "omega0 t overflows where the envelope is not 0",
         error="config error: pulse.omega0: carrier 1e+308 too large: the phase omega0 t + alpha t^2/2 overflows "
         "at |t| = 16, where the pulse is not 0"),
    Case("grid-last-time-overflows",
         PROPAGATE.replace("z = 100", "z = 1").replace("omega0 = 2\n", "") + "[grid]\nn = 3\ndt = 1.7e308\nt0 = -465.8\n",
         "the least n at which the last time t0 + (n-1) dt overflows",
         error="config error: grid: the last time t0 + (n-1) dt = -465.8 + 2 x 1.7e+308 overflows"),
    Case("absorption-overflows-far-depth",
         PROPAGATE.replace("z = 100", "z-list = 301 1e300").replace("omega0 = 2\n", "").replace("a = 1\nv = 1", "a = 1e-10\nv = 1e10")
         + "[grid]\nn = 64\ndt = 0.5\nt0 = -16\n",
         "z w^2/2a overflows at the deepest depth, where the delay phase z w/v does not",
         error="config error: z: the absorption z Re gamma(w) at depth 1e+300 overflows at the grid's Nyquist frequency "
         "pi/dt = 6.28319"),
    *(
        Case(name, FEW_DRAWS_STOCHASTIC.replace(old, new), f"{new}: not a finite number",
             error=f"config error: {key}: not a finite number")
        for name, old, new, key in (("infinite-depth", "z-list = 0.5 1 2", "z = inf", "z"),
                                    ("nan-depth", "z-list = 0.5 1 2", "z = nan", "z"),
                                    ("nan-ensemble-scale", "b = 2", "b = nan", "ensemble.b"),
                                    ("infinite-pulse-width", "T = 1", "T = inf", "pulse.T"))
    ),
    *(
        Case(f"shape-order-{m}", FEW_DRAWS_STOCHASTIC.replace("m = 1", f"m = {m}"), "a shape order past the table's 30",
             error=f"config error: ensemble.m: shape order {m} exceeds the supported maximum 30")
        for m in (31, 200)
    ),
    Case("duplicate-depth", SWEEP.replace("z-list = 100 200", "z-list = 100 100 200"), "a depth given twice",
         error="config error: z-list: duplicate depth 100"),
    Case("duplicate-key", PROPAGATE.replace("v = 1\n", "v = 1\nv = 2\n"), "a key given twice names both lines",
         error="config error: line 14: duplicate key 'v' in [medium]; first given on line 13"),
    Case("depth-label-collision", PROPAGATE.replace("z = 100", "z-list = 100 100.0000001"),
         "two depths that would write the same signal_100.csv and summary keys",
         error="config error: z-list: depths 100 and 100.0000001 share the label 100"),
    Case("layered-exp-kernel-without-tail", LAYERED_EXP_KERNEL.replace("tail = free-space", "tail = none"),
         "depth 2 lies below the stack, which has no tail",
         error="config error: z: depth 2 lies past the stack thickness 1, and tail = none"),
    Case("sweep-past-stack-without-tail",
         SLAB.replace("experiment = slab", "experiment = sweep-z").replace("z-list = 2 4 8", "z-list = 2 3 5")
         .replace("tail = free-space", "tail = none"),
         "a sweep below a stack that has no tail names the deepest depth",
         error="config error: z: depth 5 lies past the stack thickness 1.5, and tail = none"),
    Case("slab-without-tail", SLAB.replace("tail = free-space", "tail = none"),
         "a slab with no tail fails at the experiment's check, before its closed forms are evaluated",
         error="config error: z: depth 8 lies past the stack thickness 1.5, and tail = none"),
    Case("exp-kernel-auto-grid-reduction-underflows", MEDIUM.format("variant = exp-kernel\nK = 1e-300\nKp = 1"),
         "v = K (K/Kp) underflows to 0, and so does a = K v/2: the automatic grid has no reduction",
         error="config error: grid: automatic grid needs a quadratic reduction of the medium "
         "(curvature scale must be positive, got a=0.0); give a [grid] section"),
    *(
        Case(name, MEDIUM.format(f"variant = exp-kernel\nK = {K}\nKp = {Kp}") + "[grid]\nn = 1024\ndt = 0.05\nt0 = -20\n",
             why, error="config error: medium: kernel parameters need K >= 2.22507e-308, Kp > 0 and a finite Kp/K, "
             f"got K={K}, Kp={value}")
        for name, K, Kp, value, why in (("exp-kernel-subnormal-K", "1e-310", "1", "1.0", "a subnormal K"),
                                        ("exp-kernel-Kp-over-K-overflows", "1e-300", "1e10", "10000000000.0", "Kp/K overflows"))
    ),
    # outputs with nothing to measure: each run warns about the grid before it fails, and prints only its line
    Case("zero-energy-output",
         "experiment = propagate\nz = 161.492\n[pulse]\nkind = gaussian\nT = 0.567025\nomega0 = 0\n"
         "[medium]\nvariant = exp-kernel\nK = 15.3623\nKp = 0.176393\n[grid]\nn = 64\ndt = 0.0299421\nt0 = -23.732\n",
         "the pulse's largest sample is 5e-323 and its output is identically zero",
         error="config error: z: the output at depth 161.492 has zero energy (every sample squares to 0)"),
    Case("zero-energy-sweep",
         "experiment = sweep-z\nz-list = 0.170386 7.46421 22.0418 159.868\n"
         "[pulse]\nkind = gaussian\nT = 0.746605\nomega0 = 13.0966\n"
         "[medium]\nvariant = exp-kernel\nK = 23.1156\nKp = 129.004\n[grid]\nn = 64\ndt = 0.38152\nt0 = -47.1183\n",
         "the pulse's largest sample is 2.1e-208, and every output sample squares to 0",
         error="config error: z: the output at depth 0.170386 has zero energy (every sample squares to 0)"),
    Case("zero-rms-width-far-depth",
         "experiment = propagate\nz-list = 1e6 0.1 1e-30\n[pulse]\nkind = gaussian\nT = 1e3\nomega0 = 1e3\n"
         "[medium]\nvariant = quadratic\na = 1\nv = 10\n[grid]\nn = 2\ndt = 1e154\nt0 = -1\n",
         "a two-sample grid on which the output at the first depth is one spike",
         error="config error: z: the output at depth 1e+06 has zero rms width"),
    Case("zero-rms-width-spike",
         "experiment = propagate\nz = 1e-300\n[pulse]\nkind = csv\nfile = spike.csv\n"
         "[medium]\nvariant = quadratic\na = 1e300\nv = 1e300\n",
         "a one-row pulse gives a 2-sample automatic grid, and the output is a one-sample spike",
         inputs={"spike.csv": b"t,f\n0,1\n"}, error="config error: z: the output at depth 1e-300 has zero rms width"),
    # csv pulse files that cannot be read, or that miss the grid
    Case("csv-non-finite-sample", CSV_PULSE.format("nan-pulse.csv"), "a sample that is nan",
         inputs={"nan-pulse.csv": b"t,f\n-1,0\n0,nan\n1,0\n"},
         error="config error: pulse.file: nan-pulse.csv line 3: not a finite number"),
    *(
        Case(f"csv-{name}", CSV_PULSE.format("rows.csv"), "a row after the first numeric row must be two numbers",
             inputs={"rows.csv": f"t,f\n-1,0\n\n0,1\n{line}\n1,0\n".encode()},
             error="config error: pulse.file: rows.csv line 5: not two numbers t, f")
        for name, line in (("three-fields", "1,2,3"), ("one-field", "0.5"), ("late-header", "t,f"), ("semicolon", "1;2"))
    ),
    *(
        Case(f"csv-not-utf8-{name}", CSV_PULSE.format("bytes.csv"), "the byte 0xff, which UTF-8 never uses",
             inputs={"bytes.csv": prefix + b"\xff1\n1,0\n"},
             error=f"config error: pulse.file: bytes.csv line {line}: not UTF-8 text")
        for name, prefix, line in (("first-line", b"", 1), ("third-line", b"t,f\n-1,0\n", 3),
                                   ("crlf-third-line", b"t,f\r\n-1,0\r\n0,", 3))
    ),
    *(
        Case(name, text, why, inputs={"pulse.csv": data},
             error=f"config error: pulse: zero at every sample of the grid (t from {span})")
        for name, text, data, span, why in (
            ("csv-all-zero-sweep", CSV_SWEEP, b"t,f\n-1,0\n0,0\n1,0\n", "-172.7 to 646.4", "a pulse whose every row is 0"),
            ("csv-off-grid-sweep", CSV_SWEEP + "[grid]\nn = 8192\ndt = 0.1\nt0 = -100\n", b"t,f\n1000,1\n1001,2\n",
             "-100 to 719.1", "a pulse at t = 1000, past a given grid's end; an automatic grid holds the file's times"),
            ("csv-all-zero-stochastic", CSV_STOCHASTIC, b"t,f\n-1,0\n0,0\n1,0\n", "-30 to 72.3", "a pulse whose every row is 0"),
            ("csv-off-grid-stochastic", CSV_STOCHASTIC, b"t,f\n1000,1\n1001,2\n", "-30 to 72.3",
             "a pulse at t = 1000, past a given grid's end"),
        )
    ),
    Case("rect-between-samples",
         GIVEN_GRID_STOCHASTIC.replace("kind = gaussian\nT = 1", "kind = rect\nT = 0.01").replace("t0 = -30", "t0 = -30.05"),
         "samples sit at +-0.05 around a rect that spans +-0.005",
         error="config error: pulse: zero at every sample of the grid (t from -30.05 to 72.25)"),
    Case("empty-medium", PROPAGATE.replace("variant = quadratic\na = 1\nv = 1\n", "# no keys\n"),
         "a section header without keys counts as given", error="config error: medium.variant: missing"),
]


def failing() -> list[Case]:
    """The cases whose run fails with one line of standard error."""
    return [case for case in CASES if case.error is not None]


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run(case: Case, workdir: Path) -> dict[str, bytes]:
    """Every output of one run of ``case`` on the ``precursor_lab`` that imports.

    The config and input files go to ``workdir/inputs``, the run's working
    directory, and the run writes to ``workdir/out``.  The result maps
    ``<exit status>``, ``<stdout>``, ``<stderr>`` and each written file's
    name to its bytes.  An exception that escapes ``cli.main`` is printed as a
    traceback with exit status 1, as the interpreter would.
    """
    from precursor_lab import cli  # the tree on sys.path, which compare_outputs sets per tree

    inputs, out = workdir / "inputs", workdir / "out"
    inputs.mkdir(parents=True)
    config = inputs / "case.ini"
    text = case.config.read_bytes() if isinstance(case.config, Path) else case.config
    config.write_bytes(text.encode() if isinstance(text, str) else text)
    for name, data in case.inputs.items():
        (inputs / name).write_bytes(data)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
            warnings.simplefilter("default")
            warnings.showwarning = _show_warning
            try:
                status = cli.main([config.name, "--output-dir", str(out), *case.args])
            except SystemExit as exc:
                status = exc.code
            except Exception:
                traceback.print_exc()
                status = 1
    finally:
        os.chdir(cwd)
    files = {"<exit status>": str(status).encode(), "<stdout>": stdout.getvalue().encode(),
             "<stderr>": stderr.getvalue().encode()}
    if out.is_dir():
        files.update((p.name, p.read_bytes()) for p in sorted(out.iterdir()))
    return files


def run_all(root: Path) -> dict[str, dict[str, bytes]]:
    """Every case's outputs, each run in ``root / <case name>``."""
    return {case.name: run(case, root / case.name) for case in CASES}


def digests(results) -> dict[str, dict[str, str]]:
    return {name: {file: hashlib.sha256(data).hexdigest() for file, data in files.items()}
            for name, files in results.items()}


def mismatches(recorded, current) -> list[str]:
    """One line per ``case/file`` whose digest differs, or that only one side has."""
    lines = []
    for name in [*recorded, *(n for n in current if n not in recorded)]:
        old, new = recorded.get(name, {}), current.get(name, {})
        for file in [*old, *(f for f in new if f not in old)]:
            if file not in new or file not in old:
                lines.append(f"{name}/{file}: {'not recorded' if file in new else 'not produced'}")
            elif old[file] != new[file]:
                lines.append(f"{name}/{file}: recorded {old[file][:12]}, now {new[file][:12]}")
    return lines


def _openblas_core() -> str | None:
    """The core the OpenBLAS bundled with numpy chose at load; None where no such library is found."""
    import numpy as np

    package = Path(np.__file__).resolve().parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def host() -> dict:
    """What the digests hold for: numpy's version, its float64 exp dispatch level and the OpenBLAS core.

    A Gaussian's samples take numpy's ``exp`` and the Monte Carlo mean a BLAS
    product, and each rounds by the CPU path it dispatches to.
    """
    import numpy as np

    try:
        from numpy.lib.introspect import opt_func_info  # numpy 2.0 on
    except ImportError:
        exp = None
    else:
        (exp,) = opt_func_info(func_name="^exp$", signature="float64.*")["exp"].values()
    return {"numpy": np.__version__, "exp": exp and exp["current"], "openblas_core": _openblas_core()}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="cases-") as tmp:
        outputs = digests(run_all(Path(tmp)))
    recorded = json.loads(GOLDEN.read_text())["outputs"] if GOLDEN.exists() else {}
    for line in mismatches(recorded, outputs):
        print(line)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"host": host(), "outputs": outputs}, indent=1) + "\n")
    print(f"{sum(map(len, outputs.values()))} digests of {len(outputs)} cases written to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} (takes no arguments)")
    sys.exit(main())
