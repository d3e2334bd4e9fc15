#!/usr/bin/env python3
"""Compare the outputs of the pinned runs between a revision and this tree.

    python3 tools/compare_outputs.py REV

REV is any git revision of this repository.  It is unpacked with
``git archive`` into a temporary directory.  The cases are this tree's table,
``tools/cases.py``, which says what each one runs and why.  They run on each
tree in one subprocess, in-process through ``cases.run_all`` with that tree's
``src`` on ``PYTHONPATH``.  ``tests/test_cases.py`` checks the same outputs
against recorded digests; this tool shows where and how much they differ.

Every output of a case is compared byte for byte: its exit status, standard
output, standard error (each warning as one ``Category: message`` line) and
every file it writes.  One line is printed per differing file, with its first
differing lines, and then how large the differences are: for a CSV, the
largest |delta| in each differing column relative to that column's peak in
REV's output, on the times both outputs hold where the CSV has a ``t``
column (a grid moved by whole samples is reported as that shift); for
``summary.txt``, the relative change of each differing line's value.
Exit status: 0 when everything is identical, 1 on any difference, 2 when a
tree cannot be unpacked or its cases cannot run.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
SHOWN_LINES = 3  # differing lines printed per file
# run in a subprocess: argv is the directory of cases.py, a work directory and the file for the outputs
RUNNER = (
    "import pickle, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cases\n"
    "outputs = cases.run_all(cases.Path(sys.argv[2]))\n"
    "cases.Path(sys.argv[3]).write_bytes(pickle.dumps(outputs))\n"
)


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, capture_output=True, check=True)


def outputs_on(tree: Path, work: Path) -> dict[str, dict[str, bytes]]:
    """Case name -> output name -> bytes, every case run on ``tree`` in one subprocess."""
    result = work / "outputs.pickle"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", RUNNER, str(TOOLS), str(work), str(result)], env=env, cwd=work, check=True)
    return pickle.loads(result.read_bytes())


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
        runs = []
        for label, tree in ((args.rev, base), ("head", ROOT)):
            work = tmp / f"out-{len(runs)}"
            work.mkdir()
            try:
                runs.append(outputs_on(tree, work))
            except subprocess.CalledProcessError:
                print(f"cannot run the cases on {label}", file=sys.stderr)
                return 2
    differing = compared = 0
    old_cases, new_cases = runs
    for name in [*old_cases, *(n for n in new_cases if n not in old_cases)]:
        old, new = old_cases.get(name, {}), new_cases.get(name, {})
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
