#!/usr/bin/env python3
"""Show that each output checker accepts a real output and rejects corrupted ones.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload it runs one operation with
seed 1, checks the real output, then checks copies corrupted in one way
each: a signal scaled by 1.05 and a time column shifted by one sample.
Exits 0 when every real output passes and every corruption is rejected.
"""

import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run


def _rewrite(path: Path, scale: float = 1.0, shift: bool = False) -> None:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if shift:
        data[:, 0] += data[1, 0] - data[0, 0]
    data[:, 1] *= scale
    header = path.read_text().splitlines()[0]
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def _real_output(cli, workload: str, base: Path):
    run_dir = base / workload
    run_dir.mkdir(parents=True)
    config = run.write_config(workload, 1, run_dir)
    out_dir = run_dir / "real"
    status = cli.main([str(config), "--output-dir", str(out_dir), "--threads", "1"])
    return checks.read_params(config), out_dir, status


def main() -> int:
    cli = run.load_cli()
    base = run.OUT / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    results = []

    def expect(label: str, should_pass: bool, check, out_dir: Path, corrupt=None) -> None:
        target = out_dir
        if corrupt is not None:
            target = out_dir.with_name(label.replace(" ", "_").replace("/", "_"))
            shutil.copytree(out_dir, target)
            corrupt(target)
        try:
            check(target)
            passed, detail = True, "accepted"
        except checks.CheckError as exc:
            passed, detail = False, f"rejected: {exc}"
        ok = passed == should_pass
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")

    try:
        params, out_dir, status = _real_output(cli, "sweep-z", base)
        first = f"signal_{checks._depths(params)[0]:g}.csv"
        check = lambda d: checks.check_sweep_z(d, params)  # noqa: E731
        expect("sweep-z real output", status == 0, check, out_dir)
        expect("sweep-z scaled signal", False, check, out_dir, lambda d: _rewrite(d / first, scale=1.05))
        expect("sweep-z shifted t", False, check, out_dir, lambda d: _rewrite(d / first, shift=True))

        params, out_dir, status = _real_output(cli, "stochastic", base)
        reference = checks.StochasticReference(params)
        z = reference.depths[0]
        expect("stochastic real output", status == 0, reference.check, out_dir)
        for kind in ("signal", "mc_signal"):
            name = f"{kind}_{z:g}.csv"
            expect(f"stochastic scaled {name}", False, reference.check, out_dir,
                   lambda d, name=name: _rewrite(d / name, scale=1.05))
            expect(f"stochastic shifted t in {name}", False, reference.check, out_dir,
                   lambda d, name=name: _rewrite(d / name, shift=True))
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"selftest: {results.count(False)} of {len(results)} expectations not met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
