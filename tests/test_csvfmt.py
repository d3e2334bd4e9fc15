"""The vectorised ``%.17g`` formatter against Python's own, byte for byte."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import precursor_lab
from precursor_lab import _csvfmt


def _formatted(values):
    # the table of one column is its block, transposed
    return _csvfmt.join(_csvfmt.layout(values, "\n").T)


def _reference(values):
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def _check(values):
    got, ref = _formatted(values), _reference(values)
    if got != ref:
        pairs = zip(got.decode().splitlines(), ref.decode().splitlines())
        wrong = [(g, r) for g, r in pairs if g != r]
        pytest.fail(f"{len(wrong)} values differ, first: got {wrong[0][0]!r}, want {wrong[0][1]!r}")


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        values = np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def test_exact_decimal_ties_fall_back():
    # m / 2^(17-k) with m odd and k = floor(log10 x) is exactly halfway
    # between two 17-digit decimals: x 10^(16-k) = m 5^(16-k) / 2
    rng = np.random.default_rng(4)
    ties = [1000000000000000.25, 1000000000000000.75]
    for k in range(-7, 16):
        scale = 2.0 ** (17 - k)
        m = rng.integers(math.ceil(10.0**k * scale), int(min(10.0 ** (k + 1) * scale, 2.0**53)), 100) | 1
        ties.extend((m / scale).tolist())
    ties = np.array(ties)
    assert _csvfmt._digits(ties)[2].all()
    _check(_with_neighbours(ties))


def test_doubles_near_18_digit_decimals_ending_in_5():
    rng = np.random.default_rng(5)
    mantissas = rng.integers(10**16, 10**17, 3000)
    exponents = rng.integers(-320, 290, 3000)
    values = [float(f"{m}5e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    _check(_with_neighbours(values))


def test_powers_of_ten_over_the_exponent_range():
    _check(_with_neighbours([float(f"1e{p}") for p in range(-323, 309)]))


def test_fixed_and_exponent_switch_points():
    # %g turns to exponent notation below 1e-4 and from 1e17 on
    edges = [1e-5, 1e-4, 1e-3, 0.1, 1.0, 1e15, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999999.0,
             9999999999999999.0, 0.00099999999999999999]
    values = _with_neighbours(edges)
    _check(np.concatenate([values, values * (1 + 2.0**-50), values * (1 - 2.0**-50)]))


def test_zeros_stay_on_the_vector_path():
    values = np.array([0.0, -0.0, 1.5, 0.0, -0.0])
    assert not _csvfmt._digits(values)[2].any()
    assert _formatted(values) == b"0\n-0\n1.5\n0\n-0\n"


def test_three_digit_exponents_subnormals_and_zeros():
    values = [0.0, -0.0, 5e-324, 2.0**-1074 * 3, 2.0**-1022, 2.0**-1022 - 2.0**-1074, 1e-100, 1.5e-200,
              1.7976931348623157e308, 1e100, 1.234e-99, 1.234e-100]
    _check(_with_neighbours(values))


def test_integers_and_dyadic_fractions():
    rng = np.random.default_rng(6)
    _check(np.arange(-2000, 2000) * 1.0)
    _check(rng.integers(-2**53, 2**53, 4000) / 2.0 ** rng.integers(0, 80, 4000))


def test_random_bit_patterns():
    bits = np.random.default_rng(7).integers(0, 2**64, 50000, dtype=np.uint64, endpoint=False)
    _check(bits.view(np.float64))


def test_non_finite_values():
    _check([np.nan, np.inf, -np.inf, -np.nan, 1.0, np.nan])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_any_double(values):
    _check(values)


def test_columns_side_by_side(tmp_path):
    rng = np.random.default_rng(8)
    a, b, c = rng.standard_normal((3, 500)) * 10.0 ** rng.integers(-30, 30, (3, 500))
    _csvfmt.write_tables("a,b,c", [], [(tmp_path / "abc.csv", [a, b, c])])
    ref = "".join("%.17g,%.17g,%.17g\n" % row for row in zip(a.tolist(), b.tolist(), c.tolist()))
    assert (tmp_path / "abc.csv").read_bytes() == b"a,b,c\n" + ref.encode()


def test_columns_laid_out_together_match_one_call_per_column():
    # each column holds nan, +-inf, +-0, a subnormal, a tie and random doubles
    rng = np.random.default_rng(10)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1000000000000000.25, -np.nan]
    columns = [np.concatenate([rng.permutation(special), rng.standard_normal(30) * 10.0 ** rng.integers(-300, 300, 30)])
               for _ in range(4)]
    seps = ",;\n,"
    together = _csvfmt.layout(np.concatenate(columns), seps)
    apart = np.concatenate([_csvfmt.layout(column, sep) for column, sep in zip(columns, seps)], axis=1)
    assert together.tobytes() == apart.tobytes()


def test_non_finite_sweep_values_match_savetxt(tmp_path):
    header = "z,t_peak,peak_amp,rms_width,energy_ratio"
    columns = ([1.0, 2.0, 3.0], [np.nan, -np.inf, np.inf], [0.0, -0.0, 5e-324], [1e-310, 1e300, -1e-5],
               [np.nan, 1e16, 1e17])
    _csvfmt.write_tables(header, [], [(tmp_path / "sweep.csv", columns)])
    with (tmp_path / "ref.csv").open("w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_shared_column_tables_match_savetxt_over_a_partial_last_block(tmp_path):
    # two full blocks and 17 rows; each file overwrites its own two columns
    # of the buffer that holds the shared column once per block
    n = 2 * _csvfmt._CSV_BLOCK_ROWS + 17
    rng = np.random.default_rng(9)
    t = np.linspace(-3e-4, 5.0, n)
    files = [(tmp_path / f"s{i}.csv", list(rng.standard_normal((2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))))
             for i in range(3)]
    _csvfmt.write_tables("t,f,g", [t], files)
    for path, columns in files:
        with (tmp_path / "ref.csv").open("w") as fh:
            fh.write("t,f,g\n")
            np.savetxt(fh, np.column_stack([t, *columns]), fmt="%.17g", delimiter=",")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("rows,files,calls", [(1024, 6, 2), (4096, 5, 6), (4097, 1, 3), (3, 2, 1)])
def test_short_columns_share_layout_calls(tmp_path, monkeypatch, rows, files, calls):
    # whole columns of a block, the shared t first, share calls of up to
    # 4,096 values: the stochastic workload's 7 columns of 1,024 rows take 2
    layout, seen = _csvfmt.layout, []

    def counting(values, seps):
        seen.append(len(values))
        return layout(values, seps)

    monkeypatch.setattr(_csvfmt, "layout", counting)
    rng = np.random.default_rng(11)
    t = np.linspace(-30.0, 30.0, rows)
    outputs = [(tmp_path / f"s{i}.csv", [rng.standard_normal(rows)]) for i in range(files)]
    _csvfmt.write_tables("t,f", [t], outputs)
    assert len(seen) == calls and max(seen) <= _csvfmt._CSV_BLOCK_ROWS
    for path, columns in outputs:
        with (tmp_path / "ref.csv").open("w") as fh:
            fh.write("t,f\n")
            np.savetxt(fh, np.column_stack([t, *columns]), fmt="%.17g", delimiter=",")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_sweep_columns_share_one_layout_call(tmp_path, monkeypatch):
    layout, seen = _csvfmt.layout, []
    monkeypatch.setattr(_csvfmt, "layout", lambda values, seps: seen.append(seps) or layout(values, seps))
    _csvfmt.write_tables("z,t_peak,peak_amp,rms_width,energy_ratio", [], [(tmp_path / "sweep.csv", [[1.0, 2.0, 4.0]] * 5)])
    assert seen == [",,,,\n"]
    assert (tmp_path / "sweep.csv").read_bytes().splitlines()[1:] == [b"1,1,1,1,1", b"2,2,2,2,2", b"4,4,4,4,4"]


def test_import_loads_no_fractions_decimal_or_scipy():
    # the power table is built from Python integers on first use
    src = str(Path(precursor_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, precursor_lab, precursor_lab.cli\n"
        "precursor_lab._csvfmt.layout([0.1], ',')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('fractions', 'decimal', 'scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
