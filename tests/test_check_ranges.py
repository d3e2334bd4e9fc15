"""The range rules of ``experiments.check_ranges``: extreme values on a given grid end in a run or in one line."""

import tempfile
from pathlib import Path

import cases
from hypothesis import given, settings
from hypothesis import strategies as st

EXTREMES = st.sampled_from([1e-12, 1e12, 1e-300, 1e300, 5e-324, 1.7e308, 0.5])


@st.composite
def propagate_on_a_given_grid(draw):
    n = draw(st.sampled_from([2, 3, 64, 1000]))
    dt, t0, T, omega0, z, a, v = (draw(EXTREMES) for _ in range(7))
    t0 *= draw(st.sampled_from([-1.0, 1.0]))
    kind = draw(st.sampled_from(["gaussian", "rect", "chirp-gaussian"]))
    alpha = f"alpha = {draw(EXTREMES)!r}\n" if kind == "chirp-gaussian" else ""
    return (
        f"experiment = propagate\nz = {z!r}\n[pulse]\nkind = {kind}\nT = {T!r}\nomega0 = {omega0!r}\n{alpha}"
        f"[medium]\nvariant = quadratic\na = {a!r}\nv = {v!r}\n[grid]\nn = {n}\ndt = {dt!r}\nt0 = {t0!r}\n"
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(text=propagate_on_a_given_grid())
def test_extreme_values_run_or_give_one_line(text):
    # exit 0 without a RuntimeWarning, or exit 1 with one line of standard error and no output directory
    with tempfile.TemporaryDirectory() as tmp:
        files = cases.run(cases.Case("extremes", text, "drawn"), Path(tmp))
        wrote = (Path(tmp) / "out").exists()
    status, err = files["<exit status>"], files["<stderr>"].decode()
    if status == b"0":
        assert "RuntimeWarning" not in err
    else:
        assert status == b"1"
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        assert not wrote
