"""The automatic grid: one tail-tolerance rule for every experiment."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precursor_lab import cli, experiments
from precursor_lab.config import parse_config
from precursor_lab.propagate import GridAdequacyWarning, _edge_mass_ok

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"


@pytest.mark.parametrize(
    "workload,grid",
    [("sweep-z", "n=32768 dt=0.1 t0=-352"), ("stochastic", "n=1024 dt=0.1 t0=-49.2")],
)
def test_workload_grids(workload, grid):
    cfg = parse_config((WORKLOADS / f"{workload}.ini").read_text())
    assert experiments._grid_entry(experiments.plan_grid(cfg, None)) == ("grid", grid)


def _pulse(draw, experiment, kinds=("gaussian", "rect")):
    T = draw(st.floats(0.5, 2.0))
    omega0 = draw(st.sampled_from([0.0, 1.0, 3.0]))
    kind = draw(st.sampled_from(kinds))
    return f"experiment = {experiment}\n[pulse]\nkind = {kind}\nT = {T!r}\nomega0 = {omega0!r}\n"


@st.composite
def quadratic(draw):
    a, v = draw(st.floats(0.2, 5.0)), draw(st.floats(0.5, 2.0))
    ell_inv = draw(st.sampled_from([0.0, 0.01]))
    z = draw(st.floats(0.1, 20.0))
    return _pulse(draw, "propagate") + (
        f"[medium]\nvariant = quadratic\na = {a!r}\nv = {v!r}\nell_inv = {ell_inv!r}\n"
    ), z


@st.composite
def exp_kernel(draw):
    # K above the pulse's band, where the quadratic reduction holds; no rect
    # pulse, as this medium passes e^(-z Kp/K) of its spectrum up to Nyquist,
    # where the sampled rect's does not vanish, and that rings over the grid
    K, v = draw(st.floats(5.0, 50.0)), draw(st.floats(0.5, 2.0))
    z = draw(st.floats(0.1, 20.0))
    return _pulse(draw, "propagate", ("gaussian",)) + (
        f"[medium]\nvariant = exp-kernel\nK = {K!r}\nKp = {K * K / v!r}\n"
    ), z


@st.composite
def layered(draw):
    layers = draw(st.lists(st.tuples(
        st.floats(0.1, 3.0), st.floats(0.2, 5.0), st.floats(0.5, 2.0)
    ), min_size=1, max_size=3))
    tail = draw(st.sampled_from(["free-space", "none"]))
    total = sum(thickness for thickness, _, _ in layers)
    z = draw(st.floats(0.05, 1.0)) * total
    if tail == "free-space":
        z += draw(st.floats(0.0, 5.0))
    lines = "".join(f"layer = {l!r} quadratic {a!r} {v!r}\n" for l, a, v in layers)
    return _pulse(draw, "propagate") + f"[medium]\nvariant = layered\n{lines}tail = {tail}\n", z


@st.composite
def ensemble(draw):
    b, m, v = draw(st.floats(1.0, 4.0)), draw(st.integers(0, 30)), draw(st.floats(0.5, 2.0))
    z = draw(st.floats(0.1, 2.0))
    return _pulse(draw, "stochastic") + (
        f"mc-samples = 100\n[ensemble]\nb = {b!r}\nm = {m}\nv = {v!r}\n"
    ), z


FAMILIES = {"quadratic": quadratic(), "exp-kernel": exp_kernel(), "layered": layered(),
            "stochastic": ensemble()}


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_automatic_grid_leaves_clear_edges(family, data):
    text, z = data.draw(FAMILIES[family])
    cfg = parse_config(f"z-list = {z / 2!r} {z!r}\n" + text)
    grid = experiments.plan_grid(cfg, None)
    assert grid.n <= 1 << 14
    assert abs(grid.t0 / grid.dt - round(grid.t0 / grid.dt)) < 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error", GridAdequacyWarning)
        f0 = experiments.load_pulse(cfg, grid, None)
        record = cli._EXPERIMENTS[cfg.experiment](cfg, grid, f0)
    for name, values in [("input", f0.values), *record.files]:
        assert _edge_mass_ok(values), name
