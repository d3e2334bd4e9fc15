import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import nullcontext
from pathlib import Path

import cases
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precursor_lab import _csvfmt, cli, propagate, stochastic
from precursor_lab import experiments, media, verify
from precursor_lab import grid as timegrid
from precursor_lab.cli import main, run
from precursor_lab.config import (
    KEYS,
    ConfigParseError,
    ConfigValidationError,
    parse_config,
)
from precursor_lab.grid import TimeGrid
from precursor_lab.media import LayerStack, QuadraticMedium
from precursor_lab.propagate import GridAdequacyWarning, _edge_mass_ok

MINIMAL = """
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

class TestParseConfig:
    def test_minimal_propagate_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.experiment == "propagate"
        assert cfg.z_values == (100.0,)
        assert cfg.grid is None  # automatic
        assert cfg.pulse.kind == "gaussian"
        assert isinstance(cfg.medium, QuadraticMedium)
        assert cfg.seed == 1

    def test_negative_depth_names_key(self):
        with pytest.raises(ConfigValidationError, match="z"):
            parse_config(MINIMAL.replace("z = 100", "z = -1"))

    def test_unknown_experiment_lists_valid_names(self):
        with pytest.raises(ConfigValidationError, match="sweep-z"):
            experiments.experiment(parse_config(MINIMAL.replace("experiment = propagate", "experiment = banana")))

    def test_parse_error_reports_line_number(self):
        bad = "experiment = propagate\nz 100\n"
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigParseError, match="line"):
            parse_config(MINIMAL + "\n[telemetry]\nx = 1\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# top\n" + MINIMAL.replace("z = 100", "z = 100  # trailing"))
        assert cfg.z_values == (100.0,)

    def test_layered_medium(self):
        text = MINIMAL.replace(
            "variant = quadratic\na = 1\nv = 1",
            "variant = layered\nlayer = 0.5 quadratic 1.0 1.0\nlayer = 0.5 exp-kernel 10 100\ntail = free-space",
        )
        cfg = parse_config(text)
        assert isinstance(cfg.medium, LayerStack)
        assert len(cfg.medium.layers) == 2

    def test_explicit_grid(self):
        cfg = parse_config(MINIMAL + "\n[grid]\nn = 4096\ndt = 0.05\nt0 = -50\n")
        assert cfg.grid.n == 4096

    def test_overrides_take_precedence(self):
        cfg = parse_config(MINIMAL, {"seed": 42, "output-dir": "elsewhere"})
        assert cfg.seed == 42
        assert cfg.output_dir == "elsewhere"

    def test_duplicate_key_names_both_lines(self):
        text = MINIMAL.replace("a = 1\n", "a = 1\na = 2\n")
        lines = text.splitlines()
        first = lines.index("a = 1") + 1
        with pytest.raises(
            ConfigParseError,
            match=rf"^line {first + 1}: duplicate key 'a' in \[medium\]; first given on line {first}$",
        ):
            parse_config(text)

    def test_duplicate_top_level_key(self):
        with pytest.raises(ConfigParseError, match="line 4: duplicate key 'z'; first given on line 3"):
            parse_config(MINIMAL.replace("z = 100", "z = 100\nz = 200"))

    def test_same_key_in_two_sections_is_not_duplicate(self):
        cfg = parse_config(MINIMAL + "[ensemble]\nb = 2\nm = 1\nv = 5\n")
        assert cfg.medium.v == 1.0 and cfg.ensemble.v == 5.0

    @pytest.mark.parametrize(
        "text,message",
        [
            ("mc-sample = 200\n" + MINIMAL, "line 1: unknown key 'mc-sample'"),
            (MINIMAL.replace("omega0 = 2", "omega = 2"), "line 8: unknown key 'omega' in [pulse]"),
            (MINIMAL + "[ensemble]\nvariant = quadratic\n", "line 15: unknown key 'variant' in [ensemble]"),
            (
                MINIMAL.replace("omega0 = 2", "omega0 = 2\nlayer = 1 quadratic 1 1"),
                "line 9: unknown key 'layer' in [pulse]",
            ),
        ],
    )
    def test_unknown_key_names_its_line(self, text, message):
        with pytest.raises(ConfigParseError, match=rf"^{re.escape(message)}$"):
            parse_config(text)

    def test_readme_names_every_key_by_section(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        for section, keys in KEYS.items():
            label = f"- `[{section}]`:" if section else "- top level:"
            line = next(line for line in readme if line.startswith(label))
            assert [key for key in keys if f"`{key}`" not in line] == []

    def test_override_is_not_duplicate(self):
        cfg = parse_config(MINIMAL.replace("z = 100", "z = 100\nseed = 3"), {"seed": 42})
        assert cfg.seed == 42

    def test_sweep_needs_three_depths(self):
        text = MINIMAL.replace("experiment = propagate", "experiment = sweep-z").replace(
            "z = 100", "z-list = 100 200"
        )
        with pytest.raises(ConfigValidationError, match="z-list"):
            experiments.experiment(parse_config(text))


class TestRunPropagate(object):
    def test_writes_signal_sweep_and_summary(self, tmp_path):
        cfg = parse_config(MINIMAL, {"output-dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        out = tmp_path / "out"
        assert (out / "signal_100.csv").exists()
        assert (out / "sweep.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "peak_amp[z=100]:" in summary
        assert "causality_metric:" in summary
        assert "zero_dc_closed_form_vs_series_ratio: 2" in summary
        assert "ensemble_kernel_log_ratio_quadrature_vs_closed_form: 0.5" in summary

    def test_csv_full_precision_roundtrip(self, tmp_path):
        cfg = parse_config(MINIMAL, {"output-dir": str(tmp_path)})
        run(cfg)
        lines = (tmp_path / "signal_100.csv").read_text().splitlines()
        assert lines[0] == "t,f"
        # 17 significant digits reproduce each double bit for bit
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        refmt = "\n".join(f"{a:.17g},{b:.17g}" for a, b in parsed)
        assert refmt == "\n".join(lines[1:])
        peak_line = next(l for l in (tmp_path / "summary.txt").read_text().splitlines()
                         if l.startswith("peak_amp[z=100]:"))
        assert np.abs(parsed[:, 1]).max() == pytest.approx(float(peak_line.split(": ")[1]), rel=1e-3)


class TestRunSweep:
    def test_decay_slope_reported(self, tmp_path):
        text = MINIMAL.replace("experiment = propagate", "experiment = sweep-z").replace(
            "z = 100", "z-list = 100 200 400 800 1600"
        )
        cfg = parse_config(text, {"output-dir": str(tmp_path)})
        assert run(cfg) == 0
        summary = dict(
            line.split(": ", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
        )
        slope = float(summary["decay_slope"])
        assert abs(slope + 0.5) < 0.01
        assert float(summary["decay_slope_stderr"]) < 0.01
        sweep = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "z,t_peak,peak_amp,rms_width,energy_ratio"
        assert len(sweep) == 6

    def test_threads_do_not_change_output(self, tmp_path):
        text = MINIMAL.replace("experiment = propagate", "experiment = sweep-z").replace(
            "z = 100", "z-list = 100 200 400"
        )
        cfg1 = parse_config(text, {"output-dir": str(tmp_path / "a"), "threads": 1})
        cfg2 = parse_config(text, {"output-dir": str(tmp_path / "b"), "threads": 4})
        run(cfg1)
        run(cfg2)
        for name in ("sweep.csv", "summary.txt", "signal_200.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


STOCHASTIC = """
experiment = stochastic
z = 4
mc-samples = 400
seed = 42

[pulse]
kind = gaussian
T = 1

[grid]
n = 1024
dt = 0.1
t0 = -30

[ensemble]
b = 2
m = 1
v = 1
"""


class TestRunStochastic:
    def test_outputs_and_determinism(self, tmp_path):
        cfg1 = parse_config(STOCHASTIC, {"output-dir": str(tmp_path / "r1")})
        cfg2 = parse_config(STOCHASTIC, {"output-dir": str(tmp_path / "r2")})
        assert run(cfg1) == 0
        assert run(cfg2) == 0
        for name in ("signal_4.csv", "mc_signal_4.csv", "sweep.csv", "summary.txt"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
        summary = (tmp_path / "r1" / "summary.txt").read_text()
        assert "mc_max_deviation_sigmas[z=4]:" in summary

    def test_summary_reports_laplace_identity_beside_quadrature(self, tmp_path):
        cfg = parse_config(STOCHASTIC, {"output-dir": str(tmp_path)})
        assert run(cfg) == 0
        summary = _summary(tmp_path)
        s = 0.05**2  # z w^2 / b at the probe frequency w = 0.05 sqrt(b / z)
        identity = float(summary["ensemble_kernel_log_ratio_laplace_identity"])
        assert identity == pytest.approx(np.log1p(s / 2) / np.log1p(s), rel=1e-15)
        quadrature = float(summary["ensemble_kernel_log_ratio_quadrature_vs_closed_form"])
        assert quadrature == pytest.approx(identity, abs=1e-9)

    @pytest.mark.parametrize("m", range(31))
    @pytest.mark.parametrize("b", ["1e-3", "2", "1e12"])
    def test_quadrature_log_ratio_is_the_identity_to_rounding(self, m, b):
        text = STOCHASTIC.replace("m = 1", f"m = {m}").replace("b = 2", f"b = {b}")
        entries = dict(experiments.discrepancy_entries(parse_config(text)))
        identity = float(entries["ensemble_kernel_log_ratio_laplace_identity"])
        quadrature = float(entries["ensemble_kernel_log_ratio_quadrature_vs_closed_form"])
        assert abs(quadrature - identity) < 5e-16
        s = 0.05**2  # z w^2 / b at the probe frequency w = 0.05 sqrt(b / z)
        assert quadrature == pytest.approx(np.log1p(s / 2) / np.log1p(s), rel=1e-15)

    def test_quadrature_log_ratio_where_twice_the_scale_overflows(self):
        # b >= 2^1023: the rule's lambda = z w^2 / 2b must not divide by 2b = inf
        text = STOCHASTIC.replace("b = 2", "b = 1e308").replace("z = 4", "z = 1")
        entries = dict(experiments.discrepancy_entries(parse_config(text)))
        identity = float(entries["ensemble_kernel_log_ratio_laplace_identity"])
        quadrature = float(entries["ensemble_kernel_log_ratio_quadrature_vs_closed_form"])
        assert quadrature == pytest.approx(identity, rel=1e-15)

    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL.replace("z = 100", "z = 1e-320").replace("omega0 = 2\n", ""),
            STOCHASTIC.replace("z = 4", "z = 1e-12").replace("mc-samples = 400", "mc-samples = 100")
            .replace("t0 = -30", "t0 = -20").replace("b = 2", "b = 1e300"),
        ],
        ids=["propagate-tiny-z", "stochastic-huge-b"],
    )
    def test_probe_is_finite_where_b_over_z_overflows(self, tmp_path, text):
        # the probe frequency 0.05 sqrt(b/z) is infinite: the ratios are taken
        # at the value s = z w^2 / b stands for, 0.05^2, and once read nan
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        summary = _summary(tmp_path / "o")
        s = 0.05**2
        for key in ("quadrature_vs_closed_form", "laplace_identity"):
            ratio = float(summary[f"ensemble_kernel_log_ratio_{key}"])
            assert ratio == pytest.approx(np.log1p(s / 2) / np.log1p(s), rel=1e-15)

    def test_missing_ensemble_rejected(self):
        text = STOCHASTIC[: STOCHASTIC.index("[ensemble]")]
        with pytest.raises(ConfigValidationError, match="ensemble"):
            experiments.experiment(parse_config(text))

    def test_rect_pulse_deviation_in_exact_sigmas(self, tmp_path):
        # the sample standard error of 100 draws read 525 and 514 sigma here
        path = tmp_path / "cfg.ini"
        path.write_text(RECT_STOCHASTIC)
        assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        summary = _summary(tmp_path / "o")
        for z in ("1", "2"):
            assert 0.0 < float(summary[f"mc_max_deviation_sigmas[z={z}]"]) < 4.0

    def test_input_transformed_once(self, tmp_path, monkeypatch):
        # one forward transform per run; per depth, one inverse for the
        # closed-form output and one for the Monte Carlo reference
        counts = {"forward": 0, "inverse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (cli, experiments, propagate, stochastic, timegrid):
            for name, attr in (("forward", "forward_transform"), ("inverse", "inverse_transform")):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
        text = STOCHASTIC.replace("z = 4", "z-list = 1 2 4")
        assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        assert counts == {"forward": 1, "inverse": 6}

    def test_media_drawn_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        sample = stochastic.sample_inverse_a

        def counted(*args):
            calls.append(args[1:])
            return sample(*args)

        monkeypatch.setattr(stochastic, "sample_inverse_a", counted)
        text = STOCHASTIC.replace("z = 4", "z-list = 1 2 4")
        assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        assert calls == [(400, 42)]


RECT_STOCHASTIC = """
experiment = stochastic
z-list = 1 2
mc-samples = 100
seed = -5

[pulse]
kind = rect
T = 1

[ensemble]
b = 2
m = 0
v = 1
"""


AUTO_STOCHASTIC = """
experiment = stochastic
z-list = 0.5 2
mc-samples = 400
seed = 7

[pulse]
kind = gaussian
T = 1

[ensemble]
b = 2
m = {m}
v = 1
"""


def _case(name):
    (case,) = [case for case in cases.CASES if case.name == name]
    return case


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a child interpreter."""
    src = str(Path(propagate.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _summary(out_dir):
    return dict(line.split(": ", 1) for line in (out_dir / "summary.txt").read_text().splitlines())


def _signal(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


class TestStochasticAutoGrid:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_matches_previous_grid_and_keeps_edges_clear(self, tmp_path, m):
        # the grid this experiment used before: 40(m+1) decay lengths of
        # margin, a span of ten margins past the arrival, t0 five margins back
        text = AUTO_STOCHASTIC.format(m=m)
        T, b, z_max, dt = 1.0, 2.0, 2.0, 0.1
        margin = max(T, 40.0 * (m + 1) * np.sqrt(z_max / b))
        n_old = 1 << int(np.ceil(np.log2((z_max + 10.0 * margin) / dt)))
        old_text = text + f"\n[grid]\nn = {n_old}\ndt = {dt}\nt0 = {-5.0 * margin}\n"
        assert run(parse_config(text, {"output-dir": str(tmp_path / "auto")})) == 0
        assert run(parse_config(old_text, {"output-dir": str(tmp_path / "old")})) == 0
        assert f"n={n_old} " in _summary(tmp_path / "old")["grid"]
        for name in ("signal_0.5.csv", "signal_2.csv", "mc_signal_0.5.csv", "mc_signal_2.csv"):
            t_new, f_new = _signal(tmp_path / "auto" / name)
            t_old, f_old = _signal(tmp_path / "old" / name)
            assert t_new.size < t_old.size
            k = int(round((t_new[0] - t_old[0]) / dt))
            assert np.abs(t_old[k : k + t_new.size] - t_new).max() < 1e-9
            peak = np.abs(f_old).max()
            assert np.abs(f_old[k : k + t_new.size] - f_new).max() < 1e-12 * peak
            assert _edge_mass_ok(f_new)

    def test_threads_do_not_change_output(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(AUTO_STOCHASTIC.format(m=1))
        for threads in ("1", "2"):
            out = str(tmp_path / f"t{threads}")
            assert main([str(path), "--output-dir", out, "--threads", threads]) == 0
        for name in ("signal_0.5.csv", "signal_2.csv", "mc_signal_0.5.csv", "mc_signal_2.csv",
                     "sweep.csv", "summary.txt"):
            assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        m=st.sampled_from([0, 1, 2, 5]),
        b=st.floats(0.5, 8.0),
        depths=st.lists(st.integers(5, 80), min_size=2, max_size=3, unique=True),
        samples=st.integers(100, 400),
    )
    def test_threads_do_not_change_random_ensemble_runs(self, m, b, depths, samples):
        # depths from 0.25 to 4 in steps of 0.05, on the automatic grid
        text = (
            AUTO_STOCHASTIC.format(m=m).replace("b = 2", f"b = {b!r}")
            .replace("z-list = 0.5 2", "z-list = " + " ".join(f"{k / 20:g}" for k in depths))
            .replace("mc-samples = 400", f"mc-samples = {samples}")
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, outputs = Path(tmp) / "cfg.ini", []
            path.write_text(text)
            for threads in ("1", "2"):
                out = Path(tmp) / f"t{threads}"
                assert main([str(path), "--output-dir", str(out), "--threads", threads]) == 0
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 2 * len(depths) + 2 and outputs[0] == outputs[1]


class TestThreadsDeterministic:
    @pytest.mark.parametrize("experiment", ["sweep-z", "stochastic", "slab"])
    def test_no_run_starts_a_thread(self, tmp_path, monkeypatch, experiment):
        # on a host of many CPUs, --threads 8 still computes every depth in the calling thread
        def refuse(thread):
            raise AssertionError(f"the run started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        text = {"sweep-z": SWEEP, "stochastic": AUTO_STOCHASTIC.format(m=1), "slab": SLAB}[experiment]
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert main([str(path), "--output-dir", str(tmp_path / "out"), "--threads", "8"]) == 0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        experiment=st.sampled_from(["propagate", "sweep-z"]),
        medium=st.one_of(
            st.builds("variant = quadratic\na = {!r}\nv = 1".format, st.floats(0.1, 8.0)),
            st.builds("variant = exp-kernel\nK = {!r}\nKp = {!r}".format, st.floats(2.0, 10.0), st.floats(5.0, 50.0)),
        ),
        T=st.floats(0.5, 2.0),
        omega0=st.sampled_from([0.0, 2.0]),
        depths=st.lists(st.integers(1, 16), min_size=3, max_size=4, unique=True),
        propagate_depths=st.integers(2, 4),
    )
    @example("sweep-z", "variant = quadratic\na = 0.1\nv = 1", 0.5, 2.0, [1, 8, 16], 2)  # n = 4,096
    @example("propagate", "variant = exp-kernel\nK = 2.0\nKp = 50.0", 0.5, 2.0, [16, 4, 1], 2)  # n = 4,096
    def test_threads_do_not_change_random_propagation_runs(
        self, experiment, medium, T, omega0, depths, propagate_depths
    ):
        # depths from 0.25 to 4 in steps of 0.25, 2 to 4 of them (sweep-z needs
        # 3), on the automatic grid, which stays at most 4,096 samples
        if experiment == "propagate":
            depths = depths[:propagate_depths]
        text = (
            f"experiment = {experiment}\nz-list = {' '.join(f'{k / 4:g}' for k in depths)}\n"
            f"[pulse]\nkind = gaussian\nT = {T!r}\nomega0 = {omega0!r}\n[medium]\n{medium}\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, outputs = Path(tmp) / "cfg.ini", []
            path.write_text(text)
            for threads in ("1", "2"):
                out = Path(tmp) / f"t{threads}"
                assert main([str(path), "--output-dir", str(out), "--threads", threads]) == 0
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            n = int(_summary(Path(tmp) / "t1")["grid"].split()[0].removeprefix("n="))
        assert n <= 4096 and len(outputs[0]) == len(depths) + 2 and outputs[0] == outputs[1]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        layers=st.lists(
            st.tuples(
                st.floats(0.1, 1.0),
                st.one_of(
                    st.tuples(st.just("quadratic"), st.floats(0.5, 5.0), st.floats(0.5, 2.0)),
                    # K and Kp = K^2/v, whose reduction has velocity v
                    st.builds(lambda K, v: ("exp-kernel", K, K * K / v), st.floats(2.0, 10.0), st.floats(0.5, 2.0)),
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        T=st.floats(0.5, 2.0),
        past=st.lists(st.integers(1, 8), min_size=2, max_size=3, unique=True),
    )
    def test_threads_do_not_change_random_slab_runs(self, layers, T, past):
        # depths from 0.5 to 4 past the stack, in steps of 0.5, on the automatic grid
        total = sum(thickness for thickness, _ in layers)
        text = (
            f"experiment = slab\nz-list = {' '.join(repr(total + k / 2) for k in past)}\n"
            f"[pulse]\nkind = gaussian\nT = {T!r}\n[medium]\nvariant = layered\n"
            + "".join(f"layer = {l!r} {kind} {p!r} {q!r}\n" for l, (kind, p, q) in layers)
            + "tail = free-space\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, outputs = Path(tmp) / "cfg.ini", []
            path.write_text(text)
            for threads in ("1", "2"):
                out = Path(tmp) / f"t{threads}"
                assert main([str(path), "--output-dir", str(out), "--threads", threads]) == 0
                outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == len(past) + 2 and outputs[0] == outputs[1]


CHIRP = """
experiment = chirp

[pulse]
kind = chirp-gaussian
T = 1
omega0 = 10
alpha = 20
"""


class TestRunChirp:
    def test_reports_all_three_estimates(self, tmp_path):
        cfg = parse_config(CHIRP, {"output-dir": str(tmp_path)})
        assert run(cfg) == 0
        summary = dict(
            line.split(": ", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
        )
        assert float(summary["chirp_dc_exact"]) == pytest.approx(-0.0800250490822739, abs=1e-6)
        assert float(summary["chirp_enhancement_orders"]) > 10.0
        assert float(summary["chirp_dc_rel_err_stationary_phase"]) < 0.15

    @pytest.mark.parametrize("omega0", [38, 39, 40])
    def test_enhancement_finite_where_the_unchirped_value_underflows(self, tmp_path, omega0):
        # sqrt(2 pi) exp(-omega0^2 / 2) is subnormal at 38 and 0 past it
        text = CHIRP.replace("omega0 = 10", f"omega0 = {omega0}")
        assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        summary = _summary(tmp_path)
        exact = float(summary["chirp_dc_exact"])
        log_form = np.log10(abs(exact)) - np.log10(np.sqrt(2 * np.pi)) + omega0**2 / (2 * np.log(10))
        assert float(summary["chirp_enhancement_orders"]) == pytest.approx(log_form, rel=1e-14)

    def test_weak_chirp_reports_the_exact_magnitude_in_logs(self, tmp_path):
        # at omega0 = 60 the DC content, 10^-625, underflows; its log and the enhancement do not
        text = CHIRP.replace("omega0 = 10", "omega0 = 60").replace("alpha = 20", "alpha = 0.5")
        with pytest.warns(UserWarning, match="alpha\\*T\\^2 >> 1"):
            assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        summary = _summary(tmp_path)
        assert float(summary["chirp_dc_exact"]) == 0.0
        assert float(summary["chirp_dc_exact_log10_abs"]) == pytest.approx(-625.0353, abs=1e-4)
        assert float(summary["chirp_enhancement_orders"]) == pytest.approx(156.2957, abs=1e-4)
        assert float(summary["chirp_dc_rel_err_stationary_phase"]) == 1.0

    @pytest.mark.parametrize(
        "pulse,orders",
        [
            # (omega0 T)^2 = 1e308: orders over an unchirped value that underflows
            ("omega0 = 1e154\nalpha = 20", 2.166e307),
            # omega0^2 / alpha overflows, and its cosine would be nan: both estimates' envelope is 0, and so are they
            ("omega0 = 1e150\nalpha = 1e-160", 0.0),
        ],
        ids=["carrier-square-near-the-largest-float", "estimate-argument-overflows"],
    )
    def test_extreme_chirp_writes_finite_values(self, tmp_path, pulse, orders):
        text = CHIRP.replace("omega0 = 10\nalpha = 20", pulse) + "[grid]\nn = 256\ndt = 1\nt0 = -128\n"
        weak = pytest.warns(UserWarning, match="alpha\\*T\\^2 >> 1") if "e-160" in pulse else nullcontext()
        with weak:
            assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        summary = _summary(tmp_path)
        for key, value in summary.items():
            if key not in ("experiment", "pulse", "strong_chirp_regime"):
                assert np.isfinite(float(value)), key
        assert float(summary["chirp_enhancement_orders"]) == pytest.approx(orders, rel=1e-3, abs=1e-9)

    def test_run_leaves_out_scipy(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(CHIRP)
        code = (
            "import sys\nfrom precursor_lab.cli import main\n"
            f"assert main([{str(path)!r}, '--output-dir', {str(tmp_path / 'o')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_zero_dc_ratio_is_computed(self, tmp_path, monkeypatch):
        assert run(parse_config(CHIRP, {"output-dir": str(tmp_path / "a")})) == 0
        assert _summary(tmp_path / "a")["zero_dc_closed_form_vs_series_ratio"] == "2"
        closed_form = propagate.zero_dc_rect_output
        monkeypatch.setattr(
            propagate, "zero_dc_rect_output", lambda *args: 1.5 * closed_form(*args)
        )
        assert run(parse_config(CHIRP, {"output-dir": str(tmp_path / "b")})) == 0
        ratio = float(_summary(tmp_path / "b")["zero_dc_closed_form_vs_series_ratio"])
        assert ratio == pytest.approx(3.0, rel=1e-15)

    def test_width_whose_phase_overflows_far_out_runs(self, tmp_path):
        # alpha s^2/2 overflows from s = 1.9e154 on; the exact form is sqrt(pi) as alpha T^2 -> inf at omega0 = 0
        wide = CHIRP.replace("T = 1\nomega0 = 10\nalpha = 20", "T = 9e153\nomega0 = 0\nalpha = 1")
        text = wide + "[grid]\nn = 64\ndt = 1e153\nt0 = -3.2e154\n"
        assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        summary = _summary(tmp_path)
        for key, value in summary.items():
            if key not in ("experiment", "pulse", "strong_chirp_regime"):
                assert np.isfinite(float(value)), key
        assert float(summary["chirp_dc_exact"]) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_largest_rate_whose_square_is_finite_is_accepted(self):
        parse_config(CHIRP.replace("alpha = 20", "alpha = 1e153"))

    def test_least_rate_whose_square_is_subnormal_runs(self, tmp_path):
        text = CHIRP.replace("omega0 = 10", "omega0 = 1").replace("alpha = 20", "alpha = 1e-160")
        with pytest.warns(UserWarning, match="alpha\\*T\\^2 >> 1"):
            assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        assert np.isfinite(float(_summary(tmp_path)["chirp_dc_closed_form"]))

    def test_wrong_pulse_kind_rejected(self):
        with pytest.raises(ConfigValidationError, match="chirp-gaussian"):
            parse_config(CHIRP.replace("kind = chirp-gaussian", "kind = gaussian"))


SLAB = """
experiment = slab
z-list = 2 4 8

[pulse]
kind = gaussian
T = 1

[medium]
variant = layered
layer = 1.0 quadratic 0.01 2e8
tail = free-space
"""


class TestRunSlab:
    def test_closed_form_agreement_and_frozen_width(self, tmp_path):
        cfg = parse_config(SLAB, {"output-dir": str(tmp_path)})
        assert run(cfg) == 0
        summary = dict(
            line.split(": ", 1) for line in (tmp_path / "summary.txt").read_text().splitlines()
        )
        for z in (2, 4, 8):
            assert float(summary[f"slab_peak_rel_err[z={z}]"]) < 0.05
        widths = [float(summary[f"rms_width[z={z}]"]) for z in (2, 4, 8)]
        assert max(widths) / min(widths) < 1.01

    def test_depth_inside_slab_rejected(self):
        with pytest.raises(ConfigValidationError, match="z"):
            experiments.experiment(parse_config(SLAB.replace("z-list = 2 4 8", "z-list = 0.5 2 4")))

    @pytest.mark.parametrize(
        "layers,depths,rel_err,width",
        [
            ("layer = 2 exp-kernel 10 100", (4, 8, 16), 0.464090, None),
            ("layer = 20 exp-kernel 10 100", (40, 80, 160), 0.104281, None),
            ("layer = 20 exp-kernel 50 2500", (40, 80, 160), 0.333257, None),
            ("layer = 1 exp-kernel 10 50000", (2, 4, 8), 0.0048889, 7.10607),
            ("layer = 0.5 quadratic 1 1\nlayer = 0.5 exp-kernel 10 100", (2, 4, 8), 0.387289, None),
        ],
        ids=["K10-thin", "K10-thick", "K50", "slow", "mixed"],
    )
    def test_exp_kernel_layers_take_their_reduction(self, tmp_path, layers, depths, rel_err, width):
        # each exp-kernel layer enters the closed form through its exact quadratic reduction:
        # (a, v) = (5, 1), (5, 1), (25, 1), (0.01, 0.002), and the mixed stack's harmonic means
        text = SLAB.replace("z-list = 2 4 8", f"z-list = {' '.join(map(str, depths))}").replace(
            "layer = 1.0 quadratic 0.01 2e8", layers
        )
        assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0
        summary = _summary(tmp_path)
        for z in depths:
            assert float(summary[f"slab_peak_rel_err[z={z}]"]) == pytest.approx(rel_err, abs=1e-4)
        if width is not None:  # frozen past the stack, as the thin-slab form has it
            widths = [float(summary[f"rms_width[z={z}]"]) for z in depths]
            assert widths == pytest.approx([width] * len(depths), abs=1e-5)
            assert max(widths) - min(widths) < 1e-9

    def test_unchirped_chirp_experiment_rejected(self):
        with pytest.raises(ConfigValidationError, match="alpha"):
            experiments.experiment(parse_config(CHIRP.replace("alpha = 20", "alpha = 0")))


class TestCsvPulseIngestion:
    def test_resampled_onto_grid(self, tmp_path):
        src = tmp_path / "wave.csv"
        t = np.linspace(-3, 3, 601)
        src.write_text("t,f\n" + "\n".join(f"{a},{np.exp(-a*a/2)}" for a in t))
        text = MINIMAL.replace(
            "kind = gaussian\nT = 1\nomega0 = 2", f"kind = csv\nfile = {src}"
        ) + "\n[grid]\nn = 8192\ndt = 0.05\nt0 = -100\n"
        cfg = parse_config(text, {"output-dir": str(tmp_path / "out")})
        assert run(cfg) == 0
        assert (tmp_path / "out" / "signal_100.csv").exists()

    @pytest.mark.filterwarnings("error::precursor_lab.propagate.GridAdequacyWarning")
    def test_wide_pulse_on_the_automatic_grid(self, tmp_path, monkeypatch):
        # two hundred times the width T = 1 that sets a csv pulse's spacing
        src = tmp_path / "wave.csv"
        rows = "".join(f"{t},{np.exp(-0.5 * (t / 50) ** 2):.17g}\n" for t in range(-200, 201))
        src.write_text("t,f\n" + rows)
        text = MINIMAL.replace("z = 100", "z-list = 10 40").replace(
            "kind = gaussian\nT = 1\nomega0 = 2", f"kind = csv\nfile = {src}"
        )
        reads = []
        read = experiments.read_pulse_csv
        monkeypatch.setattr(experiments, "read_pulse_csv", lambda cfg: reads.append(cfg) or read(cfg))
        assert run(parse_config(text, {"output-dir": str(tmp_path / "out")})) == 0
        assert len(reads) == 1
        t, _ = _signal(tmp_path / "out" / "signal_40.csv")
        assert t[0] < -200 and t[-1] > 240

    def test_automatic_grid_holds_the_file_times(self, tmp_path):
        src = tmp_path / "wave.csv"
        src.write_text("t,f\n1000,1\n1001,2\n")
        text = MINIMAL.replace("kind = gaussian\nT = 1\nomega0 = 2", f"kind = csv\nfile = {src}")
        cfg = parse_config(text)
        rows = experiments.read_pulse_csv(cfg)
        grid = experiments.plan_grid(cfg, rows)
        assert grid.t0 < 0 and grid.t0 + grid.n * grid.dt > 1101
        assert experiments.load_pulse(cfg, grid, rows).values.max() > 1.5


def _savetxt_bytes(path, header, columns):
    """The reference the CSV writer must match byte for byte."""
    with path.open("w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")
    return path.read_bytes()


class TestCsvWriter:
    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.0**-1022, 1.7976931348623157e308,
               -1.7976931348623157e308, 3.0, -42.0, 1e16, 2.0**53 + 2, 0.1, np.inf, np.nan]

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 32768])
    def test_bytes_match_savetxt(self, tmp_path, n):
        rng = np.random.default_rng(n)
        t = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        f = np.resize(np.array(self.SPECIAL), n)
        f[len(self.SPECIAL)::3] = rng.integers(-10**6, 10**6, f[len(self.SPECIAL)::3].size)
        _csvfmt.write_tables("t,f", [], [(tmp_path / "got.csv", (t, f))])
        ref = _savetxt_bytes(tmp_path / "ref.csv", "t,f", (t, f))
        assert (tmp_path / "got.csv").read_bytes() == ref

    def test_sweep_layout_from_python_floats(self, tmp_path):
        header = "z,t_peak,peak_amp,rms_width,energy_ratio"
        columns = (
            [100.0, 200.0, 400.0],
            [100.5, 201.0, 402.25],
            [0.1, -0.0, 5e-324],
            [1.7976931348623157e308, 2.0, 3.0],
            [1 / 3, 2 / 3, 1.0],
        )
        _csvfmt.write_tables(header, [], [(tmp_path / "sweep.csv", columns)])
        ref = _savetxt_bytes(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "sweep.csv").read_bytes() == ref

    def test_sweep_run_matches_savetxt_rewrite(self, tmp_path):
        text = MINIMAL.replace("experiment = propagate", "experiment = sweep-z").replace(
            "z = 100", "z-list = 100 200 400"
        )
        assert run(parse_config(text, {"output-dir": str(tmp_path / "o")})) == 0
        for name in ("signal_100.csv", "signal_200.csv", "signal_400.csv", "sweep.csv"):
            got = (tmp_path / "o" / name).read_bytes()
            header = got.split(b"\n", 1)[0].decode()
            # %.17g round-trips, so the parsed columns are the written ones
            data = np.loadtxt(tmp_path / "o" / name, delimiter=",", skiprows=1, ndmin=2)
            assert got == _savetxt_bytes(tmp_path / "ref.csv", header, data.T)


class TestSignalWriter:
    EDGE = [-0.0, 0.0, 5e-324, -5e-324, 2.0**-1022, 1.7976931348623157e308,
            -1.7976931348623157e308, 3.0, -42.0, 1e16, 2.0**53 + 2, 0.1]

    def _files(self, rng, n, count):
        files = []
        for k in range(count):
            values = np.resize(np.array(self.EDGE), n)
            values[k::count + 1] = rng.integers(-10**6, 10**6, values[k::count + 1].size)
            values[k + 1::count + 2] = rng.standard_normal(values[k + 1::count + 2].size)
            files.append((f"signal_{k}.csv", values))
        return files

    def _check(self, tmp_path, t, files):
        _csvfmt.write_tables("t,f", [t], [(tmp_path / name, [values]) for name, values in files])
        for name, values in files:
            ref = _savetxt_bytes(tmp_path / "ref.csv", "t,f", (t, values))
            assert (tmp_path / name).read_bytes() == ref

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 32768])
    def test_files_on_one_time_column_match_savetxt(self, tmp_path, n):
        rng = np.random.default_rng(n)
        t = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        self._check(tmp_path, t, self._files(rng, n, 3))

    def test_grid_crossing_zero(self, tmp_path):
        t = TimeGrid(n=5000, dt=0.1, t0=-250.0).times()
        assert t[0] < 0 < t[-1]
        self._check(tmp_path, t, self._files(np.random.default_rng(0), t.size, 2))

    def test_stochastic_pair_written_in_one_pass(self, tmp_path, monkeypatch):
        calls, write = [], _csvfmt.write_tables

        def spy(header, shared, files):
            calls.append([path.name for path, _ in files])
            return write(header, shared, files)

        monkeypatch.setattr(_csvfmt, "write_tables", spy)
        text = STOCHASTIC.replace("z = 4", "z-list = 2 4")
        assert run(parse_config(text, {"output-dir": str(tmp_path / "o")})) == 0
        names = ["signal_2.csv", "signal_4.csv", "mc_signal_2.csv", "mc_signal_4.csv"]
        assert calls == [names, ["sweep.csv"]]
        for name in names:
            got = (tmp_path / "o" / name).read_bytes()
            data = np.loadtxt(tmp_path / "o" / name, delimiter=",", skiprows=1)
            assert got == _savetxt_bytes(tmp_path / "ref.csv", "t,f", data.T)


SWEEP = MINIMAL.replace("experiment = propagate", "experiment = sweep-z").replace(
    "z = 100", "z-list = 100 200 400"
)


class TestSweepGridWarnings:
    def test_edge_heavy_input(self, tmp_path):
        # the pulse is cut three widths before its centre
        text = SWEEP + "\n[grid]\nn = 8192\ndt = 0.1\nt0 = -3\n"
        with pytest.warns(GridAdequacyWarning, match="input signal"):
            assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0

    def test_grid_too_short_for_output(self, tmp_path):
        # the grid ends at t = 82, before the arrival at z = 400
        text = SWEEP + "\n[grid]\nn = 1024\ndt = 0.1\nt0 = -20\n"
        with pytest.warns(GridAdequacyWarning, match="propagated signal"):
            assert run(parse_config(text, {"output-dir": str(tmp_path)})) == 0


class TestMainEntry:
    def test_exit_codes(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(MINIMAL)
        assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        assert main([str(tmp_path / "missing.ini")]) == 1
        bad = tmp_path / "bad.ini"
        bad.write_text(MINIMAL.replace("z = 100", "z = -5"))
        assert main([str(bad)]) == 1

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        # the second call takes the config's seed, not the first call's override
        path = tmp_path / "cfg.ini"
        path.write_text(STOCHASTIC)
        assert cli._parser() is cli._parser()
        assert main([str(path), "--output-dir", str(tmp_path / "a"), "--seed", "5"]) == 0
        assert main([str(path), "--output-dir", str(tmp_path / "b")]) == 0
        assert _summary(tmp_path / "a")["seed"] == "5"
        assert _summary(tmp_path / "b")["seed"] == "42"

    def test_help_and_usage_errors(self, tmp_path, capsys):
        # twice, the second time on the parser the first built
        path = tmp_path / "cfg.ini"
        path.write_text(MINIMAL)
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: precursor-lab [-h]") and "--threads THREADS" in out
            for argv in ([], [str(path), "--seed", "five"], [str(path), "--colour", "red"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert capsys.readouterr().err.startswith("usage: precursor-lab [-h]")

    def test_unwritable_output_dir(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(MINIMAL)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main([str(path), "--output-dir", str(blocker)]) == 1

    def test_mc_samples_at_the_bound_parse(self):
        cfg = parse_config(STOCHASTIC.replace("mc-samples = 400", f"mc-samples = {1 << 24}"))
        assert cfg.mc_samples == 1 << 24

    def test_mc_samples_past_the_bound_rejected(self):
        # through the parser only: nothing is drawn, so no count is allocated
        text = STOCHASTIC.replace("mc-samples = 400", f"mc-samples = {(1 << 24) + 1}")
        with pytest.raises(ConfigValidationError, match=r"^mc-samples: need at most 16777216 samples"):
            parse_config(text)

    def test_given_grid_at_the_bound_parses(self):
        cfg = parse_config(MINIMAL + f"[grid]\nn = {1 << 24}\ndt = 0.1\nt0 = -200\n")
        assert cfg.grid.n == 1 << 24

    def test_given_grid_past_the_bound_rejected(self):
        # through the parser only: no grid is sampled, so nothing is allocated
        text = MINIMAL + f"[grid]\nn = {(1 << 24) + 1}\ndt = 0.1\nt0 = -200\n"
        with pytest.raises(ConfigValidationError, match=r"^grid\.n: need at most 16777216 samples"):
            parse_config(text)

    def test_layered_auto_grid_reduces_exp_kernel_layers(self, tmp_path):
        # the exp-kernel layer's exact reduction is a = 5, v = 1
        files = cases.run(_case("layered-exp-kernel-auto-grid"), tmp_path)
        assert files["<stderr>"] == b""
        assert "grid: n=512 dt=0.1 t0=-15.3\n" in files["summary.txt"].decode()

    def test_exp_kernel_auto_grid_reduction_does_not_overflow(self, tmp_path):
        # K^3 overflows, but a = K (K/Kp) K/2 = 5e299 and v = 1e100 do not
        text = (
            "experiment = propagate\nz = 1\n[pulse]\nkind = gaussian\nT = 1\n"
            "[medium]\nvariant = exp-kernel\nK = 1e200\nKp = 1e300\n"
        )
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        assert _summary(tmp_path / "o")["grid"] == "n=256 dt=0.1 t0=-8.6"

    @pytest.mark.parametrize("K", ["1e-300", "1e-160", "1e200"])
    def test_exp_kernel_extreme_K_on_a_given_grid(self, tmp_path, K):
        # K^2, the rational form's denominator at w = 0, under- or overflows
        text = MINIMAL.replace(
            "variant = quadratic\na = 1\nv = 1", f"variant = exp-kernel\nK = {K}\nKp = 1"
        ) + "\n[grid]\nn = 1024\ndt = 0.05\nt0 = -20\n"
        assert f"K = {K}" in text
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        # at the two tiny K the output reaches the edges of this short grid
        edge = pytest.warns(GridAdequacyWarning, match="propagated signal")
        with nullcontext() if K == "1e200" else edge:
            assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        summary = _summary(tmp_path / "o")
        for key, value in summary.items():
            if key not in ("experiment", "medium", "grid"):
                assert np.isfinite(float(value)), key
        assert np.isfinite(_signal(tmp_path / "o" / "signal_100.csv")[1]).all()

    def test_exp_kernel_run_is_silent(self, tmp_path, capsys):
        # the transfer is far from 0 at Nyquist, where a spectrum with an
        # unpaired bin would invert to a visibly complex signal
        text = (
            "experiment = propagate\nz-list = 0.5 1\n"
            "[pulse]\nkind = gaussian\nT = 1\nomega0 = 1\n"
            "[medium]\nvariant = exp-kernel\nK = 5\nKp = 25\n"
        )
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_equal_peak_amplitudes_give_a_zero_stderr(self, tmp_path):
        # every depth's output is the same DC plateau, so the decay fit is exact
        text = (
            "experiment = sweep-z\nz-list = 7.54422 107.286 125.133 233.894\n"
            "[pulse]\nkind = rect\nT = 0.628025\n"
            "[medium]\nvariant = exp-kernel\nK = 0.537929\nKp = 237.855\n"
            "[grid]\nn = 256\ndt = 0.118317\nt0 = -26.3598\n"
        )
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        assert {w.category for w in caught} == {GridAdequacyWarning}
        summary = _summary(tmp_path / "o")
        assert summary["decay_slope"] == "0"
        assert summary["decay_slope_stderr"] == "0"

    @staticmethod
    def _gaussian_rows():
        """201 rows of a unit Gaussian at t = -1 ... 1, the peak on line 102 after the header."""
        return [f"{t:.6f},{np.exp(-0.5 * t * t):.17g}" for t in np.linspace(-1.0, 1.0, 201)]

    def test_csv_pulse_mistyped_row_exits_before_writing(self, tmp_path, capsys):
        rows = self._gaussian_rows()
        assert rows[100] == "0.000000,1"
        rows[100] = "0.000000,1.0.0"
        src = tmp_path / "wave.csv"
        src.write_text("t,f\n" + "\n".join(rows) + "\n")
        text = SWEEP.replace("kind = gaussian\nT = 1\nomega0 = 2", f"kind = csv\nfile = {src}")
        self._one_line_error(tmp_path, capsys, text, f"pulse.file: {src} line 102: not two numbers t, f")

    def test_csv_pulse_headers_and_blank_lines_are_skipped(self, tmp_path):
        src = tmp_path / "wave.csv"
        src.write_text("# a unit Gaussian\nt,f,unused\n\n" + "\r\n".join(self._gaussian_rows()) + "\n\n \n")
        text = MINIMAL.replace("kind = gaussian\nT = 1\nomega0 = 2", f"kind = csv\nfile = {src}")
        rows = experiments.read_pulse_csv(parse_config(text))
        assert rows.shape == (201, 2) and rows[100].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("case", cases.failing(), ids=lambda case: case.name)
    def test_every_config_error_is_one_line(self, tmp_path, case):
        # each failing case of the table: exit 1, its one line of standard error, no output directory
        files = cases.run(case, tmp_path)
        assert files["<exit status>"] == b"1"
        assert files["<stderr>"].decode().splitlines() == [case.error]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["zero-rms-width-far-depth", "zero-rms-width-spike", "zero-energy-output",
                                      "zero-energy-sweep"])
    def test_run_that_warns_then_fails_prints_one_line(self, tmp_path, name):
        # through the interpreter's own display of warnings, two lines each, which cases.run replaces
        case = _case(name)
        (tmp_path / "case.ini").write_text(case.config)
        for file, data in case.inputs.items():
            (tmp_path / file).write_bytes(data)
        out = subprocess.run([sys.executable, "-m", "precursor_lab.cli", "case.ini", "--output-dir", "out"],
                             cwd=tmp_path, env=_src_env(), capture_output=True, text=True)
        assert (out.returncode, out.stderr.splitlines()) == (1, [case.error])
        assert not (tmp_path / "out").exists()

    def _one_line_error(self, tmp_path, capsys, text, message, *args):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        out = tmp_path / "o"
        assert main([str(path), "--output-dir", str(out), *args]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: {message}"]
        assert not out.exists() or not any(out.iterdir())

    def test_unknown_experiment_override_is_one_line(self, tmp_path, capsys):
        # the --experiment override and the experiment key give the same line as the table's unknown-experiment
        message = _case("unknown-experiment").error.removeprefix("config error: ")
        self._one_line_error(tmp_path, capsys, SWEEP, message, "--experiment", "banana")
        self._one_line_error(tmp_path, capsys, SWEEP.replace("experiment = sweep-z", "experiment = banana"), message)
        assert not (tmp_path / "o").exists()

    def test_large_scale_high_order_ensemble(self, tmp_path):
        # the quadrature's density normalisation b^(m+1)/m! overflowed here
        path = tmp_path / "cfg.ini"
        path.write_text(RECT_STOCHASTIC.replace("b = 2", "b = 1e12").replace("m = 0", "m = 30"))
        assert main([str(path), "--output-dir", str(tmp_path / "o")]) == 0
        summary = _summary(tmp_path / "o")
        assert summary["ensemble"] == "b=1e+12 m=30 v=1"
        for key, value in summary.items():
            if key not in ("experiment", "ensemble", "grid"):
                assert np.isfinite(float(value)), key

    def test_verify_passes_at_seed_65(self, tmp_path):
        # the sample standard error once made the Monte Carlo check fail here
        path = tmp_path / "cfg.ini"
        path.write_text("experiment = verify\nseed = 65\n")
        assert main([str(path), "--output-dir", str(tmp_path / "v")]) == 0
        summary = (tmp_path / "v" / "summary.txt").read_text()
        assert "verify_monte_carlo_vs_direct_average: pass" in summary
        assert "verify_direct_average_closed_form_vs_quadrature: pass" in summary

    def test_verify_takes_a_negative_seed_modulo_2_64(self, tmp_path, capsys):
        # as gamma_draws does; numpy's default_rng rejects a negative seed
        path = tmp_path / "cfg.ini"
        path.write_text("experiment = verify\n")
        lines = []
        for seed in ("-5", str(2**64 - 5)):
            assert main([str(path), "--seed", seed, "--output-dir", str(tmp_path / seed)]) == 0
            out, err = capsys.readouterr()
            assert "Traceback" not in err
            lines.append([line for line in out.splitlines() if line.startswith("CHECK ")])
        assert len(lines[0]) == 13 and lines[0] == lines[1]

    def test_verify_experiment_passes(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("experiment = verify\nseed = 3\n")
        assert main([str(path), "--output-dir", str(tmp_path / "v")]) == 0
        summary = (tmp_path / "v" / "summary.txt").read_text()
        assert "verify_gaussian_closed_form_oracle: pass" in summary
        assert "verify_monte_carlo_vs_direct_average: pass" in summary


class TestRunRecord:
    @pytest.mark.parametrize("text", [SWEEP, STOCHASTIC, CHIRP, SLAB])
    def test_entries_are_the_summary(self, tmp_path, text):
        cfg = parse_config(text, {"output-dir": str(tmp_path / "o")})
        grid = experiments.plan_grid(cfg, None)
        record = experiments.EXPERIMENTS[cfg.experiment].run(cfg, grid, experiments.load_pulse(cfg, grid, None))
        assert not (tmp_path / "o").exists()
        assert run(cfg) == record.status == 0
        written = sorted(p.name for p in (tmp_path / "o").iterdir())
        sweep = ["sweep.csv"] if record.records else []
        assert written == sorted([name for name, _ in record.files] + sweep + ["summary.txt"])
        expected = [("experiment", cfg.experiment), *record.entries]
        expected += experiments.discrepancy_entries(cfg)
        lines = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert lines == [f"{key}: {value}" for key, value in expected]

    @pytest.mark.parametrize(
        "experiment", ["propagate", "sweep-z", "stochastic", "chirp", "slab", "verify"]
    )
    def test_failed_run_writes_nothing(self, tmp_path, capsys, monkeypatch, experiment):
        texts = {
            "propagate": MINIMAL,
            "sweep-z": SWEEP,
            "stochastic": STOCHASTIC,
            "chirp": CHIRP,
            "slab": SLAB,
            "verify": "experiment = verify\nseed = 3\n",
        }

        def refuse(*args):
            raise ConfigValidationError("ensemble", "quadrature refused")

        monkeypatch.setattr(stochastic, "averaged_log_kernel_rule", refuse)
        path = tmp_path / "cfg.ini"
        path.write_text(texts[experiment])
        out = tmp_path / "o"
        assert main([str(path), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["config error: ensemble: quadrature refused"]
        assert not out.exists()


class TestVerifyChecks:
    def test_passivity_check_catches_gain(self, monkeypatch):
        from precursor_lab.verify import passivity

        assert passivity(np.random.default_rng(0))[0]
        transfer = media.transfer_function
        monkeypatch.setattr(media, "transfer_function", lambda *args: 1.01 * transfer(*args))
        passed, detail = passivity(np.random.default_rng(0))
        assert not passed
        assert float(detail.removeprefix("max |transfer| ")) > 1.0 + 1e-15

    def test_direct_average_check_catches_a_wrong_small_kernel(self, monkeypatch):
        # at (m=3, z=16, w=20) the kernel is 1.5e-13, below any absolute limit
        assert verify.direct_average_closed_form_vs_quadrature()[0]
        oracle = stochastic.averaged_transfer_quadrature

        def scaled(spec, z, w):
            out = oracle(spec, z, w)
            if spec.m == 3 and z == 16.0:
                out = np.where(w == 20.0, 1.1 * out, out)
            return out

        monkeypatch.setattr(stochastic, "averaged_transfer_quadrature", scaled)
        passed, detail = verify.direct_average_closed_form_vs_quadrature()
        assert not passed
        assert float(detail.removeprefix("max rel err ")) > 0.09

    def test_unit_area_identity_holds_in_integers(self, monkeypatch):
        # sum_l C[m][l] l! == 2^m m! at every order of the table, with no scipy
        assert all(verify.unit_area_identity(m) for m in range(31))
        table = stochastic.impulse_tail_coefficients
        monkeypatch.setattr(stochastic, "impulse_tail_coefficients", lambda m: (*table(m)[:-1], 2))
        assert not any(verify.unit_area_identity(m) for m in range(31))

    def test_failing_check_sets_status_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "coefficient_recurrence", lambda: (False, "forced"))
        path = tmp_path / "cfg.ini"
        path.write_text("experiment = verify\nseed = 3\n")
        assert main([str(path), "--output-dir", str(tmp_path / "v")]) == 2
        out = capsys.readouterr().out.splitlines()
        assert "CHECK coefficient_recurrence: FAIL (forced)" in out
        assert out[-1] == "verify: 1 failure(s)"
        summary = _summary(tmp_path / "v")
        assert summary["verify_coefficient_recurrence"] == "fail (forced)"
