"""Any config ends in a run or in one line, and ``--threads`` changes no byte of its outputs.

One derandomised fuzz through ``cli.main``, by way of the case table's
in-process runner ``cases.run``.  Each config is written key by key from
``config.KEYS``, for the ``needs`` of one ``experiments.EXPERIMENTS`` entry,
in one of two regimes: extreme values on a given grid, or moderate ones on
an automatic grid.
"""

import math
import tempfile
from pathlib import Path

import cases
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precursor_lab.config import KEYS
from precursor_lab.experiments import EXPERIMENTS
from precursor_lab.signals import PULSE_KINDS

# the extreme values, and two plain ones so that some runs get past the first check
EXTREME = st.sampled_from([1e-12, 1e12, 1e-300, 1e300, 5e-324, 1.7e308, -1.0, 0.0, 0.5, 2.0])
# moderate ranges, by key, whose automatic grids stay within MAX_AUTO_N samples
MODERATE = {"T": (0.5, 2.0), "omega0": (0.0, 2.0), "alpha": (0.05, 0.25), "a": (0.1, 8.0), "v": (0.5, 2.0),
            "ell_inv": (0.0, 1.0), "K": (2.0, 10.0), "Kp": (5.0, 50.0), "b": (2.0, 8.0), "thickness": (0.1, 1.0)}
MAX_AUTO_N = 4096


@st.composite
def configs(draw, names=tuple(entry for entry in EXPERIMENTS if entry != "verify"), extreme=None):
    """A ``cases.Case``: a config written in the order of ``config.KEYS``, its input files and its overrides,
    for one of the experiments ``names``, in the regime ``extreme`` (drawn if None)."""
    name = draw(st.sampled_from(names))
    needs, extreme = EXPERIMENTS[name].needs, draw(st.booleans()) if extreme is None else extreme

    def number(key):
        return draw(EXTREME if extreme else st.floats(*MODERATE[key]))

    values, inputs, args = {"": {"experiment": name, "seed": draw(st.integers(-(2**63), 2**64))}}, {}, []
    if draw(st.booleans()):  # the --experiment override wins over the file's experiment
        values[""]["experiment"], args = draw(st.sampled_from([*EXPERIMENTS, "banana"])), ["--experiment", name]
    if draw(st.booleans()):
        args += ["--seed", str(draw(st.integers(-(2**63), 2**64)))]
    if "pulse" in needs:
        kind = "chirp-gaussian" if name == "chirp" else draw(st.sampled_from([*PULSE_KINDS, "csv"]))
        values["pulse"] = {"kind": kind, **{key: number(key) for key in ("T", "omega0")}}
        if kind == "chirp-gaussian":
            values["pulse"]["alpha"] = number("alpha")
        if kind == "csv":  # one to three rows of extreme values, or a sampled two-sided exponential
            rows = "".join(f"{number('T')!r},{number('T')!r}\n" for _ in range(draw(st.integers(1, 3)))) if extreme else ""
            values["pulse"]["file"], inputs["pulse.csv"] = "pulse.csv", rows.encode() or cases.PULSE_CSV
    if "medium" in needs:
        variant = "layered" if name == "slab" else draw(st.sampled_from(["quadratic", "exp-kernel", "layered"]))
        keys = {"quadratic": ("a", "v", "ell_inv"), "exp-kernel": ("K", "Kp"), "layered": ()}[variant]
        values["medium"] = {"variant": variant, **{key: number(key) for key in keys}}
        if variant == "layered":
            values["medium"]["layer"], values["medium"]["tail"] = [], draw(st.sampled_from(["free-space", "none"]))
            for _ in range(draw(st.integers(1, 3))):
                thickness, v = number("thickness"), number("v")
                if draw(st.booleans()):
                    layer = f"quadratic {number('a')!r} {v!r}"
                else:  # a moderate exp-kernel layer's Kp = K^2/v gives its reduction the velocity v
                    K = number("K")
                    layer = f"exp-kernel {K!r} {number('Kp') if extreme else K * K / v!r}"
                values["medium"]["layer"].append(f"{thickness!r} {layer}")
    if "ensemble" in needs:
        m = draw(st.integers(0, 30) if extreme else st.sampled_from([0, 1, 2, 5]))
        values["ensemble"] = {"b": number("b"), "m": m, "v": number("v")}
        values[""]["mc-samples"] = draw(st.integers(100, 400))
    if "z" in needs:  # moderate depths: 0.25 to 4 in steps of 0.25, past a slab's stack
        layers = values["medium"]["layer"] if name == "slab" else []
        steps = draw(st.lists(st.integers(1, 16), min_size=3 if name == "sweep-z" else 1, max_size=4, unique=True))
        depths = [draw(EXTREME) if extreme else sum(float(layer.split()[0]) for layer in layers) + k / 4 for k in steps]
        values[""]["z" if len(depths) == 1 else "z-list"] = " ".join(map(repr, depths))
    if extreme:
        values["grid"] = {"n": draw(st.sampled_from([-1, 0, 2, 3, 64, 1000, 4096])), "dt": draw(EXTREME),
                          "t0": draw(EXTREME) * draw(st.sampled_from([-1.0, 1.0]))}
    text = ""
    for section, keys in KEYS.items():
        if section in values:
            text += f"[{section}]\n" if section else ""
            for key in keys:
                value = values[section].get(key, [])
                text += "".join(f"{key} = {v}\n" for v in (value if isinstance(value, list) else [value]))
    return cases.Case("drawn", text, "a drawn config", tuple(args), inputs)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _gaussian_on_4096(name, depths, medium):
    text = f"experiment = {name}\nz-list = {depths}\n[pulse]\nkind = gaussian\nT = 0.5\nomega0 = 2.0\n[medium]\n{medium}\n"
    return cases.Case("drawn", text, "a moderate config whose automatic grid has 4,096 samples")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=configs())
@example(case=_gaussian_on_4096("sweep-z", "0.25 2 4", "variant = quadratic\na = 0.1\nv = 1"))
@example(case=_gaussian_on_4096("propagate", "4 1", "variant = exp-kernel\nK = 2.0\nKp = 50.0"))
def test_any_config_runs_or_gives_one_line(case):
    files = check(case)  # and a drawn automatic grid stays within MAX_AUTO_N samples
    rows = max((data.count(b"\n") - 1 for name, data in files.items() if name.startswith("signal_")), default=0)
    assert "[grid]" in case.config or rows <= MAX_AUTO_N, rows


def check(case):
    """Exit 0 with finite summary values and no RuntimeWarning, or exit 1 with one line and no output
    directory; and ``--threads 2`` gives every byte of ``--threads 1``, whose outputs it returns."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for threads in ("1", "2"):
            workdir = Path(tmp) / threads
            threaded = cases.Case(case.name, case.config, case.why, (*case.args, "--threads", threads), case.inputs)
            runs.append((cases.run(threaded, workdir), (workdir / "out").exists()))
    (files, wrote), again = runs
    status, err = files["<exit status>"], files["<stderr>"].decode()
    assert status in (b"0", b"1") and "Traceback" not in err, err
    if status == b"1":
        assert len(err.splitlines()) == 1 and err.startswith(("config error: ", "io-error: ")), err
        assert not wrote
    else:
        assert "RuntimeWarning" not in err, err
        values = [line.split(": ", 1)[1] for line in files["summary.txt"].decode().splitlines()]
        assert all(math.isfinite(x) for x in map(_number, values) if x is not None), values
    assert again == runs[0]
    return files


def fuzz_slice(names, extreme):
    """The fuzz, ten examples of it, on the experiments ``names`` in one regime, as a test of its own."""
    test = given(case=configs(names, extreme))(test_any_config_runs_or_gives_one_line.hypothesis.inner_test)
    return staticmethod(settings(max_examples=10, deadline=None, derandomize=True, database=None)(test))
