"""Experiment configuration: a small bracketed-section key=value format.

Example::

    # whole-line and trailing comments use '#'
    experiment = sweep-z
    output-dir = results
    z-list = 100 200 400 800 1600
    seed = 42

    [grid]            # omit the section entirely for an automatic grid
    n = 32768
    dt = 0.1
    t0 = -200

    [pulse]
    kind = gaussian   # gaussian | rect | chirp-gaussian | csv
    T = 1.0
    omega0 = 2.0

    [medium]
    variant = quadratic      # quadratic | exp-kernel | layered
    a = 1.0
    v = 1.0

Layered media list one ``layer`` line per layer, innermost first::

    [medium]
    variant = layered
    layer = 0.5 quadratic 1.0 1.0       # thickness, a, v  (ell_inv = 0)
    layer = 0.5 exp-kernel 10 100       # thickness, K, Kp
    tail = free-space                   # or: none

A ``[pulse]`` section with ``kind = csv`` and ``file = path.csv`` reads a
two-column (t, f) CSV and resamples it onto the grid by linear interpolation.

Every key is declared once, in :data:`KEYS`, with its type and default; a key
it does not list is an error that names its line.  A key may appear once per
section (``layer`` lines excepted); a second one is an error that names both
lines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .grid import TimeGrid
from .media import ExpKernelMedium, LayerStack, QuadraticMedium
from .signals import ENVELOPE_REACH, PULSE_KINDS, PulseSpec
from .stochastic import MAX_MC_SAMPLES, MAX_TABLE_ORDER, EnsembleSpec, largest_scaled_draw

__all__ = [
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "ExperimentConfig",
    "KEYS",
    "parse_config",
]

MAX_GRID_SAMPLES = 1 << 24  # 128 MiB per float64 array, the byte budget of MAX_MC_SAMPLES's draws

# Every config key, by section ("" is the top level): the key as messages name
# it -> (type, default).  A default of None marks a required key, and () or ""
# one whose absence means none.  A list key may repeat, one value per line; a
# tuple key holds numbers separated by spaces or commas.
KEYS = {
    "": {"experiment": (str, None), "z": (float, ()), "z-list": (tuple, ()), "mc-samples": (int, 10000),
         "seed": (int, 1), "threads": (int, 1), "output-dir": (str, "out")},
    "grid": {"n": (int, None), "dt": (float, None), "t0": (float, None)},
    "pulse": {"kind": (str, None), "file": (str, ""), "T": (float, 0.0), "omega0": (float, 0.0),
              "alpha": (float, 0.0)},
    "medium": {"variant": (str, None), "a": (float, 0.0), "v": (float, 0.0), "ell_inv": (float, 0.0),
               "K": (float, 0.0), "Kp": (float, 0.0), "layer": (list, ()), "tail": (str, "free-space")},
    "ensemble": {"b": (float, None), "m": (int, None), "v": (float, None)},
}


class ConfigError(Exception):
    """Base class for configuration problems."""


class ConfigParseError(ConfigError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigValidationError(ConfigError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class ExperimentConfig:
    experiment: str
    z_values: tuple = ()
    grid: TimeGrid | None = None  # None means automatic
    pulse: PulseSpec | None = None
    pulse_csv: str | None = None
    medium: object | None = None
    ensemble: EnsembleSpec | None = None
    mc_samples: int = 10000
    seed: int = 1
    output_dir: str = "out"


def _split_sections(text: str):
    """Yield (section, key, value, line_no); section '' before any header, key None for a header."""
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigParseError(line_no, f"malformed section header {raw.strip()!r}")
            section = line[1:-1].strip().lower()
            yield section, None, None, line_no
            continue
        if "=" not in line:
            raise ConfigParseError(line_no, f"expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigParseError(line_no, "empty key")
        if not value:
            raise ConfigParseError(line_no, f"empty value for key {key!r}")
        yield section, key, value, line_no


def _number(name: str, value: str, kind=float):
    """``value`` as a finite float, or with ``kind=int`` an integer; else a config error naming ``name``."""
    try:
        out = kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigValidationError(name, f"not {what}: {value!r}") from None
    if kind is float and not math.isfinite(out):
        raise ConfigValidationError(name, "not a finite number")
    return out


def _read(given: dict, section: str, key: str):
    """The value given for ``key`` of ``section``, typed as :data:`KEYS` declares, else its default."""
    kind, default = KEYS[section][key]
    name = f"{section}.{key}" if section else key
    if (section, key) not in given:
        if default is None:
            raise ConfigValidationError(name, "missing")
        return default
    value = given[section, key]
    if kind is tuple:
        return tuple(_number(name, part) for part in value.replace(",", " ").split())
    return value if kind in (str, list) else _number(name, value, kind)


def _fields(given: dict, section: str, keys) -> dict:
    """``{key: value}`` read for each of ``keys``, which are also the built object's field names."""
    return {key: _read(given, section, key) for key in keys}


def _make(key: str, cls, **fields):
    """``cls(**fields)``, its ``ValueError`` turned into a config error naming ``key``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigValidationError(key, str(exc)) from None


def _build_pulse(given: dict) -> tuple[PulseSpec | None, str | None]:
    kind = _read(given, "pulse", "kind")
    if kind == "csv":
        path = _read(given, "pulse", "file")
        if not path:
            raise ConfigValidationError("pulse.file", "csv pulse needs a file path")
        return None, path
    if kind not in PULSE_KINDS:
        raise ConfigValidationError(
            "pulse.kind", f"unknown kind {kind!r}; expected {', '.join(PULSE_KINDS)} or csv"
        )
    if _read(given, "pulse", "T") <= 0:
        raise ConfigValidationError("pulse.T", "pulse width must be positive")
    spec = _make("pulse", PulseSpec, kind=kind, **_fields(given, "pulse", ("T", "omega0", "alpha")))
    # the chirp phase alpha t^2/2 out to where the envelope exp(-t^2/2T^2) rounds to 0, or t^2 overflows
    if not math.isfinite(0.5 * spec.alpha * min(ENVELOPE_REACH * (spec.T * spec.T), sys.float_info.max)):
        raise ConfigValidationError(
            "pulse.alpha", f"chirp rate {spec.alpha:g} too large: the phase alpha t^2/2 overflows where the envelope is not 0"
        )
    return spec, None


def _parse_layer(value: str, index: int):
    parts = value.split()
    key = f"medium.layer[{index}]"
    if len(parts) < 2:
        raise ConfigValidationError(key, "expected: <thickness> <variant> <params...>")
    thickness = _number(key, parts[0])
    variant = parts[1]
    if variant == "quadratic":
        if len(parts) != 4:
            raise ConfigValidationError(key, "quadratic layer needs: thickness quadratic a v")
        return thickness, _make(key, QuadraticMedium, a=_number(key, parts[2]), v=_number(key, parts[3]))
    if variant == "exp-kernel":
        if len(parts) != 4:
            raise ConfigValidationError(key, "exp-kernel layer needs: thickness exp-kernel K Kp")
        return thickness, _make(key, ExpKernelMedium, K=_number(key, parts[2]), Kp=_number(key, parts[3]))
    raise ConfigValidationError(key, f"unknown layer variant {variant!r}")


def _build_medium(given: dict):
    layers = [_parse_layer(value, i) for i, value in enumerate(_read(given, "medium", "layer"))]
    variant = _read(given, "medium", "variant")
    if variant == "quadratic":
        return _make("medium", QuadraticMedium, **_fields(given, "medium", ("a", "v", "ell_inv")))
    if variant == "exp-kernel":
        return _make("medium", ExpKernelMedium, **_fields(given, "medium", ("K", "Kp")))
    if variant == "layered":
        if not layers:
            raise ConfigValidationError("medium.layer", "layered medium needs layer lines")
        tail = _read(given, "medium", "tail")
        if tail not in ("free-space", "none"):
            raise ConfigValidationError("medium.tail", f"expected free-space or none, got {tail!r}")
        return _make("medium", LayerStack, layers=layers, free_space_tail=(tail == "free-space"))
    raise ConfigValidationError("medium.variant", f"unknown variant {variant!r}")


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse configuration text into an :class:`ExperimentConfig`, checking its format and values.

    ``overrides`` maps top-level keys (experiment, output-dir, seed, threads)
    to replacement values, taking precedence over the file contents; an
    empty one is an error, as an empty value in the file is.  A
    ``threads`` value is checked (at least 1) and has no other effect.  The
    experiment's name and needs are checked by ``experiments.experiment``, and
    every rule that reads the grid by ``experiments.check_ranges``.
    """
    given: dict[tuple[str, str], object] = {}
    first_line: dict[tuple[str, str], int] = {}
    sections = set()  # every header counts, with keys or without
    for section, key, value, line_no in _split_sections(text):
        if key is None:
            sections.add(section)
            continue
        if section not in KEYS:
            raise ConfigParseError(line_no, f"unknown section [{section}]")
        where = f" in [{section}]" if section else ""
        name = next((k for k in KEYS[section] if k.lower() == key), None)
        if name is None:
            raise ConfigParseError(line_no, f"unknown key {key!r}{where}")
        if KEYS[section][name][0] is list:
            given.setdefault((section, name), []).append(value)
            continue
        first = first_line.setdefault((section, name), line_no)
        if first != line_no:
            raise ConfigParseError(line_no, f"duplicate key {key!r}{where}; first given on line {first}")
        given[section, name] = value
    for key, value in (overrides or {}).items():
        if not str(value):
            raise ConfigValidationError(key, "empty value")
        given["", key] = str(value)

    experiment = _read(given, "", "experiment")
    if ("", "z") in given and ("", "z-list") in given:
        raise ConfigValidationError("z", "give either z or z-list, not both")
    z_values = (_read(given, "", "z"),) if ("", "z") in given else _read(given, "", "z-list")
    # each depth names its output file and summary keys by its {z:g} label
    labelled = {}
    for zv in z_values:
        if zv <= 0:
            raise ConfigValidationError("z", f"depths must be positive, got {zv}")
        label = f"{zv:g}"
        if label not in labelled:
            labelled[label] = zv
            continue
        prev = labelled[label]
        if prev == zv:
            raise ConfigValidationError("z-list", f"duplicate depth {label}")
        shortest = [repr(x).removesuffix(".0") for x in (prev, zv)]
        raise ConfigValidationError(
            "z-list", f"depths {shortest[0]} and {shortest[1]} share the label {label}"
        )

    cfg = ExperimentConfig(
        experiment=experiment,
        z_values=z_values,
        mc_samples=_read(given, "", "mc-samples"),
        seed=_read(given, "", "seed"),
        output_dir=_read(given, "", "output-dir"),
    )
    if cfg.mc_samples < 100:
        raise ConfigValidationError("mc-samples", "need at least 100 samples")
    if cfg.mc_samples > MAX_MC_SAMPLES:
        raise ConfigValidationError(
            "mc-samples", f"need at most {MAX_MC_SAMPLES} samples ({MAX_MC_SAMPLES * 8 >> 20} MiB of draws), got {cfg.mc_samples}"
        )
    # threads is accepted and checked so that every config keeps running; depths run in order on one thread
    if _read(given, "", "threads") < 1:
        raise ConfigValidationError("threads", "need at least 1 thread")

    if "grid" in sections:
        cfg.grid = _make("grid", TimeGrid, **_fields(given, "grid", KEYS["grid"]))
        if cfg.grid.n > MAX_GRID_SAMPLES:
            raise ConfigValidationError(
                "grid.n", f"need at most {MAX_GRID_SAMPLES} samples ({MAX_GRID_SAMPLES * 8 >> 20} MiB per array), "
                f"got {cfg.grid.n}"
            )
    if "pulse" in sections:
        cfg.pulse, cfg.pulse_csv = _build_pulse(given)
    if "medium" in sections:
        cfg.medium = _build_medium(given)
    if "ensemble" in sections:
        cfg.ensemble = _make("ensemble", EnsembleSpec, **_fields(given, "ensemble", KEYS["ensemble"]))
        if cfg.ensemble.m > MAX_TABLE_ORDER:
            raise ConfigValidationError(
                "ensemble.m",
                f"shape order {cfg.ensemble.m} exceeds the supported maximum {MAX_TABLE_ORDER}",
            )
        largest = largest_scaled_draw(cfg.ensemble.m)
        if not math.isfinite(largest / cfg.ensemble.b):
            raise ConfigValidationError(
                "ensemble.b", f"scale {cfg.ensemble.b:g} too small: the largest draw {largest:g}/b overflows"
            )
    return cfg
