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

A key may appear once per section (``layer`` lines excepted); a second one
is an error that names both lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import TimeGrid
from .media import ExpKernelMedium, LayerStack, QuadraticMedium
from .signals import PulseSpec
from .stochastic import MAX_TABLE_ORDER, EnsembleSpec

__all__ = [
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "ExperimentConfig",
    "parse_config",
]

EXPERIMENTS = ("propagate", "sweep-z", "stochastic", "chirp", "slab", "verify")


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
    threads: int = 1
    output_dir: str = "out"


def _split_sections(text: str):
    """Yield (section, key, value, line_no); section '' before any header."""
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigParseError(line_no, f"malformed section header {raw.strip()!r}")
            section = line[1:-1].strip().lower()
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


def _as_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigValidationError(key, f"not a number: {value!r}") from None
    if not math.isfinite(out):
        raise ConfigValidationError(key, "not a finite number")
    return out


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigValidationError(key, f"not an integer: {value!r}") from None


def _build_pulse(items: dict) -> tuple[PulseSpec | None, str | None]:
    kind = items.get("kind")
    if kind is None:
        raise ConfigValidationError("pulse.kind", "missing")
    if kind == "csv":
        path = items.get("file")
        if path is None:
            raise ConfigValidationError("pulse.file", "csv pulse needs a file path")
        return None, path
    if kind not in ("gaussian", "rect", "chirp-gaussian"):
        raise ConfigValidationError(
            "pulse.kind", f"unknown kind {kind!r}; expected gaussian, rect, chirp-gaussian or csv"
        )
    T = _as_float("pulse.T", items.get("t", "0"))
    if T <= 0:
        raise ConfigValidationError("pulse.T", "pulse width must be positive")
    omega0 = _as_float("pulse.omega0", items.get("omega0", "0"))
    alpha = _as_float("pulse.alpha", items.get("alpha", "0"))
    try:
        return PulseSpec(kind=kind, T=T, omega0=omega0, alpha=alpha), None
    except ValueError as exc:
        raise ConfigValidationError("pulse", str(exc)) from None


def _parse_layer(value: str, index: int):
    parts = value.split()
    key = f"medium.layer[{index}]"
    if len(parts) < 2:
        raise ConfigValidationError(key, "expected: <thickness> <variant> <params...>")
    thickness = _as_float(key, parts[0])
    variant = parts[1]
    try:
        if variant == "quadratic":
            if len(parts) != 4:
                raise ConfigValidationError(key, "quadratic layer needs: thickness quadratic a v")
            return thickness, QuadraticMedium(a=_as_float(key, parts[2]), v=_as_float(key, parts[3]))
        if variant == "exp-kernel":
            if len(parts) != 4:
                raise ConfigValidationError(key, "exp-kernel layer needs: thickness exp-kernel K Kp")
            return thickness, ExpKernelMedium(K=_as_float(key, parts[2]), Kp=_as_float(key, parts[3]))
    except ValueError as exc:
        raise ConfigValidationError(key, str(exc)) from None
    raise ConfigValidationError(key, f"unknown layer variant {variant!r}")


def _build_medium(items: dict, layers: list):
    variant = items.get("variant")
    if variant is None:
        raise ConfigValidationError("medium.variant", "missing")
    try:
        if variant == "quadratic":
            return QuadraticMedium(
                a=_as_float("medium.a", items.get("a", "0")),
                v=_as_float("medium.v", items.get("v", "0")),
                ell_inv=_as_float("medium.ell_inv", items.get("ell_inv", "0")),
            )
        if variant == "exp-kernel":
            return ExpKernelMedium(
                K=_as_float("medium.K", items.get("k", "0")),
                Kp=_as_float("medium.Kp", items.get("kp", "0")),
            )
        if variant == "layered":
            if not layers:
                raise ConfigValidationError("medium.layer", "layered medium needs layer lines")
            tail = items.get("tail", "free-space")
            if tail not in ("free-space", "none"):
                raise ConfigValidationError("medium.tail", f"expected free-space or none, got {tail!r}")
            return LayerStack(layers, free_space_tail=(tail == "free-space"))
    except ConfigValidationError:
        raise
    except ValueError as exc:
        raise ConfigValidationError("medium", str(exc)) from None
    raise ConfigValidationError("medium.variant", f"unknown variant {variant!r}")


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate configuration text into an :class:`ExperimentConfig`.

    ``overrides`` maps top-level keys (experiment, output-dir, seed, threads)
    to replacement values, taking precedence over the file contents.
    """
    root: dict = {}
    sections: dict[str, dict] = {"grid": {}, "pulse": {}, "medium": {}, "ensemble": {}}
    layers: list = []
    seen_sections: set[str] = set()
    first_line: dict[tuple[str, str], int] = {}

    for section, key, value, line_no in _split_sections(text):
        if not (section == "medium" and key == "layer"):
            first = first_line.setdefault((section, key), line_no)
            if first != line_no:
                where = f" in [{section}]" if section else ""
                raise ConfigParseError(
                    line_no, f"duplicate key {key!r}{where}; first given on line {first}"
                )
        if section == "":
            root[key] = value
        elif section in sections:
            seen_sections.add(section)
            if section == "medium" and key == "layer":
                layers.append(_parse_layer(value, len(layers)))
            else:
                sections[section][key] = value
        else:
            raise ConfigParseError(line_no, f"unknown section [{section}]")

    for key, value in (overrides or {}).items():
        root[key] = str(value)

    experiment = root.get("experiment")
    if experiment is None:
        raise ConfigValidationError("experiment", "missing")
    if experiment not in EXPERIMENTS:
        raise ConfigValidationError(
            "experiment", f"unknown experiment {experiment!r}; valid names: {', '.join(EXPERIMENTS)}"
        )

    z_values: tuple = ()
    if "z" in root and "z-list" in root:
        raise ConfigValidationError("z", "give either z or z-list, not both")
    if "z" in root:
        z_values = (_as_float("z", root["z"]),)
    elif "z-list" in root:
        z_values = tuple(_as_float("z-list", p) for p in root["z-list"].replace(",", " ").split())
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
        mc_samples=_as_int("mc-samples", root.get("mc-samples", "10000")),
        seed=_as_int("seed", root.get("seed", "1")),
        threads=_as_int("threads", root.get("threads", "1")),
        output_dir=root.get("output-dir", "out"),
    )
    if cfg.mc_samples < 100:
        raise ConfigValidationError("mc-samples", "need at least 100 samples")
    if cfg.threads < 1:
        raise ConfigValidationError("threads", "need at least 1 thread")

    if "grid" in seen_sections:
        g = sections["grid"]
        for k in ("n", "dt", "t0"):
            if k not in g:
                raise ConfigValidationError(f"grid.{k}", "missing")
        try:
            cfg.grid = TimeGrid(
                n=_as_int("grid.n", g["n"]),
                dt=_as_float("grid.dt", g["dt"]),
                t0=_as_float("grid.t0", g["t0"]),
            )
        except ValueError as exc:
            raise ConfigValidationError("grid", str(exc)) from None

    if "pulse" in seen_sections:
        cfg.pulse, cfg.pulse_csv = _build_pulse(sections["pulse"])
    if "medium" in seen_sections:
        cfg.medium = _build_medium(sections["medium"], layers)
    if "ensemble" in seen_sections:
        e = sections["ensemble"]
        for k in ("b", "m", "v"):
            if k not in e:
                raise ConfigValidationError(f"ensemble.{k}", "missing")
        try:
            cfg.ensemble = EnsembleSpec(
                b=_as_float("ensemble.b", e["b"]),
                m=_as_int("ensemble.m", e["m"]),
                v=_as_float("ensemble.v", e["v"]),
            )
        except ValueError as exc:
            raise ConfigValidationError("ensemble", str(exc)) from None
        if cfg.ensemble.m > MAX_TABLE_ORDER:
            raise ConfigValidationError(
                "ensemble.m",
                f"shape order {cfg.ensemble.m} exceeds the supported maximum {MAX_TABLE_ORDER}",
            )

    _validate_for_experiment(cfg)
    return cfg


def _validate_for_experiment(cfg: ExperimentConfig):
    need_pulse = cfg.experiment in ("propagate", "sweep-z", "stochastic", "chirp", "slab")
    if need_pulse and cfg.pulse is None and cfg.pulse_csv is None:
        raise ConfigValidationError("pulse", f"experiment {cfg.experiment!r} needs a [pulse] section")
    if cfg.experiment in ("propagate", "sweep-z", "slab"):
        if cfg.medium is None:
            raise ConfigValidationError("medium", f"experiment {cfg.experiment!r} needs a [medium] section")
        if not cfg.z_values:
            raise ConfigValidationError("z", f"experiment {cfg.experiment!r} needs z or z-list")
    if cfg.experiment == "sweep-z" and len(set(cfg.z_values)) < 3:
        raise ConfigValidationError("z-list", "sweep-z needs at least 3 distinct depths")
    if cfg.experiment == "stochastic":
        if cfg.ensemble is None:
            raise ConfigValidationError("ensemble", "stochastic experiment needs an [ensemble] section")
        if not cfg.z_values:
            raise ConfigValidationError("z", "stochastic experiment needs z or z-list")
    if cfg.experiment == "chirp":
        if cfg.pulse is not None and cfg.pulse.kind != "chirp-gaussian":
            raise ConfigValidationError("pulse.kind", "chirp experiment needs kind = chirp-gaussian")
        if cfg.pulse is None:
            raise ConfigValidationError("pulse", "chirp experiment needs an explicit chirp pulse")
        if cfg.pulse.alpha <= 0:
            raise ConfigValidationError("pulse.alpha", "chirp experiment needs a positive chirp rate")
        alpha, T = cfg.pulse.alpha, cfg.pulse.T
        divisor = 2.0 * (alpha * alpha) * (T * T)
        if divisor == 0.0:
            raise ConfigValidationError("pulse.alpha", f"chirp rate {alpha:g} too small: 2 alpha^2 T^2 underflows to 0")
        if not divisor < math.inf:
            raise ConfigValidationError("pulse.alpha", f"chirp rate {alpha:g} too large: 2 alpha^2 T^2 overflows")
    if cfg.experiment == "slab":
        if not isinstance(cfg.medium, LayerStack):
            raise ConfigValidationError("medium.variant", "slab experiment needs a layered medium")
        for i, (_, layer_medium) in enumerate(cfg.medium.layers):
            if not isinstance(layer_medium, QuadraticMedium) or layer_medium.ell_inv != 0:
                raise ConfigValidationError(
                    f"medium.layer[{i}]",
                    "slab experiment needs lossless-at-DC quadratic layers "
                    "(the closed form uses their effective parameters)",
                )
        total = cfg.medium.total_thickness
        for zv in cfg.z_values:
            if zv <= total:
                raise ConfigValidationError("z", f"slab depths must exceed the stack thickness {total}")
