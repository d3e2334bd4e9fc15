"""The invariant suite behind the ``verify`` experiment.

Each check returns ``(passed, detail)``.  :func:`checks` runs them in a fixed
order, drawing every random input from one generator seeded with the run's
seed; :func:`run_verify` reports them, with status 2 when any fails.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import analysis, experiments, media, propagate, signals, stochastic
from . import grid as timegrid

__all__ = ["checks", "run_verify"]

_EXP_KERNEL = media.ExpKernelMedium(K=10.0, Kp=100.0)
_MEDIA = {
    "quadratic": media.QuadraticMedium(a=1.0, v=1.0, ell_inv=0.1),
    "exp_kernel": _EXP_KERNEL,
    "layered": media.LayerStack([(0.7, media.QuadraticMedium(a=1.0, v=1.0)), (0.8, _EXP_KERNEL)]),
}


def transform_round_trip(rng):
    grid = timegrid.TimeGrid(n=2048, dt=0.01, t0=-10.24)
    sig = timegrid.SampledSignal(grid, rng.standard_normal(grid.n))
    back = timegrid.inverse_transform(timegrid.forward_transform(sig))
    err = float(np.abs(back.values - sig.values).max())
    return err < 1e-12, f"max abs err {err:.3e}"


def semigroup(medium, rng, n_triples: int = 10000):
    """Worst relative error of segment composition over random (z1, z2, omega).

    The sampling window keeps |z * absorption| small enough that the transfer
    magnitudes stay well inside double range, so relative error is meaningful.
    """
    per_block = 100
    worst = 0.0
    for _ in range(n_triples // per_block):
        z1 = float(rng.uniform(0.0, 1.5))
        z2 = float(rng.uniform(0.0, 1.5))
        w = rng.uniform(-10.0, 10.0, per_block)
        between = media.transfer_between
        lhs = between(medium, 0.0, z1, w) * between(medium, z1, z1 + z2, w)
        rhs = between(medium, 0.0, z1 + z2, w)
        worst = max(worst, float((np.abs(lhs - rhs) / np.abs(rhs)).max()))
    return worst < 1e-12, f"max rel err {worst:.3e}"


def passivity(rng):
    worst = 0.0
    for medium in _MEDIA.values():
        for _ in range(50):
            z = float(rng.uniform(0.0, 3.0))
            w = rng.uniform(-30.0, 30.0, 200)
            worst = max(worst, float(np.abs(media.transfer_function(medium, z, w)).max()))
    return worst <= 1.0 + 1e-15, f"max |transfer| {worst:.15f}"


def gaussian_closed_form_oracle():
    worst = 0.0
    medium = media.QuadraticMedium(a=1.0, v=1.0)
    for z, T, omega0 in itertools.product((10.0, 100.0, 1000.0), (0.5, 1.0), (0.0, 2.0)):
        g = timegrid.recommend_grid(T, omega0, 1.0, 1.0, z, margin_sigmas=10.0)
        pulse = signals.PulseSpec(kind="gaussian", T=T, omega0=omega0)
        out = propagate.propagate_fft(signals.gaussian_pulse(pulse, g), medium, z)
        ref = propagate.analytic_gaussian_output(T, omega0, 1.0, 1.0, z, g.times())
        worst = max(worst, float(np.abs(out.values - ref).max()))
    return worst < 1e-8, f"max abs err {worst:.3e}"


def coefficient_recurrence():
    ok = True
    for m in range(0, 31):
        c = stochastic.impulse_tail_coefficients(m).coeffs
        if c[-1] != 1 or c[0] != stochastic._double_factorial(2 * m - 1):
            ok = False
        if m >= 1:
            prev = stochastic.impulse_tail_coefficients(m - 1).coeffs
            for l in range(1, m):
                if c[l] != (2 * m - 1 - l) * prev[l] + prev[l - 1]:
                    ok = False
    ok = ok and stochastic.impulse_tail_coefficients(2).coeffs == (3, 3, 1)
    return ok, "orders 0..30 exact"


def impulse_normalization():
    from scipy.integrate import quad

    # adaptive quadrature: the averaged impulse has a kink at the arrival
    # time, where a uniform-grid sum stalls at O((c*dt)^2) accuracy
    areas = [
        quad(lambda t: propagate.gaussian_impulse_response(1.0, 1.0, 20.0, t), -40.0, 100.0)[0]
    ]
    for m in range(0, 4):
        spec = stochastic.EnsembleSpec(b=1.0, m=m, v=1.0)
        areas.append(
            quad(
                lambda t: stochastic.stochastic_impulse(spec, 4.0, t),
                -400.0, 400.0, points=[4.0], limit=400,
            )[0]
        )
    ok = all(abs(area - 1.0) < 1e-8 for area in areas)
    return ok, "; ".join(f"{area:.12f}" for area in areas)


def stochastic_closed_form_vs_quadrature():
    from scipy.integrate import quad

    worst = 0.0
    for m in range(0, 4):
        spec = stochastic.EnsembleSpec(b=1.0, m=m, v=1.0)
        z = 1.0
        for tau in (0.0, 0.3, 1.0, 2.5, 7.0):
            # a cosine weight needs a nonzero frequency
            weight = {"weight": "cos", "wvar": tau} if tau else {}
            ref = quad(
                lambda w_: (1 + z * w_**2 / spec.b) ** (-(m + 1)) / np.pi,
                0, np.inf, epsabs=1e-12, **weight,
            )[0]
            got = float(stochastic.stochastic_impulse(spec, z, z / spec.v + tau))
            worst = max(worst, abs(got - ref))
    return worst < 1e-8, f"max abs err {worst:.3e}"


def causality_regimes():
    def gaussian(z, dt, t0):
        g = timegrid.TimeGrid(n=1 << 15, dt=dt, t0=t0)
        impulse = propagate.gaussian_impulse_response(1.0, 1.0, z, g.times())
        return analysis.causality_metric(timegrid.SampledSignal(g, impulse))

    metric_far, metric_near = gaussian(100.0, 0.01, -50.0), gaussian(1.0, 0.001, -10.0)
    g3 = timegrid.TimeGrid(n=1 << 13, dt=0.01, t0=-20.0)
    metric_exp = analysis.causality_metric(
        propagate.impulse_response_fft(_EXP_KERNEL, 20.0, g3)
    )
    ok = metric_far < 1e-12 and metric_exp < 1e-3 and abs(metric_near - 0.159) < 0.01
    return ok, f"deep {metric_far:.3e}; exp-kernel {metric_exp:.3e}; shallow {metric_near:.4f}"


def direct_average_closed_form_vs_quadrature():
    # relative error: at (m=3, z=16, w=20) the kernel itself is 1.5e-13
    worst = 0.0
    w = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0])
    for m, z in ((0, 0.5), (1, 4.0), (3, 16.0)):
        spec = stochastic.EnsembleSpec(b=2.0, m=m, v=1.0)
        direct = stochastic.averaged_transfer_direct(spec, z, w)
        oracle = stochastic.averaged_transfer_quadrature(spec, z, w)
        worst = max(worst, float((np.abs(direct - oracle) / np.abs(direct)).max()))
    return worst < 1e-10, f"max rel err {worst:.3e}"


def monte_carlo_vs_quadrature(seed: int):
    spec = stochastic.EnsembleSpec(b=2.0, m=1, v=1.0)
    g = timegrid.TimeGrid(n=2048, dt=0.05, t0=-30.0)
    f0 = signals.gaussian_pulse(signals.PulseSpec(kind="gaussian", T=1.0, omega0=0.0), g)
    draws = stochastic.sample_inverse_a(spec, 10000, seed)
    _, dev = experiments.monte_carlo_deviation(propagate.input_spectrum(f0), spec, 4.0, draws)
    return dev < 4.0, f"max deviation {dev:.2f} sigma"


def checks(seed: int):
    """Yield ``(name, passed, detail)`` for every invariant, in a fixed order."""
    rng = np.random.default_rng(seed)
    yield "transform_round_trip", *transform_round_trip(rng)
    for name, medium in _MEDIA.items():
        yield f"semigroup_{name}", *semigroup(medium, rng)
    yield "passivity", *passivity(rng)
    yield "gaussian_closed_form_oracle", *gaussian_closed_form_oracle()
    yield "coefficient_recurrence", *coefficient_recurrence()
    yield "impulse_normalization", *impulse_normalization()
    yield "stochastic_closed_form_vs_quadrature", *stochastic_closed_form_vs_quadrature()
    yield "causality_regimes", *causality_regimes()
    yield "direct_average_closed_form_vs_quadrature", *direct_average_closed_form_vs_quadrature()
    yield "monte_carlo_vs_quadrature", *monte_carlo_vs_quadrature(seed)


def run_verify(cfg, grid, f0) -> experiments.Run:
    """Run every check, printing one ``CHECK`` line each; status 2 when any fails."""
    entries = []
    failures = 0
    for name, passed, detail in checks(cfg.seed):
        print(f"CHECK {name}: {'PASS' if passed else 'FAIL'} ({detail})")
        entries.append((f"verify_{name}", f"{'pass' if passed else 'fail'} ({detail})"))
        failures += not passed
    print(f"verify: {failures} failure(s)")
    return experiments.Run(entries, status=2 if failures else 0)
