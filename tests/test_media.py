import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precursor_lab import (
    ExpKernelMedium,
    LayerStack,
    QuadraticMedium,
    SPEED_OF_LIGHT,
    effective_params,
    free_space,
    transfer_between,
    transfer_function,
)
from reference import quadratic_approximation


class TestPropagationConstant:
    def test_quadratic_value(self):
        med = QuadraticMedium(a=1.0, v=1.0)
        assert med.propagation_constant(2.0) == pytest.approx(2.0 - 2.0j, rel=1e-15)

    def test_exp_kernel_low_frequency_limits(self):
        med = ExpKernelMedium(K=10.0, Kp=100.0)
        w = 1e-3
        gamma = med.propagation_constant(w)
        # absorption/w^2 -> Kp/K^3 = 1/(2a) with a = 5; -phase/w -> Kp/K^2 = 1/v with v = 1
        assert gamma.real / w**2 == pytest.approx(0.1, rel=1e-5)
        assert -gamma.imag / w == pytest.approx(1.0, rel=1e-5)
        q = quadratic_approximation(med, w)
        assert q.a == pytest.approx(5.0, rel=1e-5)
        assert q.v == pytest.approx(1.0, rel=1e-5)
        assert q.a == pytest.approx(med.K * q.v / 2, rel=1e-5)

    @pytest.mark.parametrize(
        "med",
        [QuadraticMedium(a=2.0, v=0.5, ell_inv=0.3), ExpKernelMedium(K=10.0, Kp=100.0)],
    )
    def test_conjugate_symmetry(self, med):
        w = np.linspace(0.1, 40.0, 97)
        assert np.array_equal(med.propagation_constant(-w), np.conj(med.propagation_constant(w)))

    def test_exp_kernel_quadratic_match_inside_regime(self):
        # within |w| < K/10 the quadratic reduction tracks absorption to 1%
        med = ExpKernelMedium(K=10.0, Kp=100.0)
        quad = QuadraticMedium(a=10.0**3 / 200.0, v=1.0)
        w = np.linspace(1e-3, 10.0 / 10, 50)
        rel = np.abs(
            quad.propagation_constant(w).real / med.propagation_constant(w).real - 1.0
        )
        assert rel.max() <= 0.0101


class TestTransferFunction:
    def test_identity_at_zero_depth(self):
        for med in (
            QuadraticMedium(a=1.0, v=1.0),
            ExpKernelMedium(K=10.0, Kp=100.0),
            LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0))]),
        ):
            assert transfer_function(med, 0.0, 3.7) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_quadratic_value(self):
        med = QuadraticMedium(a=1.0, v=1.0)
        got = transfer_function(med, 2.0, 1.0)
        assert got == pytest.approx(np.exp(-1.0) * np.exp(2.0j), rel=1e-14)
        assert abs(got) == pytest.approx(0.36787944117144233, rel=1e-14)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            transfer_function(QuadraticMedium(a=1.0, v=1.0), -0.1, 1.0)

    def test_semigroup_homogeneous(self):
        rng = np.random.default_rng(5)
        for med in (QuadraticMedium(a=1.0, v=1.0, ell_inv=0.2), ExpKernelMedium(K=10.0, Kp=100.0)):
            for _ in range(100):
                z1, z2 = rng.uniform(0, 2, 2)
                w = rng.uniform(-10, 10, 100)
                lhs = transfer_function(med, z1, w) * transfer_function(med, z2, w)
                rhs = transfer_function(med, z1 + z2, w)
                assert (np.abs(lhs - rhs) / np.abs(rhs)).max() < 1e-12

    def test_semigroup_layered_with_boundary(self):
        stack = LayerStack(
            [(0.6, QuadraticMedium(a=1.0, v=1.0)), (0.9, QuadraticMedium(a=3.0, v=0.5))]
        )
        rng = np.random.default_rng(6)
        for _ in range(100):
            z1 = rng.uniform(0.1, 0.6)  # boundary at 0.6 falls between z1 and z1+z2
            z2 = rng.uniform(0.1, 2.0)
            w = rng.uniform(-10, 10, 50)
            lhs = transfer_between(stack, 0, z1, w) * transfer_between(stack, z1, z1 + z2, w)
            rhs = transfer_function(stack, z1 + z2, w)
            assert (np.abs(lhs - rhs) / np.abs(rhs)).max() < 1e-12

    def test_passivity_random_sweep(self):
        rng = np.random.default_rng(7)
        media = [
            QuadraticMedium(a=1.0, v=1.0, ell_inv=0.1),
            ExpKernelMedium(K=10.0, Kp=100.0),
            LayerStack([(0.5, QuadraticMedium(a=1.0, v=1.0)), (0.5, ExpKernelMedium(K=10.0, Kp=100.0))]),
        ]
        for med in media:
            for _ in range(50):
                z = rng.uniform(0, 3)
                w = rng.uniform(-30, 30, 200)
                assert np.abs(transfer_function(med, z, w)).max() <= 1.0 + 1e-15

    def test_free_space_is_pure_delay(self):
        w = np.linspace(-10, 10, 11)
        M = transfer_function(free_space(1.0), 5.0, w)
        assert np.abs(np.abs(M) - 1.0).max() < 1e-15
        assert np.allclose(M, np.exp(1j * w * 5.0), rtol=1e-14)

    @pytest.mark.parametrize(
        "medium,z_from,z_to",
        [
            (QuadraticMedium(a=1.0, v=1.0), 0.0, 100.0),
            (ExpKernelMedium(K=10.0, Kp=100.0), 0.0, 100.0),
            (LayerStack([(40.0, QuadraticMedium(a=1.0, v=1.0)), (80.0, ExpKernelMedium(K=10.0, Kp=100.0))]),
             20.0, 150.0),
        ],
        ids=["quadratic", "exp-kernel", "layered"],
    )
    def test_bins_whose_exp_rounds_to_zero_are_exact_zeros(self, medium, z_from, z_to):
        w = np.append(np.linspace(0.0, 50.0, 20001), np.nan)
        with np.errstate(invalid="ignore"):  # the exp kernel's w / (w + iK) at w = nan
            if isinstance(medium, LayerStack):
                exponent = -medium._depth_exponent(z_from, z_to, w)
            else:
                exponent = -(z_to - z_from) * medium.propagation_constant(w)
            full = np.exp(exponent)
            got = transfer_between(medium, z_from, z_to, w)
        kept = ~(exponent.real < -746.0)
        assert 100 < kept.sum() < w.size - 100
        assert got[kept].tobytes() == full[kept].tobytes()  # the nan bin included
        assert np.all(full[~kept] == 0.0)
        assert got[~kept].tobytes() == bytes(got[~kept].nbytes)  # +0, not -0
        assert isinstance(transfer_between(medium, z_from, z_to, 3.0), np.complex128)

    def test_layered_beyond_stack_without_tail_rejected(self):
        stack = LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0))], free_space_tail=False)
        with pytest.raises(ValueError):
            transfer_function(stack, 1.5, 1.0)


class TestEffectiveParams:
    def test_single_layer_identity(self):
        stack = LayerStack([(2.0, QuadraticMedium(a=3.0, v=0.7))])
        assert effective_params(stack, 2.0) == pytest.approx((3.0, 0.7))

    def test_two_layer_harmonic_mean(self):
        stack = LayerStack(
            [(1.0, QuadraticMedium(a=1.0, v=1.0)), (1.0, QuadraticMedium(a=3.0, v=0.5))]
        )
        a_eff, v_eff = effective_params(stack, 2.0)
        assert a_eff == pytest.approx(1.5, rel=1e-15)
        assert v_eff == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_velocity_bounded_by_light_speed(self):
        stack = LayerStack(
            [(1.0, QuadraticMedium(a=1.0, v=0.4 * SPEED_OF_LIGHT)),
             (3.0, QuadraticMedium(a=1.0, v=0.9 * SPEED_OF_LIGHT))]
        )
        _, v_eff = effective_params(stack, 4.0)
        assert v_eff <= SPEED_OF_LIGHT

    def test_dc_absorbing_layer_rejected(self):
        stack = LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0, ell_inv=0.5))])
        with pytest.raises(ValueError):
            effective_params(stack, 1.0)

    def test_partial_depth_cuts_the_layer_it_ends_in(self):
        stack = LayerStack(
            [(1.0, QuadraticMedium(a=1.0, v=1.0)), (2.0, QuadraticMedium(a=3.0, v=0.5)),
             (1.0, QuadraticMedium(a=0.1, v=2.0))]
        )
        cut = LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0)), (0.5, QuadraticMedium(a=3.0, v=0.5))])
        assert effective_params(stack, 1.5) == pytest.approx(effective_params(cut, 1.5), rel=1e-15)
        with pytest.raises(ValueError):
            effective_params(stack, 0.0)

    def test_thickness_mismatch_rejected(self):
        stack = LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0))])
        with pytest.raises(ValueError):
            effective_params(stack, 2.0)


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# a passive quadratic, exp-kernel or layered medium whose absorption over |w| <= 10
# stays below about 100 per unit depth, so that e^(-z gamma) keeps a relative
# error of a few ulps per unit of its exponent
_QUADRATIC = st.builds(
    QuadraticMedium, a=_powers_of_ten(-0.3, 1.0), v=_powers_of_ten(-0.3, 0.3),
    ell_inv=st.sampled_from([0.0, 0.1, 0.5]),
)
_EXP_KERNEL = st.builds(
    lambda K, v: ExpKernelMedium(K=K, Kp=K * K / v), _powers_of_ten(0.0, 1.5), _powers_of_ten(-0.3, 0.3)
)
_LAYERED = st.builds(
    LayerStack,
    st.lists(st.tuples(st.floats(0.1, 1.0), st.one_of(_QUADRATIC, _EXP_KERNEL)), min_size=1, max_size=3),
    free_space_tail=st.booleans(),
)
_MEDIA = st.one_of(_QUADRATIC, _EXP_KERNEL, _LAYERED)


def _depth_room(medium):
    """How deep a transfer may reach: any depth with a free-space tail, else the stack."""
    return 3.0 if not isinstance(medium, LayerStack) or medium.free_space_tail else medium.total_thickness


class TestExactReduction:
    def test_each_medium_gives_its_exact_reduction(self):
        quad = QuadraticMedium(a=2.0, v=0.5, ell_inv=0.25)
        assert quad.quadratic_reduction() is quad
        assert ExpKernelMedium(K=10.0, Kp=100.0).quadratic_reduction() == QuadraticMedium(a=5.0, v=1.0)
        # K^3 overflows, the reduction does not
        q = ExpKernelMedium(K=1e200, Kp=1e300).quadratic_reduction()
        assert (q.a, q.v) == pytest.approx((5e299, 1e100), rel=1e-15)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(K=_powers_of_ten(-3.0, 3.0), ratio=_powers_of_ten(-3.0, 3.0))
    def test_probe_misses_the_exact_reduction_by_the_square_of_its_frequency(self, K, ratio):
        # the probe at w reads a and v times 1 + (w/K)^2, so 1e-4 too large at w = K/100
        med = ExpKernelMedium(K=K, Kp=K * ratio)
        exact = med.quadratic_reduction()
        for r in (1e-1, 1e-2, 1e-3):
            q = quadratic_approximation(med, K * r)
            assert q.ell_inv == 0.0
            assert abs(q.a / exact.a - 1.0 - r * r) < 1e-12
            assert abs(q.v / exact.v - 1.0 - r * r) < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        layers=st.lists(
            st.tuples(st.floats(0.1, 2.0), st.booleans(), _powers_of_ten(-1.0, 1.0), _powers_of_ten(-1.0, 1.0)),
            min_size=1, max_size=4,
        ),
        share=st.floats(0.01, 1.0),
    )
    def test_effective_params_are_harmonic_means_of_layer_reductions(self, layers, share):
        # each layer quadratic (a, v) or exp-kernel (K, Kp), with its limit
        # K^3/(2 Kp), K^2/Kp written out here
        stack = LayerStack(
            [(l, ExpKernelMedium(K=x, Kp=y) if exp else QuadraticMedium(a=x, v=y)) for l, exp, x, y in layers]
        )
        ell = share * stack.total_thickness
        inv_a = inv_v = top = 0.0
        for l, exp, x, y in layers:
            a, v = (x**3 / (2.0 * y), x**2 / y) if exp else (x, y)
            seg = min(l, max(ell - top, 0.0))
            inv_a, inv_v, top = inv_a + seg / a, inv_v + seg / v, top + l
        assert effective_params(stack, ell) == pytest.approx((ell / inv_a, ell / inv_v), rel=1e-12)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(medium=_MEDIA, first=st.floats(0.0, 1.0), second=st.floats(0.0, 1.0))
    def test_semigroup_over_random_media(self, medium, first, second):
        room = _depth_room(medium)
        z1, z2 = first * room / 2, second * room / 2
        w = np.linspace(-10.0, 10.0, 41)
        lhs = transfer_between(medium, 0.0, z1, w) * transfer_between(medium, z1, z1 + z2, w)
        rhs = transfer_function(medium, z1 + z2, w)
        assert (np.abs(lhs - rhs) / np.abs(rhs)).max() < 1e-12

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(medium=_MEDIA, depth=st.floats(0.0, 1.0))
    def test_passivity_over_random_media(self, medium, depth):
        w = np.linspace(-1e3, 1e3, 401)
        assert np.abs(transfer_function(medium, depth * _depth_room(medium), w)).max() <= 1.0 + 1e-15


def test_layer_stack_validation():
    with pytest.raises(ValueError):
        LayerStack([])
    with pytest.raises(ValueError):
        LayerStack([(0.0, QuadraticMedium(a=1.0, v=1.0))])
    with pytest.raises(ValueError):
        LayerStack([(1.0, LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0))]))])


def test_quadratic_approximation_keeps_dc_absorption():
    med = QuadraticMedium(a=2.0, v=0.5, ell_inv=0.25)
    q = quadratic_approximation(med, 1e-4)
    assert q.ell_inv == pytest.approx(0.25, rel=1e-12)
    assert q.a == pytest.approx(2.0, rel=1e-8)
    assert q.v == pytest.approx(0.5, rel=1e-8)


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuadraticMedium(a=np.nan, v=1.0),
        lambda: QuadraticMedium(a=1.0, v=np.nan),
        lambda: QuadraticMedium(a=1.0, v=np.inf),
        lambda: QuadraticMedium(a=1.0, v=1.0, ell_inv=np.nan),
        lambda: QuadraticMedium(a=1.0, v=1.0, ell_inv=np.inf),
        lambda: ExpKernelMedium(K=np.nan, Kp=100.0),
        lambda: ExpKernelMedium(K=np.inf, Kp=100.0),
        lambda: ExpKernelMedium(K=10.0, Kp=np.nan),
        lambda: ExpKernelMedium(K=10.0, Kp=np.inf),
    ],
    ids=["a-nan", "v-nan", "v-inf", "ell_inv-nan", "ell_inv-inf", "K-nan", "K-inf", "Kp-nan", "Kp-inf"],
)
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()

