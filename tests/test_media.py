import numpy as np
import pytest

from precursor_lab import (
    ExpKernelMedium,
    LayerStack,
    LorentzParams,
    QuadraticMedium,
    SPEED_OF_LIGHT,
    coupled_steady_state,
    effective_params,
    free_space,
    lorentz_steady_state,
    propagation_constant,
    quadratic_approximation,
    transfer_between,
    transfer_function,
)


class TestPropagationConstant:
    def test_quadratic_value(self):
        med = QuadraticMedium(a=1.0, v=1.0)
        assert propagation_constant(med, 2.0) == pytest.approx(2.0 - 2.0j, rel=1e-15)

    def test_exp_kernel_low_frequency_limits(self):
        med = ExpKernelMedium(K=10.0, Kp=100.0)
        w = 1e-3
        gamma = propagation_constant(med, w)
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
        assert np.array_equal(propagation_constant(med, -w), np.conj(propagation_constant(med, w)))

    def test_layered_rejected(self):
        stack = LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0))])
        with pytest.raises(ValueError):
            propagation_constant(stack, 1.0)

    def test_exp_kernel_quadratic_match_inside_regime(self):
        # within |w| < K/10 the quadratic reduction tracks absorption to 1%
        med = ExpKernelMedium(K=10.0, Kp=100.0)
        quad = QuadraticMedium(a=10.0**3 / 200.0, v=1.0)
        w = np.linspace(1e-3, 10.0 / 10, 50)
        rel = np.abs(
            propagation_constant(quad, w).real / propagation_constant(med, w).real - 1.0
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

    def test_layered_beyond_stack_without_tail_rejected(self):
        stack = LayerStack([(1.0, QuadraticMedium(a=1.0, v=1.0))], free_space_tail=False)
        with pytest.raises(ValueError):
            transfer_function(stack, 1.5, 1.0)


class TestLorentz:
    def test_static_response(self):
        p = LorentzParams(m_inertial=2.0, b_damp=3.0, k_spring=4.0)
        V, W = lorentz_steady_state(p, U=1.0, omega=0.0)
        assert (V, W) == (0.25, 0.0)
        # independent of damping
        p0 = LorentzParams(m_inertial=2.0, b_damp=0.0, k_spring=4.0)
        assert lorentz_steady_state(p0, 1.0, 0.0) == (0.25, 0.0)

    def test_resonant_damped(self):
        p = LorentzParams(m_inertial=1.0, b_damp=1.0, k_spring=1.0)
        V, W = lorentz_steady_state(p, U=1.0, omega=1.0)
        assert V == pytest.approx(0.0, abs=1e-15)
        assert W == pytest.approx(1.0, rel=1e-15)

    def test_undamped_resonance_singular(self):
        p = LorentzParams(m_inertial=1.0, b_damp=0.0, k_spring=4.0)
        with pytest.raises(ValueError):
            lorentz_steady_state(p, 1.0, 2.0)


class TestCoupled:
    def test_static_solution_ignores_damping(self):
        K = np.array([[2.0, -1.0], [-1.0, 2.0]])
        qa = coupled_steady_state([1.0, 1.0], [0.0, 0.0], K, 1.0, 0.0)
        qb = coupled_steady_state([1.0, 1.0], [17.0, 0.3], K, 1.0, 0.0)
        assert np.array_equal(qa, qb)
        assert np.allclose(qa, [1.0, 1.0], rtol=1e-14)

    def test_scalar_case_matches_lorentz(self):
        p = LorentzParams(m_inertial=1.2, b_damp=0.7, k_spring=2.5)
        for w in (0.0, 0.8, 1.9):
            V, W = lorentz_steady_state(p, 1.0, w)
            q = coupled_steady_state([1.2], [0.7], [[2.5]], 1.0, w)[0]
            assert q.real == pytest.approx(V, rel=1e-12)
            assert -q.imag == pytest.approx(W, rel=1e-12, abs=1e-15)

    def test_singular_matrix_rejected(self):
        K = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank deficient
        with pytest.raises(np.linalg.LinAlgError):
            coupled_steady_state([1.0, 1.0], [0.0, 0.0], K, 1.0, 0.0)

    def test_size_cap(self):
        J = 33
        with pytest.raises(ValueError):
            coupled_steady_state(np.ones(J), np.zeros(J), np.eye(J), 1.0, 0.0)


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

