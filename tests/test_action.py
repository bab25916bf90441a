import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rsft.action import (
    BathParams,
    MatterActionKind,
    extended_action,
    matter_action,
    matter_grad,
)
from rsft.dynamics import ExtendedState

FREE = MatterActionKind.FREE
COLLECTIVE = MatterActionKind.FREE_COLLECTIVE


class TestMatterAction:
    def test_zero_field_vanishes(self):
        assert matter_action(FREE, np.zeros(8)) == 0.0
        assert matter_action(COLLECTIVE, np.zeros(8)) == 0.0

    def test_unit_field_free(self):
        assert matter_action(FREE, np.ones(8)) == pytest.approx(4.0)

    def test_unit_field_collective(self):
        # 8 * 1/2 + (8)^2 / 2 = 4 + 32
        assert matter_action(COLLECTIVE, np.ones(8)) == pytest.approx(36.0)

    @given(arrays(float, 12, elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_collective_dominates_free(self, phi):
        assert matter_action(COLLECTIVE, phi) >= matter_action(FREE, phi)

    @given(arrays(float, 10, elements=st.floats(-5, 5)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, phi):
        shuffled = np.random.default_rng(0).permutation(phi)
        for kind in (FREE, COLLECTIVE):
            assert matter_action(kind, shuffled) == pytest.approx(matter_action(kind, phi))


def finite_difference_gradient(kind, phi, step=1e-5):
    """Independent componentwise central difference of the matter action."""
    grad = np.empty_like(phi)
    for i in range(phi.shape[0]):
        plus, minus = phi.copy(), phi.copy()
        plus[i] += step
        minus[i] -= step
        grad[i] = (matter_action(kind, plus) - matter_action(kind, minus)) / (2 * step)
    return grad


class TestMatterGrad:
    def test_zero_field_zero_gradient(self):
        np.testing.assert_array_equal(matter_grad(FREE, np.zeros(6)), np.zeros(6))

    def test_collective_unit_field(self):
        np.testing.assert_allclose(matter_grad(COLLECTIVE, np.ones(8)), np.full(8, 9.0))

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_matches_finite_difference(self, kind):
        rng = np.random.default_rng(42)
        phi = rng.normal(size=20)
        expected = finite_difference_gradient(kind, phi)
        actual = matter_grad(kind, phi)
        np.testing.assert_allclose(actual, expected, rtol=1e-6, atol=1e-8)


class TestExtendedAction:
    def bath(self, n, beta=1.0, m_s=None):
        return BathParams(beta, float(n) if m_s is None else m_s, n)

    def test_all_zero_terms(self):
        n = 8
        assert extended_action(np.zeros(n), np.zeros(n), 1.0, 0.0, FREE, self.bath(n)) == 0.0

    def test_kinetic_term(self):
        n = 8
        value = extended_action(np.zeros(n), np.ones(n), 1.0, 0.0, FREE, self.bath(n))
        assert value == pytest.approx(4.0)

    def test_log_term(self):
        n = 8
        value = extended_action(np.zeros(n), np.zeros(n), np.e, 0.0, FREE, self.bath(n, beta=2.0))
        assert value == pytest.approx(4.0)

    def test_nonpositive_scale_rejected(self):
        n = 4
        with pytest.raises(ValueError):
            extended_action(np.zeros(n), np.zeros(n), 0.0, 0.0, FREE, self.bath(n))
        with pytest.raises(ValueError):
            extended_action(np.zeros(n), np.zeros(n), -1.0, 0.0, FREE, self.bath(n))

    @given(arrays(float, 6, elements=st.floats(-3, 3)))
    @settings(max_examples=30, deadline=None)
    def test_site_permutation_invariance(self, phi):
        n = 6
        pi = np.linspace(-1, 1, n)
        perm = np.random.default_rng(1).permutation(n)
        for kind in (FREE, COLLECTIVE):
            original = extended_action(phi, pi, 1.3, 0.4, kind, self.bath(n))
            permuted = extended_action(phi[perm], pi[perm], 1.3, 0.4, kind, self.bath(n))
            assert permuted == pytest.approx(original)


class TestTotalAction:
    def test_zero_at_reference(self):
        n = 8
        bath = BathParams(1.0, float(n), n)
        rng = np.random.default_rng(3)
        phi, pi = rng.normal(size=n), rng.normal(size=n)
        state = ExtendedState.from_arrays(phi, pi, 1.0, 0.0, 0.0)
        state.s0 = state.extended_action(COLLECTIVE, bath)
        assert state.total_action(COLLECTIVE, bath) == 0.0
        assert state.s0 == pytest.approx(extended_action(phi, pi, 1.0, 0.0, COLLECTIVE, bath))

    def test_scales_with_s(self):
        n = 4
        bath = BathParams(1.0, float(n), n)
        phi, pi = np.zeros(n), np.zeros(n)
        s = 3.0
        s_x = extended_action(phi, pi, s, 0.0, FREE, bath)
        state = ExtendedState.from_arrays(phi, pi, s, 0.0, s_x - 2.0)
        assert state.total_action(FREE, bath) == pytest.approx(6.0)

    def test_bath_params_validation(self):
        with pytest.raises(ValueError):
            BathParams(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            BathParams(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            BathParams(1.0, 1.0, 0)
