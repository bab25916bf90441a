import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsft.lattice import (
    FixedShell,
    GlobalDynamicShell,
    LocalDynamicShell,
    MomentumLattice,
    effective_masses,
    omega,
)


class TestSiteMomentum:
    def test_center_site_of_odd_lattice_is_origin(self):
        lat = MomentumLattice(25, 0.1)
        center = lat.site_index(12, 12, 12)
        np.testing.assert_allclose(lat.site_momentum(center), [0.0, 0.0, 0.0], atol=1e-15)

    def test_corner_site(self):
        lat = MomentumLattice(25, 0.1)
        np.testing.assert_allclose(lat.site_momentum(0), [-1.2, -1.2, -1.2])

    def test_small_lattice_coordinates(self):
        lat = MomentumLattice(3, 0.5)
        idx = lat.site_index(2, 1, 0)
        np.testing.assert_allclose(lat.site_momentum(idx), [0.5, 0.0, -0.5])

    def test_out_of_range_index_rejected(self):
        lat = MomentumLattice(3, 0.5)
        with pytest.raises(IndexError):
            lat.site_momentum(27)
        with pytest.raises(IndexError):
            lat.site_momentum(-1)

    def test_site_momenta_matches_per_site_values(self):
        lat = MomentumLattice(4, 0.3)
        stacked = lat.site_momenta()
        for idx in range(lat.site_count):
            np.testing.assert_array_equal(stacked[idx], lat.site_momentum(idx))

    def test_origin_site_parity(self):
        # Odd lattices contain the origin exactly once, even lattices never.
        for n in (2, 3, 4, 5):
            lat = MomentumLattice(n, 0.2)
            norms = np.linalg.norm(lat.site_momenta(), axis=1)
            assert np.count_nonzero(norms < 1e-12) == (1 if n % 2 else 0)

    def test_lexicographic_enumeration(self):
        lat = MomentumLattice(2, 1.0)
        # (a, b, c) order: last coordinate varies fastest.
        coords = [lat.site_coordinates(i) for i in range(8)]
        assert coords == sorted(coords)


class TestOmega:
    def test_rest_frequency_is_mass(self):
        assert omega([0.0, 0.0, 0.0], 1.0) == 1.0

    def test_massless_is_momentum_norm(self):
        assert omega([0.3, 0.0, 0.4], 0.0) == pytest.approx(0.5)

    def test_unit_momentum_unit_mass(self):
        assert omega([1.0, 0.0, 0.0], 1.0) == pytest.approx(np.sqrt(2.0))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            omega([1.0, 0.0, 0.0], -0.5)

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_dominates_mass_and_momentum(self, p1, p2, p3, mass):
        p = np.array([p1, p2, p3])
        w = omega(p, mass)
        assert w >= mass - 1e-12
        assert w >= np.linalg.norm(p) - 1e-12


class TestEffectiveMass:
    def test_fixed_ignores_field(self):
        phi = np.array([4.0, -2.0, 1.0])
        assert effective_masses(FixedShell(1.0), phi) == 1.0

    def test_global_zero_field(self):
        phi = np.zeros(5)
        assert effective_masses(GlobalDynamicShell(), phi) == 0.0

    def test_local_takes_magnitude(self):
        phi = np.array([0.2, -0.7, 0.1])
        assert effective_masses(LocalDynamicShell(), phi)[1] == pytest.approx(0.7)

    def test_global_is_abs_of_sum(self):
        phi = np.array([1.0, -3.0, 0.5])
        assert effective_masses(GlobalDynamicShell(), phi) == pytest.approx(1.5)

    def test_vectorized_matches_scalar(self):
        phi = np.array([0.2, -0.7, 0.1, 0.0])
        local = effective_masses(LocalDynamicShell(), phi)
        for idx in range(4):
            assert local[idx] == abs(phi[idx])

    def test_frequencies_shapes_and_values(self):
        lat = MomentumLattice(3, 0.5)
        phi = np.linspace(-1, 1, lat.site_count)
        for shell in (FixedShell(1.0), GlobalDynamicShell(), LocalDynamicShell()):
            freqs = omega(lat.site_momenta(), effective_masses(shell, phi))
            assert freqs.shape == (lat.site_count,)
            idx = 7
            mass = np.broadcast_to(effective_masses(shell, phi), phi.shape)[idx]
            expected = omega(lat.site_momentum(idx), mass)
            assert freqs[idx] == pytest.approx(float(expected))

    def test_dynamic_shell_requires_field(self):
        lat = MomentumLattice(3, 0.5)
        with pytest.raises(ValueError):
            omega(lat.site_momenta(), effective_masses(GlobalDynamicShell(), None))
