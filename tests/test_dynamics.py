import math
import tracemalloc

import numpy as np
import pytest

from rsft.action import BathParams, MatterActionKind, extended_action
from rsft.dynamics import (
    COORDINATE_BUFFER_LEN,
    ExtendedState,
    IntegratorParams,
    Sampling,
    StepFailureError,
    _advance,
    _reduced_steps,
    flip_momenta,
    init_state,
    run,
)
from rsft.lattice import MomentumLattice

FREE = MatterActionKind.FREE
COLLECTIVE = MatterActionKind.FREE_COLLECTIVE


def default_setup(n_per_axis=7, kind=COLLECTIVE, dlambda=0.01, seed=1, beta=1.0):
    lattice = MomentumLattice(n_per_axis, 0.1)
    bath = BathParams(beta, float(lattice.site_count), lattice.site_count)
    params = IntegratorParams(dlambda, bath, kind)
    state, rng = init_state(lattice, bath, kind, seed)
    return lattice, bath, params, state, rng


def reference_run(params, state, n_steps):
    """n_steps of the reference step `_advance` on copies of the state's
    site arrays."""
    phi, pi_phi, s, pi_s = state.phi.copy(), state.pi_phi.copy(), state.s, state.pi_s
    for _ in range(n_steps):
        s, pi_s = _advance(
            phi, pi_phi, s, pi_s, state.s0, params.dlambda, params.action_kind, params.bath
        )
    return ExtendedState.from_arrays(phi, pi_phi, s, pi_s, state.s0, state.step_count + n_steps)


def relative_errors(state, reference):
    """Largest deviation of phi, pi_phi, s and pi_s, each relative to the
    reference's largest magnitude."""
    return [
        float(np.abs(np.asarray(a) - np.asarray(b)).max() / np.abs(np.asarray(b)).max())
        for a, b in (
            (state.phi, reference.phi),
            (state.pi_phi, reference.pi_phi),
            (state.s, reference.s),
            (state.pi_s, reference.pi_s),
        )
    ]


class TestInitState:
    def test_total_action_zero_at_start(self):
        _, bath, params, state, _ = default_setup()
        assert state.total_action(params.action_kind, bath) == 0.0

    def test_field_starts_at_zero_scale_at_one(self):
        _, _, _, state, _ = default_setup()
        assert np.all(state.phi == 0.0)
        assert state.s == 1.0
        assert state.pi_s == 0.0
        assert state.step_count == 0

    def test_momentum_scale_concentrates_near_expected_value(self):
        # Var of uniform[-2.5, 2.5] is 25/12, so sum(pi^2)/(2N) concentrates
        # near 25/24 for N >= 343.
        for seed in range(5):
            _, _, _, state, _ = default_setup(seed=seed)
            n = state.pi_phi.shape[0]
            value = float(state.pi_phi @ state.pi_phi) / (2 * n)
            assert 0.8 <= value <= 1.3

    def test_draws_follow_lexicographic_site_order(self):
        lattice = MomentumLattice(3, 0.1)
        bath = BathParams(1.0, float(lattice.site_count), lattice.site_count)
        state, _ = init_state(lattice, bath, FREE, 123)
        reference = np.random.Generator(np.random.PCG64(123)).uniform(
            -2.5, 2.5, lattice.site_count
        )
        np.testing.assert_array_equal(state.pi_phi, reference)

    def test_equal_seeds_bitwise_identical(self):
        _, _, _, state_a, _ = default_setup(seed=9)
        _, _, _, state_b, _ = default_setup(seed=9)
        np.testing.assert_array_equal(state_a.pi_phi, state_b.pi_phi)
        assert state_a.s0 == state_b.s0


def bath_kick_fixed_point(pi_s, drive, h, m_s, iterations=300):
    """Independent fixed-point iteration for the implicit bath half-kick
    u = pi_s + h * (drive - u^2 / (2 m_s))."""
    u = pi_s + h * drive
    for _ in range(iterations):
        u = pi_s + h * (drive - u * u / (2.0 * m_s))
    return u


class TestLeapfrogStep:
    def test_bath_kick_root_matches_fixed_point(self):
        # From rest the half-kick solves u = -(h)(n_f/beta + u^2/(2 m_s)),
        # which to first order is -(dl/2) n_f / beta.
        n = 343
        bath = BathParams(1.0, float(n), n)
        phi = pi_phi = np.zeros(n)
        s0 = extended_action(phi, pi_phi, 1.0, 0.0, FREE, bath)
        state = ExtendedState.from_arrays(phi, pi_phi, 1.0, 0.0, s0)
        dl = 0.01
        params = IntegratorParams(dl, bath, FREE)
        stepped = run(state, params, 1)
        h = dl / 2.0
        drive = -bath.n_f / bath.beta  # all other terms vanish from rest
        expected_half = bath_kick_fixed_point(0.0, drive, h, bath.m_s)
        first_order = -h * bath.n_f / bath.beta
        assert expected_half == pytest.approx(first_order, rel=1e-4)
        # Reconstruct pi_s_half from the average of the two symmetric kicks:
        # from rest both half-kicks produce nearly the same value; check the
        # step's final pi_s against the fixed-point value of the full update.
        s_after = stepped.s
        assert s_after == pytest.approx(
            (1 + dl * expected_half / (4 * bath.m_s)) ** 2
            / (1 - dl * expected_half / (4 * bath.m_s)) ** 2,
            rel=1e-12,
        )

    def test_input_state_is_untouched(self):
        _, _, params, state, _ = default_setup()
        before = state.copy()
        run(state, params, 1)
        np.testing.assert_array_equal(state.phi, before.phi)
        np.testing.assert_array_equal(state.pi_phi, before.pi_phi)
        assert state.s == before.s and state.pi_s == before.pi_s

    def test_reversibility_forward_flip_backward(self):
        _, _, params, state, _ = default_setup()
        forward = run(state, params, 10_000)
        back = run(flip_momenta(forward), params, 10_000)
        restored = flip_momenta(back)
        scale = np.abs(state.pi_phi).max()
        assert np.abs(restored.phi - state.phi).max() <= 1e-6
        assert np.abs(restored.pi_phi - state.pi_phi).max() <= 1e-6 * max(1.0, scale)
        assert abs(restored.s - state.s) <= 1e-6
        assert abs(restored.pi_s - state.pi_s) <= 1e-6

    def test_conservation_bounded_and_second_order(self):
        # Reduced-scale conservation scaling probe: halving the step must
        # shrink the maximum total-action deviation by ~4 (second order).
        lattice = MomentumLattice(5, 0.1)
        bath = BathParams(1.0, float(lattice.site_count), lattice.site_count)

        def max_drift(dlambda, n_steps):
            params = IntegratorParams(dlambda, bath, COLLECTIVE)
            state, _ = init_state(lattice, bath, COLLECTIVE, 2)
            worst = 0.0
            def watch(live):
                nonlocal worst
                worst = max(worst, abs(live.total_action(COLLECTIVE, bath)))
            run(state, params, n_steps, [watch])
            return worst

        coarse = max_drift(0.01, 20_000)
        fine = max_drift(0.005, 20_000)
        assert coarse < 0.1
        assert 3.0 <= coarse / fine <= 5.0

    def test_step_failure_carries_stage_and_index(self):
        _, bath, _, state, _ = default_setup(n_per_axis=3)
        bad = IntegratorParams(50.0, bath, COLLECTIVE)
        with pytest.raises(StepFailureError) as excinfo:
            run(state, bad, 10)
        assert excinfo.value.stage in ("bath-kick", "scale-drift")
        assert excinfo.value.step_index is not None

    def test_one_step_jacobian_is_volume_preserving(self):
        # Single-site system; central finite differences of the one-step map.
        lattice = MomentumLattice(1, 0.1)
        bath = BathParams(1.0, 1.0, 1)
        params = IntegratorParams(0.002, bath, COLLECTIVE)

        def step_map(z):
            state = ExtendedState.from_arrays(np.array([z[0]]), np.array([z[1]]), z[2], z[3], 0.17)
            out = run(state, params, 1)
            return np.array([out.phi[0], out.pi_phi[0], out.s, out.pi_s])

        z0 = np.array([0.3, -0.4, 1.1, 0.2])
        eps = 1e-6
        jacobian = np.empty((4, 4))
        for j in range(4):
            plus, minus = z0.copy(), z0.copy()
            plus[j] += eps
            minus[j] -= eps
            jacobian[:, j] = (step_map(plus) - step_map(minus)) / (2 * eps)
        assert abs(np.linalg.det(jacobian) - 1.0) <= 1e-8


class TestRun:
    def test_zero_steps_returns_equal_state(self):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        out = run(state, params, 0)
        np.testing.assert_array_equal(out.phi, state.phi)
        np.testing.assert_array_equal(out.pi_phi, state.pi_phi)
        assert (out.s, out.pi_s, out.step_count) == (state.s, state.pi_s, state.step_count)

    def test_split_runs_compose_exactly(self):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        once = run(state, params, 250)
        split = run(run(state, params, 100), params, 150)
        np.testing.assert_array_equal(once.phi, split.phi)
        np.testing.assert_array_equal(once.pi_phi, split.pi_phi)
        assert once.s == split.s
        assert once.pi_s == split.pi_s
        assert once.step_count == split.step_count == 250

    def test_equal_seeds_give_bitwise_identical_trajectories(self):
        _, _, params, state_a, _ = default_setup(n_per_axis=3, seed=7)
        _, _, params_b, state_b, _ = default_setup(n_per_axis=3, seed=7)
        out_a = run(state_a, params, 500)
        out_b = run(state_b, params_b, 500)
        np.testing.assert_array_equal(out_a.phi, out_b.phi)
        np.testing.assert_array_equal(out_a.pi_phi, out_b.pi_phi)
        assert out_a.s == out_b.s and out_a.pi_s == out_b.pi_s

    def test_observer_sees_every_step_with_readonly_state(self):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        seen = []

        def observer(live):
            seen.append(live.step_count)
            assert not live.phi.flags.writeable
            assert not live.pi_phi.flags.writeable

        run(state, params, 5, [observer])
        assert seen == [1, 2, 3, 4, 5]

    def test_arrays_and_basis_cannot_be_written(self):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        for out in (state, run(state, params, 20)):
            for name in ("phi", "pi_phi"):
                with pytest.raises(AttributeError):
                    setattr(out, name, np.zeros(27))
                with pytest.raises(ValueError, match="read-only"):
                    getattr(out, name)[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                out.basis[0, 0] = 1.0

    def test_negative_steps_rejected(self):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        with pytest.raises(ValueError):
            run(state, params, -1)

    def test_thinned_observer_snapshots_match_run(self):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        snapshots = []

        def every_tenth(live):
            if live.step_count % 10 == 0:
                snapshots.append(live.phi.copy())

        run(state, params, 40, [every_tenth])
        assert len(snapshots) == 4
        direct = run(state, params, 40)
        np.testing.assert_array_equal(snapshots[-1], direct.phi)
        partial = run(state, params, 10)
        np.testing.assert_array_equal(snapshots[0], partial.phi)


class TestSubspacePath:
    """`run` steps in the invariant subspace; `_advance` is the reference."""

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_desk_scale_long_run_matches_reference(self, kind):
        _, _, params, state, _ = default_setup(n_per_axis=9, kind=kind)
        errors = relative_errors(run(state, params, 100_000), reference_run(params, state, 100_000))
        assert max(errors) <= 1e-9, errors

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_figure_scale_run_matches_reference(self, kind):
        _, _, params, state, _ = default_setup(n_per_axis=25, kind=kind)
        errors = relative_errors(run(state, params, 5_000), reference_run(params, state, 5_000))
        assert max(errors) <= 1e-9, errors

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_single_site_matches_reference(self, kind):
        _, _, params, state, _ = default_setup(n_per_axis=1, kind=kind)
        out = run(state, params, 20_000)
        assert out.basis.shape == (1, 1)
        assert max(relative_errors(out, reference_run(params, state, 20_000))) <= 1e-9

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_nonzero_start_field_spans_three_dimensions(self, kind):
        _, bath, params, state, rng = default_setup(n_per_axis=5, kind=kind)
        phi = rng.normal(size=state.phi.shape)
        s0 = extended_action(phi, state.pi_phi, state.s, state.pi_s, kind, bath)
        state = ExtendedState.from_arrays(phi, state.pi_phi, state.s, state.pi_s, s0)
        out = run(state, params, 20_000)
        assert out.basis.shape == (3, phi.shape[0])
        np.testing.assert_allclose(out.basis @ out.basis.T, np.eye(3), rtol=0, atol=1e-14)
        assert max(relative_errors(out, reference_run(params, state, 20_000))) <= 1e-9

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    def test_step_failure_matches_reference(self, kind):
        _, bath, _, state, _ = default_setup(n_per_axis=3, kind=kind)
        bad = IntegratorParams(50.0, bath, kind)
        with pytest.raises(StepFailureError) as reduced:
            run(state, bad, 10)
        failed_at = None
        phi, pi_phi, s, pi_s = state.phi.copy(), state.pi_phi.copy(), state.s, state.pi_s
        with pytest.raises(StepFailureError) as full:
            for failed_at in range(1, 11):
                s, pi_s = _advance(phi, pi_phi, s, pi_s, state.s0, 50.0, kind, bath)
        assert reduced.value.stage == full.value.stage
        assert reduced.value.step_index == failed_at

    def test_flip_twice_restores_the_state_bitwise(self):
        _, _, params, state, _ = default_setup(n_per_axis=5)
        for original in (state, run(state, params, 50)):
            flipped = flip_momenta(original)
            np.testing.assert_array_equal(flipped.pi_phi, -original.pi_phi)
            back = flip_momenta(flipped)
            assert np.array_equal(back.basis, original.basis)
            assert (back.x, back.y) == (original.x, original.y)
            assert (back.s, back.pi_s, back.step_count) == (
                original.s, original.pi_s, original.step_count
            )
            for name in ("phi", "pi_phi"):
                np.testing.assert_array_equal(getattr(back, name), getattr(original, name))

    def test_observers_share_one_rebuild_per_step(self):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        seen = []
        run(state, params, 3, [lambda live: seen.append(live.phi)] * 2)
        assert seen[0] is seen[1] and seen[2] is seen[3]
        assert seen[1] is not seen[2]


class TestCadence:
    """`run(..., every=g)` calls its observers at multiples of g and after
    its last step, and steps in between in one call."""

    @staticmethod
    def snapshots(state, params, n_steps, every, keep):
        seen = {}

        def observer(live):
            if keep(live.step_count):
                seen[live.step_count] = (live.phi.copy(), live.pi_phi.copy(), live.s, live.pi_s)

        final = run(state, params, n_steps, [observer], every)
        return seen, final

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    @pytest.mark.parametrize("start, every", [(0, 10), (3, 7), (5, 1)])
    def test_states_at_multiples_are_bitwise_those_of_every_step(self, kind, start, every):
        _, _, params, state, _ = default_setup(n_per_axis=5, kind=kind)
        state = run(state, params, start) if start else state
        end = start + 123
        keep = lambda step: step % every == 0 or step == end  # noqa: E731
        coarse, final = self.snapshots(state, params, 123, every, lambda step: True)
        fine, reference = self.snapshots(state, params, 123, 1, keep)
        assert sorted(coarse) == sorted(fine)
        assert sorted(coarse) == [s for s in range(start + 1, end + 1) if keep(s)]
        for step, (phi, pi_phi, s, pi_s) in fine.items():
            got = coarse[step]
            np.testing.assert_array_equal(got[0], phi)
            np.testing.assert_array_equal(got[1], pi_phi)
            assert (got[2], got[3]) == (s, pi_s)
        np.testing.assert_array_equal(final.phi, reference.phi)

    @pytest.mark.parametrize(
        "kind, dlambda, start, every",
        [(COLLECTIVE, 50.0, 5, 4), (FREE, 1.0, 0, 5)],
        ids=["first_in_stretch", "inside_stretch"],
    )
    def test_failure_off_a_multiple_keeps_stage_and_index(self, kind, dlambda, start, every):
        _, bath, _, state, _ = default_setup(n_per_axis=3, kind=kind)
        state.step_count = start
        bad = IntegratorParams(dlambda, bath, kind)
        with pytest.raises(StepFailureError) as stepwise:
            run(state, bad, 20)
        with pytest.raises(StepFailureError) as stretched:
            run(state, bad, 20, every=every)
        assert stepwise.value.step_index % every != 0
        assert stretched.value.stage == stepwise.value.stage
        assert stretched.value.step_index == stepwise.value.step_index
        assert str(stretched.value) == str(stepwise.value)

    @pytest.mark.parametrize("every", [0, -3])
    def test_every_below_one_is_refused(self, every):
        _, _, params, state, _ = default_setup(n_per_axis=3)
        with pytest.raises(ValueError, match="every"):
            run(state, params, 10, every=every)


class TestCoordinates:
    def test_live_state_coordinates_lift_to_phi(self):
        _, _, params, state, _ = default_setup(n_per_axis=5)
        seen = []

        def observer(live):
            basis, x = live.basis, live.x
            assert len(x) == 3 and x[basis.shape[0]:] == (0.0,) * (3 - basis.shape[0])
            lifted = sum(x[j] * basis[j] for j in range(basis.shape[0]))
            seen.append(np.abs(lifted - live.phi).max())

        run(state, params, 50, [observer], every=10)
        assert len(seen) == 5 and max(seen) <= 1e-14


def previous_reduced_steps(x, y, s, pi_s, s0, collective, dlambda, bath, n_steps):
    """The subspace step function before it carried s^2, 1/s, h s and one
    |y|^2 per step: the reference the current one must match bitwise."""
    h = 0.5 * dlambda
    m_s = bath.m_s
    n_f_beta = bath.n_f / bath.beta
    a = h / (2.0 * m_s)
    x0, x1, x2 = x
    y0, y1, y2 = y
    g0 = collective * x0
    s_m = 0.5 * (g0 * x0 + x1 * x1 + x2 * x2)
    log_s = math.log(s)
    for step in range(1, n_steps + 1):
        kick = h * s
        y0 -= kick * g0
        y1 -= kick * x1
        y2 -= kick * x2

        kinetic = (y0 * y0 + y1 * y1 + y2 * y2) / (s * s)
        drive = 0.5 * kinetic - n_f_beta - s_m - n_f_beta * log_s + s0
        b = pi_s + h * drive
        disc = 1.0 + 4.0 * a * b
        if disc < 0.0:
            raise StepFailureError(
                "bath-kick", f"negative discriminant {disc:.3e} in bath-momentum solve", step
            )
        pi_s_half = 2.0 * b / (1.0 + math.sqrt(disc))

        c = dlambda * pi_s_half / (4.0 * m_s)
        if not -1.0 < c < 1.0:
            raise StepFailureError(
                "scale-drift", f"scale-factor update out of range (c={c:.3e})", step
            )
        ratio = (1.0 + c) / (1.0 - c)
        s_before = s
        s = (s * ratio) * ratio
        if not s > 0.0:
            raise StepFailureError(
                "scale-drift", f"scale factor became nonpositive ({s:.3e})", step
            )
        drift = h * (1.0 / s_before + 1.0 / s)
        x0 += drift * y0
        x1 += drift * y1
        x2 += drift * y2

        g0 = collective * x0
        s_m = 0.5 * (g0 * x0 + x1 * x1 + x2 * x2)
        log_s = math.log(s)
        kinetic2 = (y0 * y0 + y1 * y1 + y2 * y2) / (s * s)
        s_x = 0.5 * kinetic2 + pi_s_half * pi_s_half / (2.0 * m_s) + s_m + n_f_beta * log_s
        pi_s = pi_s_half + h * (kinetic2 - n_f_beta - (s_x - s0))

        kick = h * s
        y0 -= kick * g0
        y1 -= kick * x1
        y2 -= kick * x2
    return (x0, x1, x2), (y0, y1, y2), s, pi_s


class TestStepFunction:
    """The subspace step function against a copy of its previous form."""

    @staticmethod
    def arguments(state, params, n_steps):
        collective = 1.0 + params.action_kind.coupling * state.basis.shape[1]
        return (
            state.x, state.y, state.s, state.pi_s, state.s0, collective,
            params.dlambda, params.bath, n_steps,
        )

    @pytest.mark.parametrize("kind", [FREE, COLLECTIVE])
    @pytest.mark.parametrize("n_per_axis, three", [(9, False), (5, True)])
    def test_steps_bitwise_as_the_previous_kernel(self, kind, n_per_axis, three):
        _, bath, params, state, rng = default_setup(n_per_axis=n_per_axis, kind=kind)
        if three:
            # a nonzero start field: all three coordinates move
            phi = rng.normal(size=state.phi.shape)
            s0 = extended_action(phi, state.pi_phi, state.s, state.pi_s, kind, bath)
            state = ExtendedState.from_arrays(phi, state.pi_phi, state.s, state.pi_s, s0)
        args = self.arguments(state, params, 30_000)
        assert _reduced_steps(*args) == previous_reduced_steps(*args)

    @pytest.mark.parametrize("kind, dlambda", [(COLLECTIVE, 50.0), (FREE, 1.0), (FREE, 5.0)])
    def test_fails_as_the_previous_kernel(self, kind, dlambda):
        _, bath, _, state, _ = default_setup(n_per_axis=3, kind=kind)
        args = self.arguments(state, IntegratorParams(dlambda, bath, kind), 50)
        with pytest.raises(StepFailureError) as now:
            _reduced_steps(*args)
        with pytest.raises(StepFailureError) as before:
            previous_reduced_steps(*args)
        assert (now.value.stage, now.value.step_index, str(now.value)) == (
            before.value.stage, before.value.step_index, str(before.value)
        )


def stepwise_samples(state, params, n_steps, start, stride):
    """(step_count, x) of every step the CLI sampling observer took when it
    was called after each step: offset = step_count - start > 0 and a
    multiple of stride."""
    seen = []

    def observe(live):
        offset = live.step_count - start
        if offset > 0 and offset % stride == 0:
            seen.append((live.step_count, live.x))

    return seen, run(state, params, n_steps, [observe])


def recorded_samples(state, params, n_steps, start, stride, every):
    """(step_count, x) of every row `run` hands over for Sampling(start,
    stride), with the step_count each row's position implies, and the
    blocks' lengths."""
    blocks = []
    final = run(
        state, params, n_steps, every=every,
        sampling=Sampling(start, stride, lambda block: blocks.append(block)),
    )
    rows = [row for block in blocks for row in block.rows]
    first = Sampling(start, stride, None).next_after(state.step_count)
    steps = range(first, first + stride * len(rows), stride)
    assert all(block.basis is state.basis for block in blocks)
    return list(zip(steps, rows)), [len(block.rows) for block in blocks], final


class TestSampling:
    """The step function records the coordinates of exactly the steps the
    CLI sampled when it was called after each step, and `run` hands them
    over in blocks of at most COORDINATE_BUFFER_LEN rows."""

    @pytest.mark.parametrize(
        "start, stride, begin, every",
        [(25, 10, 0, 500), (0, 1, 0, 7), (40, 3, 5, 1), (7, 4, 13, 30), (0, 10, 0, 10**6)],
        ids=["equilibration_off_stride", "stride_one", "every_step", "begins_past_start",
             "one_stretch"],
    )
    def test_rows_are_the_stepwise_samples(self, start, stride, begin, every):
        _, _, params, state, _ = default_setup(n_per_axis=5)
        state = run(state, params, begin) if begin else state
        want, reference = stepwise_samples(state, params, 600, start, stride)
        got, lengths, final = recorded_samples(state, params, 600, start, stride, every)
        assert got == want
        assert max(lengths) <= COORDINATE_BUFFER_LEN
        assert (final.x, final.y, final.s, final.pi_s) == (
            reference.x, reference.y, reference.s, reference.pi_s
        )

    def test_a_stretch_inside_equilibration_records_nothing(self):
        _, _, params, state, _ = default_setup(n_per_axis=5)
        got, lengths, _ = recorded_samples(state, params, 200, 300, 10, 50)
        assert got == [] and lengths == []
        got, _, _ = recorded_samples(state, params, 320, 300, 10, 50)
        assert [step for step, _ in got] == [310, 320]

    def test_a_run_split_in_two_records_the_rows_of_one(self):
        _, _, params, state, _ = default_setup(n_per_axis=5)
        whole, _, _ = recorded_samples(state, params, 700, 33, 7, 100)
        first, _, middle = recorded_samples(state, params, 345, 33, 7, 100)
        second, _, _ = recorded_samples(middle, params, 355, 33, 7, 100)
        assert first + second == whole

    def test_a_huge_stretch_holds_at_most_a_buffer_of_rows(self):
        # observers every 10^6 steps and every step sampled: unbounded, the
        # one stretch of this run would hold 20 000 rows, about 2.7 MB of
        # coordinate tuples
        _, _, params, state, _ = default_setup(n_per_axis=5)
        lengths = []
        tracemalloc.start()
        try:
            run(state, params, 20_000, every=10**6,
                sampling=Sampling(0, 1, lambda block: lengths.append(len(block.rows))))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(lengths) == 20_000
        assert max(lengths) == COORDINATE_BUFFER_LEN
        assert peak <= 100_000, peak

    def test_a_full_buffer_calls_no_observer(self):
        # the stretches cut at 256 sampled rows end between observer steps:
        # the observers run only after the last step
        _, _, params, state, _ = default_setup(n_per_axis=5)
        called, lengths = [], []
        run(state, params, 2_000, [lambda live: called.append(live.step_count)],
            every=10**6, sampling=Sampling(0, 1, lambda block: lengths.append(len(block.rows))))
        assert len(lengths) == 8
        assert called == [2_000]
