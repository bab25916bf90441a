"""Figure-scale smoke run (25^3 sites, 2 x 10^6 steps).

Stepping in the invariant subspace makes it about 6 s on a 2-vCPU Xeon VM,
so it runs with the default suite; the full-array leapfrog took about 9
minutes.
"""

import numpy as np

from rsft.action import BathParams, MatterActionKind
from rsft.dynamics import IntegratorParams, init_state, run
from rsft.lattice import MomentumLattice


def test_example_scale_free_run_completes_with_bounded_action(capsys):
    lattice = MomentumLattice(25, 0.1)
    n = lattice.site_count
    bath = BathParams(1.0, float(n), n)
    kind = MatterActionKind.FREE
    params = IntegratorParams(0.01, bath, kind)
    state, _ = init_state(lattice, bath, kind, 1)

    worst = 0.0

    def watch(live):
        nonlocal worst
        if live.step_count % 1000 == 0:
            worst = max(worst, abs(live.total_action(kind, bath)))

    state = run(state, params, 1_000_000, [watch])  # equilibration phase
    state = run(state, params, 1_000_000, [watch])  # data-collection phase
    with capsys.disabled():
        print(
            f"\nfigure-scale run: 2e6 steps done, max |total action| = {worst:.3e}, "
            f"final s = {state.s:.4f}"
        )
    assert np.all(np.isfinite(state.phi))
    assert state.s > 0
    assert worst < 10.0
