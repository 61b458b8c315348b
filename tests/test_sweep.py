"""Mode tracking across an axial-frequency sweep."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from tapermode import sweep
from tapermode.core import TWO_PI, TrapConfig
from tapermode.equilibrium import chain_positions_dimensionless, coulomb_matrix
from tapermode.errors import ConfigError, SolverError
from tapermode.modes import canonical_sign, compute_modes, participation_ratio
from tapermode.sweep import (
    THREE_ION_LABELS,
    TRACKING_OVERLAP_MIN,
    assign_columns,
    match_columns,
    run_sweep,
)

from reference_modes import linear_reference

GRID = TWO_PI * np.linspace(47e3, 205e3, 24)


def per_point_sweep(config, omega_z_values, direction):
    """Reference sweep, one omega_z at a time.

    Solves every point with :func:`compute_modes` and :func:`linear_reference`
    and tracks with its own overlap assignment, as the sweep did before the
    stacked solve. Returns ``(labels, arrays)`` with arrays [P, N] for
    eigenvalue, frequency, participation and linear_frequency and [P, N, N]
    (point, mode, ion) for vector; raises :class:`SolverError` where that
    sweep did.
    """
    omegas = np.sort(np.asarray(omega_z_values, dtype=float))
    solved = []
    for w in omegas:
        cfg = config.replace(omega_z=float(w))
        solved.append((compute_modes(cfg), linear_reference(cfg)))
    n = config.n_ions
    vectors, freqs, vals, prev = [], [], [], None
    for table, _ in solved:
        mat = table.matrix(direction)
        order, signs = np.arange(n), np.ones(n)
        if prev is not None:
            overlap = prev.T @ mat
            _, order = linear_sum_assignment(-np.abs(overlap))
            matched = overlap[np.arange(n), order]
            if np.min(np.abs(matched)) < TRACKING_OVERLAP_MIN:
                raise SolverError("mode tracking failed; refine the omega_z grid")
            signs = np.where(matched < 0.0, -1.0, 1.0)
        prev = mat = mat[:, order] * signs
        vectors.append(mat)
        freqs.append(table.frequencies(direction)[order])
        vals.append(table.eigenvalues(direction)[order])
    last_linear = solved[-1][1].matrix(direction)
    _, linear_rank = linear_sum_assignment(-np.abs(vectors[-1].T @ last_linear))
    labels = (tuple(THREE_ION_LABELS[r] for r in linear_rank) if n == 3
              else tuple(f"m{r + 1}" for r in linear_rank))
    linear = [lin.frequencies(direction)[linear_rank] for _, lin in solved]
    return labels, {
        "eigenvalue": np.array(vals),
        "frequency": np.array(freqs),
        "participation": np.array([[participation_ratio(v) for v in m.T] for m in vectors]),
        "linear_frequency": np.array(linear),
        "vector": np.array([m.T for m in vectors]),
    }


def sweep_arrays(result):
    """The fields of a :class:`SweepResult`, laid out as in :func:`per_point_sweep`."""
    return {
        "eigenvalue": result.eigenvalues,
        "frequency": result.frequencies,
        "participation": result.participation,
        "linear_frequency": result.linear_frequencies,
        "vector": np.swapaxes(result.vectors, 1, 2),
    }


def assert_matches_per_point(result, labels, expected):
    got = sweep_arrays(result)
    assert result.labels == labels
    for name in ("eigenvalue", "frequency", "linear_frequency"):
        np.testing.assert_allclose(got[name], expected[name], rtol=1e-12, atol=0.0)
    for name in ("vector", "participation"):
        np.testing.assert_allclose(got[name], expected[name], rtol=0.0, atol=1e-12)


def highest_omega_z(config, direction):
    """The axial frequency at which ``config`` stops being a stable chain.

    That is the straight-trap zigzag point of ``direction``, or the bound
    past which an effective radial frequency vanishes, whichever is lower.
    """
    limit = math.sqrt(2.0) * min(config.omega_x0, config.omega_y0)
    u = chain_positions_dimensionless(config.n_ions)
    kappa_min = np.linalg.eigvalsh(coulomb_matrix(u))[0]
    if kappa_min >= 0.0:  # a single ion has no zigzag mode
        return limit
    bare = config.omega_x0 if direction == "x" else config.omega_y0
    beta2 = -1.0 / kappa_min
    return min(limit, bare * math.sqrt(beta2 / (1.0 + beta2 / 2.0)))


def solve_and_track(monkeypatch, config, grid):
    """:func:`run_sweep` along x, with the raw stack it solved and every search cost.

    Returns ``(result, stack, costs)``: ``stack`` is a copy of the
    ``(values, vectors, participation)`` of the one stacked eigensolve, before
    any tracking, with point 0's columns signed as :func:`run_sweep` signs
    them, and ``costs`` are the matrices given to the assignment search, in
    call order.
    """
    stacks, costs = [], []
    solve, search = sweep._eigensystem, sweep._shortest_augmenting_path

    def capture(mats, where):
        solved = solve(mats, where)
        values, vectors, participation = (a.copy() for a in solved)
        vectors[0] = canonical_sign(vectors[0])
        stacks.append((values, vectors, participation))
        return solved

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_eigensystem", capture)
        patch.setattr(sweep, "_shortest_augmenting_path",
                      lambda cost: costs.append(cost.copy()) or search(cost))
        result = run_sweep(config, grid, "x")
    (stack,) = stacks
    return result, stack, costs


def scipy_tracked_sweep(config, grid, stack):
    """The x sweep of a raw stacked solve, tracked point by point by scipy.

    ``stack`` is ``(values, vectors, participation)`` for the ascending
    ``grid`` as the stacked eigensolve returns them. Each point's columns are
    paired with the previous point's tracked columns by
    ``linear_sum_assignment`` on |overlap| and signed to match; the labels
    and the untapered reference follow :func:`run_sweep`'s documentation.
    Returns ``(labels, arrays)`` with arrays keyed by ``SweepResult`` field.
    """
    values, vectors, participation = (a.copy() for a in stack)
    for k in range(1, grid.size):
        overlap = vectors[k - 1].T @ vectors[k]
        rows, order = linear_sum_assignment(-np.abs(overlap))
        matched = overlap[rows, order]
        assert np.min(np.abs(matched)) >= TRACKING_OVERLAP_MIN
        vectors[k] = vectors[k][:, order] * np.where(matched < 0.0, -1.0, 1.0)
        values[k] = values[k][order]
        participation[k] = participation[k][order]
    kappa, linear_vectors = np.linalg.eigh(
        coulomb_matrix(chain_positions_dimensionless(config.n_ions)))
    _, rank = linear_sum_assignment(-np.abs(vectors[-1].T @ linear_vectors))
    points = [config.replace(omega_z=w) for w in grid.tolist()]
    betas = np.array([c.beta("x") for c in points])
    units = np.array([c.radial_frequency("x") for c in points])[:, None]
    linear_values = 1.0 + betas[:, None] ** 2 * kappa
    return tuple(f"m{r + 1}" for r in rank), {
        "omega_z": grid,
        "eigenvalues": values,
        "frequencies": np.sqrt(values) * units,
        "vectors": vectors,
        "participation": participation,
        "linear_frequencies": (np.sqrt(linear_values) * units)[:, rank],
    }


def scipy_assign_columns(reference, candidate):
    """``assign_columns`` by ``scipy.optimize.linear_sum_assignment``, the reference."""
    overlap = reference.T @ candidate
    rows, order = linear_sum_assignment(-np.abs(overlap))
    matched = overlap[rows, order]
    return order, np.where(matched < 0.0, -1.0, 1.0), np.abs(matched)


class TestAssignColumns:
    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 12),
        values=st.sampled_from(["continuous", "ties"]),
        collisions=st.integers(0, 3),
    )
    def test_equals_scipy(self, data, n, values, collisions):
        """Same order, signs and strengths as scipy on any square overlap matrix.

        With ``reference`` the identity the overlap is ``candidate`` itself.
        Small-integer entries make ties; ``collisions`` rows are given their
        largest |overlap| in a column another row already peaks in, so the
        row-wise argmax is not a permutation and the path search runs.
        """
        elements = (st.floats(-1.0, 1.0, allow_subnormal=False) if values == "continuous"
                    else st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
        candidate = data.draw(hnp.arrays(float, (n, n), elements=elements))
        if n > 1:
            for row in data.draw(st.lists(st.integers(0, n - 1), max_size=collisions)):
                col = int(np.argmax(np.abs(candidate[(row + 1) % n])))
                candidate[row, col] = data.draw(st.sampled_from([-2.0, 2.0]))
        got = assign_columns(np.eye(n), candidate)
        want = scipy_assign_columns(np.eye(n), candidate)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_equals_scipy_on_rotated_frames(self):
        rng = np.random.default_rng(3)
        for n in range(1, 13):
            reference, _ = np.linalg.qr(rng.normal(size=(n, n)))
            for mixing in (0.1, 0.5, 2.0):
                candidate, _ = np.linalg.qr(reference + mixing * rng.normal(size=(n, n)))
                got = assign_columns(reference, candidate)
                want = scipy_assign_columns(reference, candidate)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    def test_long_chain_sweep_with_a_collision_equals_scipy_tracking(self, monkeypatch):
        """N = 30 over 21-81 kHz: on the 400-point survey grid the row-wise best
        overlaps collide in the label assignment, and on 60 points in three
        grid intervals as well. The search runs, and the sweep equals, bit for
        bit, its own raw stack tracked point by point by scipy."""
        config = TrapConfig(n_ions=30)
        for points in (400, 60):
            grid = TWO_PI * np.linspace(21e3, 81e3, points)
            result, stack, costs = solve_and_track(monkeypatch, config, grid)
            assert any(np.unique(cost.argmin(axis=1)).size < cost.shape[0] for cost in costs)
            labels, expected = scipy_tracked_sweep(config, grid, stack)
            assert result.labels == labels
            for name, array in expected.items():
                assert np.array_equal(getattr(result, name), array), (points, name)


class TestMatchColumns:
    def test_recovers_permutation_and_signs(self):
        rng = np.random.default_rng(7)
        previous, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        perm = rng.permutation(5)
        flips = rng.choice([-1.0, 1.0], size=5)
        current = previous[:, perm] * flips
        order, signs = match_columns(previous, current)
        assert np.allclose(current[:, order] * signs, previous, atol=1e-12)

    def test_identity_for_small_rotation(self):
        theta = 0.05
        previous = np.eye(2)
        current = np.array([
            [math.cos(theta), -math.sin(theta)],
            [math.sin(theta), math.cos(theta)],
        ])
        order, signs = match_columns(previous, current)
        assert list(order) == [0, 1]
        assert list(signs) == [1.0, 1.0]

    def test_weak_overlap_raises(self):
        previous = np.eye(3)
        current = 0.1 * np.eye(3)  # columns too short to identify confidently
        with pytest.raises(SolverError, match="refine"):
            match_columns(previous, current)
        # and all assignments of a maximally mixed non-orthogonal frame fail
        mixed = np.full((3, 3), 1.0 / 3.0)
        with pytest.raises(SolverError):
            match_columns(previous, mixed)

    def test_threshold_is_documented_value(self):
        assert TRACKING_OVERLAP_MIN == 0.5


class TestTrackColumns:
    """The batched tracking pass against per-interval matching."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        points=st.integers(1, 12),
        mixing=st.sampled_from([0.05, 0.3, 0.8, 3.0]),
    )
    def test_equals_the_match_columns_loop(self, seed, n, points, mixing):
        """Random frames, each a rotation of the last with its columns shuffled
        and signed: the batched orders and signs line the columns up exactly as
        a :func:`match_columns` loop over the intervals does, or fail with its
        message at the same interval."""
        rng = np.random.default_rng(seed)
        frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
        frames = []
        for _ in range(points):
            frame, _ = np.linalg.qr(frame + mixing * rng.normal(size=(n, n)))
            frames.append(frame[:, rng.permutation(n)] * rng.choice([-1.0, 1.0], n))
        vectors = np.array(frames)
        expected = vectors.copy()
        try:
            for k in range(1, points):
                order, signs = match_columns(expected[k - 1], expected[k])
                expected[k] = expected[k][:, order] * signs
        except SolverError as error:
            with pytest.raises(SolverError) as info:
                sweep._track_columns(vectors)
            assert str(info.value) == str(error)
            return
        orders, signs = sweep._track_columns(vectors)
        tracked = np.take_along_axis(vectors, orders[:, None, :], axis=2) * signs[:, None, :]
        assert np.array_equal(tracked, expected)

    @pytest.mark.parametrize("points, colliding", [(400, 0), (60, 3)])
    def test_search_runs_once_per_colliding_interval(self, monkeypatch, points, colliding):
        """Only intervals whose row-wise best overlaps share a column reach the
        search, once each; the last search is the label assignment."""
        n = 30
        grid = TWO_PI * np.linspace(21e3, 81e3, points)
        _, (_, vectors, _), costs = solve_and_track(monkeypatch, TrapConfig(n_ions=n), grid)
        collisions = [k for k in range(points - 1)
                      if np.unique(np.abs(vectors[k].T @ vectors[k + 1]).argmax(axis=1)).size < n]
        assert len(collisions) == colliding
        assert len(costs) == colliding + 1
        for cost in costs[:-1]:
            assert np.unique(cost.argmin(axis=1)).size < n

    @pytest.mark.parametrize("points, weakest",
                             [(9, "0.446"), (17, "0.452"), (41, "0.448"), (81, None)])
    def test_coarse_long_chain_grids_name_the_weakest_overlap(self, points, weakest):
        """N = 30 over 21-81 kHz is first tracked at 81 points."""
        grid = TWO_PI * np.linspace(21e3, 81e3, points)
        if weakest is None:
            assert run_sweep(TrapConfig(n_ions=30), grid).vectors.shape == (points, 30, 30)
            return
        message = f"weakest matched overlap {weakest} < 0.5; refine the omega_z grid"
        with pytest.raises(SolverError, match=re.escape(message)):
            run_sweep(TrapConfig(n_ions=30), grid)

    @pytest.mark.parametrize("n, points", [(3, 1), (1, 1), (1, 7)])
    def test_one_point_and_one_ion_sweeps_keep_their_shapes(self, n, points):
        result = run_sweep(TrapConfig(n_ions=n), GRID[:points])
        shapes = {"omega_z": (points,), "eigenvalues": (points, n),
                  "frequencies": (points, n), "vectors": (points, n, n),
                  "participation": (points, n), "linear_frequencies": (points, n)}
        for name, shape in shapes.items():
            assert getattr(result, name).shape == shape, name
        assert len(result.labels) == n


class TestRunSweep:
    def test_labels_follow_linear_order(self):
        result = run_sweep(TrapConfig(), GRID)
        assert result.labels == THREE_ION_LABELS
        assert result.direction == "x"
        # at the collective end the tracked frequencies sit in label order
        last = result.frequencies[-1]
        assert last[0] < last[1] < last[2]

    def test_points_sorted_even_for_unsorted_input(self):
        result = run_sweep(TrapConfig(), GRID[::-1])
        omegas = list(result.omega_z)
        assert omegas == sorted(omegas)
        assert omegas == pytest.approx(list(GRID))

    def test_tracks_are_continuous(self):
        result = run_sweep(TrapConfig(), GRID)
        for k in range(result.omega_z.size - 1):
            for a, b in zip(result.vectors[k].T, result.vectors[k + 1].T):
                assert float(a @ b) > 0.8

    def test_localized_to_collective_transition(self):
        result = run_sweep(TrapConfig(), GRID)
        first, last = result.participation[0], result.participation[-1]
        assert all(ratio < 1.05 for ratio in first)
        assert all(ratio > 2.0 for ratio in last)

    def test_linear_reference_matches_closed_forms(self):
        result = run_sweep(TrapConfig(), GRID[::6])
        gamma_of = {"com": 0.0, "rocking": 1.0, "zigzag": 12.0 / 5.0}
        for omega_z, linears in zip(result.omega_z, result.linear_frequencies):
            cfg = TrapConfig().replace(omega_z=float(omega_z))
            beta = cfg.beta("x")
            for label, linear in zip(result.labels, linears):
                expected = cfg.omega_x * math.sqrt(1.0 - gamma_of[label] * beta**2)
                assert linear == pytest.approx(expected, rel=1e-9)

    def test_threads_do_not_change_results(self):
        serial = run_sweep(TrapConfig(), GRID, threads=1)
        parallel = run_sweep(TrapConfig(), GRID, threads=4)
        assert np.array_equal(serial.omega_z, parallel.omega_z)
        assert serial.labels == parallel.labels
        assert np.array_equal(serial.frequencies, parallel.frequencies)
        assert np.array_equal(serial.vectors, parallel.vectors)

    def test_arrays_are_read_only_with_one_row_per_point(self):
        result = run_sweep(TrapConfig(n_ions=4), GRID)
        p, n = GRID.size, 4
        shapes = {"omega_z": (p,), "eigenvalues": (p, n), "frequencies": (p, n),
                  "vectors": (p, n, n), "participation": (p, n), "linear_frequencies": (p, n)}
        for name, shape in shapes.items():
            array = getattr(result, name)
            assert array.shape == shape, name
            assert not array.flags.writeable, name

    def test_points_view_equals_the_arrays(self):
        result = run_sweep(TrapConfig(n_ions=4), GRID)
        points = result.points
        assert len(points) == GRID.size
        for p, point in enumerate(points):
            assert point.omega_z == result.omega_z[p]
            assert tuple(m.label for m in point.modes) == result.labels
            for k, mode in enumerate(point.modes):
                assert mode.eigenvalue == result.eigenvalues[p, k]
                assert mode.frequency == result.frequencies[p, k]
                assert np.array_equal(mode.vector, result.vectors[p, :, k])
                assert mode.participation == result.participation[p, k]
                assert mode.linear_frequency == result.linear_frequencies[p, k]

    def test_generic_labels_for_other_chain_sizes(self):
        config = TrapConfig().replace(n_ions=4)
        result = run_sweep(config, GRID)
        assert sorted(result.labels) == ["m1", "m2", "m3", "m4"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(TrapConfig(), [])

    def test_oversize_stack_rejected_before_solving(self, monkeypatch):
        """200 points at 1000 ions ask for a 1.5 GiB [P, N, N] stack."""
        monkeypatch.setattr(sweep, "_eigensystem", None)  # never reached
        with pytest.raises(ConfigError, match="200 sweep points needs a 1.49 GiB array"):
            run_sweep(TrapConfig(n_ions=1000), TWO_PI * np.linspace(47e3, 48e3, 200))

    def test_axial_direction_rejected(self):
        with pytest.raises(ConfigError, match="not radial"):
            run_sweep(TrapConfig(), GRID, direction="z")

    def test_zigzag_instability_names_the_first_unstable_point(self):
        grid = TWO_PI * np.linspace(500e3, 700e3, 41)
        first = None
        for w in grid:
            try:
                compute_modes(TrapConfig().replace(omega_z=float(w)))
            except SolverError:
                first = w / TWO_PI
                break
        assert first is not None and first > 500e3
        with pytest.raises(SolverError, match=re.escape(f"omega_z = {first:.6g} Hz")):
            run_sweep(TrapConfig(), grid[::-1])

    def test_funnel_instability_names_the_first_point_and_ion(self):
        """At N = 100 ion 1 passes L/2 below about 10.2 kHz."""
        config = TrapConfig(n_ions=100)
        grid = TWO_PI * np.linspace(9e3, 12e3, 31)
        with pytest.raises(SolverError) as expected:
            compute_modes(config.replace(omega_z=float(grid[0])))
        message = str(expected.value)
        cause = message[len("direction 'x'"):message.index(" has non-positive")]
        assert cause.startswith(" (ion 1 sits at z = -0.9844 mm")
        with pytest.raises(SolverError) as info:
            run_sweep(config, grid[::-1])
        assert str(info.value).startswith(f"direction 'x' at omega_z = 9000 Hz{cause} has non-")


class TestPerPointConfig:
    """The sweep reads each point's scalars, and raises its errors, as a config per point would."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_ions=st.integers(1, 8),
        tapered=st.booleans(),
        direction=st.sampled_from(["x", "y"]),
        other_ratio=st.floats(0.7, 1.3),
        fractions=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=12),
    )
    def test_scalars_equal_a_replaced_config(self, n_ions, tapered, direction, other_ratio,
                                             fractions):
        """beta, the radial frequency and the taper ratio at every point equal
        ``config.replace(omega_z=w)``'s bit for bit; the radial frequency is read
        off ``frequencies = sqrt(eigenvalues) * radial_frequency``."""
        base = TrapConfig(n_ions=n_ions)
        other = "omega_y0" if direction == "x" else "omega_x0"
        config = base.replace(**{other: other_ratio * base.omega_x0},
                              funnel_length=base.funnel_length if tapered else math.inf)
        grid = np.array(fractions) * highest_omega_z(config, direction)
        solved, build = [], sweep.radial_coupling_matrix

        def capture(u, betas, tapers):
            solved.append((betas.copy(), tapers.copy()))
            return build(u, betas, tapers)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "radial_coupling_matrix", capture)
            try:
                result = run_sweep(config, grid, direction)
            except SolverError:  # unstable, or too coarse to track
                result = None
        points = [config.replace(omega_z=w) for w in np.sort(grid).tolist()]
        ((betas, tapers),) = solved
        assert np.array_equal(betas, [c.beta(direction) for c in points])
        assert np.array_equal(tapers, [c.taper_ratio for c in points])
        if result is not None:
            units = np.array([c.radial_frequency(direction) for c in points])
            assert np.array_equal(result.frequencies, np.sqrt(result.eigenvalues) * units[:, None])

    @pytest.mark.parametrize("grid_hz, omega_y0_hz, message", [
        ([50e3, np.nan, 60e3], 1.057e6, "omega_z must be positive, got nan"),
        ([50e3, 0.0, 60e3], 1.057e6, "omega_z must be positive, got 0.0"),
        ([50e3, -1.0, np.nan], 1.057e6, "omega_z must be positive, got -6.283185307179586"),
        ([50e3, 2e6, np.inf], 1.057e6,
         "configuration invalid: omega_z = 1.25664e+07 rad/s exceeds sqrt(2) * omega_x0 = "
         "9.39225e+06 rad/s; the effective radial confinement would vanish"),
        ([50e3, 1e6, np.inf], 0.5e6,
         "configuration invalid: omega_z = 6.28319e+06 rad/s exceeds sqrt(2) * omega_y0 = "
         "4.44288e+06 rad/s; the effective radial confinement would vanish"),
    ])
    @pytest.mark.parametrize("direction", ["x", "y"])
    def test_first_invalid_omega_z_is_named(self, grid_hz, omega_y0_hz, message, direction):
        """The error names the first invalid point in ascending order (NaN sorts
        last), with the message of a config at that point."""
        config = TrapConfig(omega_y0=TWO_PI * omega_y0_hz)
        with pytest.raises(ConfigError) as info:
            run_sweep(config, TWO_PI * np.array(grid_hz), direction)
        assert str(info.value) == message

    def test_the_bound_itself_is_invalid(self):
        """sqrt(2) omega_x0 is rejected as a config rejects it; the float below it
        passes the check and fails as an unstable chain."""
        config = TrapConfig()
        edge = config.omega_x0 * math.sqrt(2.0)
        with pytest.raises(ConfigError, match="^configuration invalid: omega_z = 9.39225e"):
            run_sweep(config, [0.5 * edge, edge])
        with pytest.raises(SolverError, match="non-positive stiffness eigenvalue"):
            run_sweep(config, [0.5 * edge, np.nextafter(edge, 0.0)])

    def test_a_non_radial_direction_is_named_unless_the_lowest_point_is_invalid(self):
        with pytest.raises(ConfigError, match="^direction 'z' is not radial$"):
            run_sweep(TrapConfig(), TWO_PI * np.array([50e3, np.nan]), "z")
        with pytest.raises(ConfigError, match="^omega_z must be positive, got -inf$"):
            run_sweep(TrapConfig(), TWO_PI * np.array([50e3, -np.inf]), "z")


class TestStackedSolve:
    """The one stacked eigensolve against the per-point reference sweep."""

    @pytest.mark.parametrize("n_ions, lo_hz, hi_hz, points", [
        (3, 47e3, 205e3, 24),
        (30, 21e3, 81e3, 400),
    ])
    def test_default_taper_matches_per_point(self, n_ions, lo_hz, hi_hz, points):
        config = TrapConfig(n_ions=n_ions)
        grid = TWO_PI * np.linspace(lo_hz, hi_hz, points)
        labels, expected = per_point_sweep(config, grid, "x")
        assert_matches_per_point(run_sweep(config, grid, "x"), labels, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        n_ions=st.integers(1, 12),
        tapered=st.booleans(),
        direction=st.sampled_from(["x", "y"]),
        other_ratio=st.floats(1.0, 1.3),
        hi_fraction=st.floats(0.05, 0.95),
        lo_fraction=st.floats(0.1, 1.0),
        points=st.integers(1, 40),
    )
    def test_matches_per_point_reference(
        self, n_ions, tapered, direction, other_ratio, hi_fraction, lo_fraction, points
    ):
        # The reference solves all three directions, so the radial direction
        # not swept is the stiffer one: it stays stable wherever the swept one is.
        base = TrapConfig(n_ions=n_ions)
        other = "omega_y0" if direction == "x" else "omega_x0"
        config = base.replace(
            **{other: other_ratio * base.omega_x0},
            funnel_length=base.funnel_length if tapered else math.inf,
        )
        hi = hi_fraction * highest_omega_z(config, direction)
        grid = np.linspace(lo_fraction * hi, hi, points)
        try:
            labels, expected = per_point_sweep(config, grid, direction)
        except SolverError:
            with pytest.raises(SolverError):
                run_sweep(config, grid, direction)
            return
        assert_matches_per_point(run_sweep(config, grid, direction), labels, expected)
