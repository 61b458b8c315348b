"""Mode tracking across an axial-frequency sweep."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from tapermode.core import TWO_PI, TrapConfig
from tapermode.equilibrium import chain_positions_dimensionless, coulomb_matrix
from tapermode.errors import ConfigError, SolverError
from tapermode.modes import compute_modes, linear_reference, participation_ratio
from tapermode.sweep import (
    THREE_ION_LABELS,
    TRACKING_OVERLAP_MIN,
    match_columns,
    run_sweep,
)

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
        solved.append((compute_modes(cfg, (direction,)), linear_reference(cfg, direction)))
    n = config.n_ions
    vectors, freqs, vals, prev = [], [], [], None
    for table, _ in solved:
        modes = table.by_direction(direction)
        mat = np.column_stack([m.vector for m in modes])
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
        freqs.append(np.array([m.frequency for m in modes])[order])
        vals.append(np.array([m.eigenvalue for m in modes])[order])
    last_linear = np.column_stack([m.vector for m in solved[-1][1].by_direction(direction)])
    _, linear_rank = linear_sum_assignment(-np.abs(vectors[-1].T @ last_linear))
    labels = (tuple(THREE_ION_LABELS[r] for r in linear_rank) if n == 3
              else tuple(f"m{r + 1}" for r in linear_rank))
    linear = [np.array([m.frequency for m in lin.by_direction(direction)])[linear_rank]
              for _, lin in solved]
    return labels, {
        "eigenvalue": np.array(vals),
        "frequency": np.array(freqs),
        "participation": np.array([[participation_ratio(v) for v in m.T] for m in vectors]),
        "linear_frequency": np.array(linear),
        "vector": np.array([m.T for m in vectors]),
    }


def sweep_arrays(result):
    """The fields of a :class:`SweepResult` as arrays, laid out as in :func:`per_point_sweep`."""
    return {
        name: np.array([[getattr(m, name) for m in p.modes] for p in result.points])
        for name in ("eigenvalue", "frequency", "participation", "linear_frequency", "vector")
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


class TestRunSweep:
    def test_labels_follow_linear_order(self):
        result = run_sweep(TrapConfig(), GRID)
        assert result.labels == THREE_ION_LABELS
        assert result.direction == "x"
        # at the collective end the tracked frequencies sit in label order
        last = result.points[-1].modes
        assert last[0].frequency < last[1].frequency < last[2].frequency

    def test_points_sorted_even_for_unsorted_input(self):
        result = run_sweep(TrapConfig(), GRID[::-1])
        omegas = [p.omega_z for p in result.points]
        assert omegas == sorted(omegas)
        assert omegas == pytest.approx(list(GRID))

    def test_tracks_are_continuous(self):
        result = run_sweep(TrapConfig(), GRID)
        for k in range(len(result.points) - 1):
            for a, b in zip(result.points[k].modes, result.points[k + 1].modes):
                assert a.label == b.label
                assert float(a.vector @ b.vector) > 0.8

    def test_localized_to_collective_transition(self):
        result = run_sweep(TrapConfig(), GRID)
        first, last = result.points[0], result.points[-1]
        assert all(m.participation < 1.05 for m in first.modes)
        assert all(m.participation > 2.0 for m in last.modes)

    def test_linear_reference_matches_closed_forms(self):
        result = run_sweep(TrapConfig(), GRID[::6])
        gamma_of = {"com": 0.0, "rocking": 1.0, "zigzag": 12.0 / 5.0}
        for point in result.points:
            cfg = TrapConfig().replace(omega_z=point.omega_z)
            beta = cfg.beta("x")
            for mode in point.modes:
                expected = cfg.omega_x * math.sqrt(1.0 - gamma_of[mode.label] * beta**2)
                assert mode.linear_frequency == pytest.approx(expected, rel=1e-9)

    def test_threads_do_not_change_results(self):
        serial = run_sweep(TrapConfig(), GRID, threads=1)
        parallel = run_sweep(TrapConfig(), GRID, threads=4)
        for p1, p2 in zip(serial.points, parallel.points):
            assert p1.omega_z == p2.omega_z
            for m1, m2 in zip(p1.modes, p2.modes):
                assert m1.label == m2.label
                assert m1.frequency == m2.frequency
                assert np.array_equal(m1.vector, m2.vector)

    def test_generic_labels_for_other_chain_sizes(self):
        config = TrapConfig().replace(n_ions=4)
        result = run_sweep(config, GRID)
        assert sorted(result.labels) == ["m1", "m2", "m3", "m4"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(TrapConfig(), [])

    def test_axial_direction_rejected(self):
        with pytest.raises(ConfigError, match="not radial"):
            run_sweep(TrapConfig(), GRID, direction="z")

    def test_zigzag_instability_names_the_first_unstable_point(self):
        grid = TWO_PI * np.linspace(500e3, 700e3, 41)
        first = None
        for w in grid:
            try:
                compute_modes(TrapConfig().replace(omega_z=float(w)), ("x",))
            except SolverError:
                first = w / TWO_PI
                break
        assert first is not None and first > 500e3
        with pytest.raises(SolverError, match=re.escape(f"omega_z = {first:.6g} Hz")):
            run_sweep(TrapConfig(), grid[::-1])


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
        y_ratio=st.floats(1.0, 1.3),
        hi_fraction=st.floats(0.05, 0.95),
        lo_fraction=st.floats(0.1, 1.0),
        points=st.integers(1, 40),
    )
    def test_matches_per_point_reference(
        self, n_ions, tapered, direction, y_ratio, hi_fraction, lo_fraction, points
    ):
        base = TrapConfig(n_ions=n_ions)
        config = base.replace(
            omega_y0=y_ratio * base.omega_x0,
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
