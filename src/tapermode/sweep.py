"""Mode curves versus axial confinement, with identity tracking.

Sweeping the axial frequency moves the chain through the localized-to-
collective transition: ion spacing shrinks, the taper detuning falls and the
Coulomb coupling grows. Eigenvalue order is not a stable mode identity
through this transition, so modes are tracked point-to-point by eigenvector
overlap with sign continuity along each track. One batched pass takes the
overlaps of every grid interval from one stacked product and pairs each
column with the column of its largest |overlap|; the assignment search runs
only on the intervals where two columns pick the same one. A track whose
matched overlap drops below ``TRACKING_OVERLAP_MIN`` indicates the grid is
too coarse to follow the modes and raises :class:`SolverError`.

The dimensionless positions u depend only on the ion count, so the radial
stiffness matrices of the whole grid are ``I + t_k diag(u) + beta_k^2 K``
with one Coulomb matrix K: they are built as one ``[P, N, N]`` stack and
solved in one stacked eigensolve. No config is built per point: beta_k, the
radial frequency and t_k come from the base config's own formulas
(``TrapConfig._radial_scalars``) at each omega_z, after the whole grid has
been checked against the config's bounds at once. Only point 0's
eigenvectors are signed (largest component positive); the tracking signs
every later point by overlap with the one before.

Each track also carries the frequency the same mode would have in the
equivalent untapered trap (funnel length -> inf), the natural reference when
plotting taper-induced structure. In that trap the radial eigenvectors are
those of K at every axial frequency and the eigenvalues are
``1 + beta_k^2 kappa`` (kappa the eigenvalues of K), so one eigensolve of K
gives the reference for the whole grid.

A :class:`SweepResult` holds the tracked stacks as read-only arrays and
builds no per-mode object. Its ``points`` property builds :class:`SweepPoint`
records when read, only because the ``perfbench/`` harness reads them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TWO_PI, TrapConfig, check_array_budget
from .equilibrium import chain_positions_dimensionless, coulomb_matrix
from .errors import ConfigError, SolverError
from .modes import (
    _eigensystem,
    _funnel_cause,
    _require_stable,
    canonical_sign,
    radial_coupling_matrix,
)

TRACKING_OVERLAP_MIN = 0.5

#: Canonical names for the three radial modes of a three-ion chain, by
#: ascending frequency in the untapered (linear) trap.
THREE_ION_LABELS = ("zigzag", "rocking", "com")


@dataclass(frozen=True, eq=False)
class TrackedMode:
    """One mode at one sweep point, carrying its tracked identity."""

    label: str
    eigenvalue: float
    frequency: float            #: angular frequency [rad/s]
    vector: np.ndarray          #: sign-continuous along the track
    participation: float
    linear_frequency: float     #: same mode in the untapered trap [rad/s]


@dataclass(frozen=True, eq=False)
class SweepPoint:
    omega_z: float                     #: axial angular frequency [rad/s]
    modes: tuple[TrackedMode, ...]     #: fixed label order across points


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The tracked radial modes of a sweep, as read-only arrays.

    Axis 0 is the point, by ascending ``omega_z``. ``frequencies[p, k]`` and
    column k of ``vectors[p]`` belong to track ``labels[k]`` at point p.
    """

    config: TrapConfig                 #: base configuration (omega_z varies)
    direction: str
    labels: tuple[str, ...]
    omega_z: np.ndarray = field(repr=False)             #: axial frequencies [P] [rad/s]
    eigenvalues: np.ndarray = field(repr=False)         #: dimensionless eigenvalues [P, N]
    frequencies: np.ndarray = field(repr=False)         #: angular frequencies [P, N] [rad/s]
    vectors: np.ndarray = field(repr=False)             #: [P, N, N], sign-continuous tracks
    participation: np.ndarray = field(repr=False)       #: participation ratios [P, N]
    linear_frequencies: np.ndarray = field(repr=False)  #: untapered trap [P, N] [rad/s]

    @property
    def points(self) -> tuple[SweepPoint, ...]:
        """Per-point records, built from the arrays on every read."""
        rows = zip(self.omega_z.tolist(), self.eigenvalues.tolist(), self.frequencies.tolist(),
                   np.swapaxes(self.vectors, 1, 2), self.participation.tolist(),
                   self.linear_frequencies.tolist())
        return tuple(
            SweepPoint(omega_z, tuple(map(TrackedMode, self.labels, *fields)))
            for omega_z, *fields in rows
        )


def assign_columns(reference: np.ndarray, candidate: np.ndarray):
    """Pair each column of ``reference`` with a column of ``candidate`` by overlap.

    Maximizes the summed ``|overlap|`` as an assignment problem. Returns
    ``(order, signs, strengths)`` such that ``candidate[:, order] * signs``
    lines up with ``reference`` column-for-column; ``strengths`` are the
    matched ``|overlap|`` values. Both matrices are square and the same size.
    """
    overlap = reference.T @ candidate
    order = _shortest_augmenting_path(-np.abs(overlap))
    matched = overlap[np.arange(order.size), order]
    return order, np.where(matched < 0.0, -1.0, 1.0), np.abs(matched)


def _shortest_augmenting_path(cost: np.ndarray) -> np.ndarray:
    """The column assigned to each row of a square ``cost`` at least total cost.

    Crouse's shortest-augmenting-path method (Jonker & Volgenant, Computing
    38, 325 (1987); Crouse, IEEE TAES 52, 1679 (2016)): each row in turn is
    added by a Dijkstra search over reduced costs ``cost - u - v``, then
    the dual potentials u, v are updated and the path is augmented. The
    columns are scanned in the order, and ties broken by the rule, of
    ``scipy.optimize.linear_sum_assignment``, so the two return the same
    assignment on every input: columns start in descending order, a
    finished column is replaced by the last one still open, and of the
    columns at the lowest path cost the first scanned wins unless a later
    one is unassigned, in which case the last such one does.

    Until two rows share their cheapest column, each row's search ends at
    once on that column (the lowest-index one of a tie) and leaves ``v`` at
    zero and ``u`` at the row minimum. Those rows are set directly, so a
    cost whose row minima all lie in different columns, which is then the
    optimal assignment, needs no search at all.
    """
    n = cost.shape[0]
    col4row = cost.argmin(axis=1)
    seen = set()
    for prefix, col in enumerate(col4row.tolist()):
        if col in seen:
            break
        seen.add(col)
    else:
        return col4row
    col4row[prefix:] = -1
    row4col = np.full(n, -1)
    row4col[col4row[:prefix]] = np.arange(prefix)
    u = np.zeros(n)
    u[:prefix] += cost[np.arange(prefix), col4row[:prefix]]
    v = np.zeros(n)
    path = np.full(n, -1)
    for current in range(prefix, n):
        shortest = np.full(n, np.inf)
        seen_rows = np.zeros(n, dtype=bool)
        seen_cols = np.zeros(n, dtype=bool)
        remaining = np.arange(n - 1, -1, -1)
        open_count = n
        row, lowest, sink = current, 0.0, -1
        while sink < 0:
            seen_rows[row] = True
            cols = remaining[:open_count]
            reduced = lowest + cost[row, cols] - u[row] - v[cols]
            shorter = reduced < shortest[cols]
            path[cols[shorter]] = row
            shortest[cols[shorter]] = reduced[shorter]
            lengths = shortest[cols]
            lowest = lengths.min()
            ties = np.flatnonzero(lengths == lowest)
            later_free = ties[1:][row4col[cols[ties[1:]]] < 0]
            index = later_free[-1] if later_free.size else ties[0]
            col = cols[index]
            if row4col[col] < 0:
                sink = col
            else:
                row = row4col[col]
            seen_cols[col] = True
            open_count -= 1
            remaining[index] = remaining[open_count]
        u[current] += lowest
        others = seen_rows.copy()
        others[current] = False
        u[others] += lowest - shortest[col4row[others]]
        v[seen_cols] -= lowest - shortest[seen_cols]
        col = sink
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == current:
                break
    return col4row


def match_columns(previous: np.ndarray, current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair the columns of ``current`` with those of ``previous`` by overlap.

    Returns ``(order, signs)`` such that ``current[:, order] * signs`` lines
    up with ``previous`` column-for-column. Raises :class:`SolverError` when
    any matched overlap magnitude falls below ``TRACKING_OVERLAP_MIN``.
    """
    order, signs, strengths = assign_columns(previous, current)
    weakest = float(np.min(strengths))
    if weakest < TRACKING_OVERLAP_MIN:
        raise _tracking_error(weakest)
    return order, signs


def _tracking_error(weakest: float) -> SolverError:
    return SolverError(
        f"mode tracking failed: weakest matched overlap {weakest:.3f} < "
        f"{TRACKING_OVERLAP_MIN}; refine the omega_z grid"
    )


def _track_columns(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column order and signs that line each point's columns up with the tracks.

    ``vectors`` [P, N, N] are the raw eigenvectors of a sweep. Returns
    ``(orders, signs)`` [P, N] such that ``vectors[p][:, orders[p]] * signs[p]``
    is point p in track order, the tracks being point 0's columns as given.
    Raises :class:`SolverError` at the first interval, in grid order, whose
    weakest matched overlap magnitude is below ``TRACKING_OVERLAP_MIN``.

    One stacked product gives every interval's overlaps between the raw
    columns of its two points. Interval k is matched as :func:`match_columns`
    matches point k + 1 against point k in track order, and that order only
    permutes and negates the rows of the raw overlap. So where the row-wise
    largest |overlap| picks a different column for every row, it is the
    assignment, read through point k's track order. Only the other intervals
    run the search, on the rows in track order.
    """
    points, n = vectors.shape[:2]
    overlap = np.matmul(np.swapaxes(vectors[:-1], 1, 2), vectors[1:])
    negative = overlap < 0.0
    strength = np.abs(overlap, out=overlap)
    best = strength.argmax(axis=2)
    collides = (np.diff(np.sort(best, axis=1), axis=1) == 0).any(axis=1).tolist()
    orders = np.empty((points, n), dtype=np.intp)
    orders[0] = np.arange(n)
    for k, search in enumerate(collides):
        track = orders[k]
        orders[k + 1] = (_shortest_augmenting_path(-strength[k][track]) if search
                         else best[k][track])
    matched = (np.arange(points - 1)[:, None], orders[:-1], orders[1:])
    weakest = strength[matched].min(axis=1)
    failed = np.flatnonzero(weakest < TRACKING_OVERLAP_MIN)
    if failed.size:
        raise _tracking_error(float(weakest[failed[0]]))
    flipped = np.zeros((points, n), dtype=bool)
    np.logical_xor.accumulate(negative[matched], axis=0, out=flipped[1:])
    return orders, np.where(flipped, -1.0, 1.0)


def _mode_labels(n_ions: int, linear_rank: np.ndarray) -> tuple[str, ...]:
    if n_ions == 3:
        return tuple(THREE_ION_LABELS[r] for r in linear_rank)
    return tuple(f"m{r + 1}" for r in linear_rank)


def run_sweep(
    config: TrapConfig,
    omega_z_values,
    direction: str = "x",
    threads: int = 1,
) -> SweepResult:
    """Track the radial modes along ``direction`` over the given axial frequencies.

    ``omega_z_values`` are angular frequencies [rad/s]; they are processed in
    ascending order. The stiffness matrices of all points are solved in one
    stacked eigensolve, and the untapered reference in one eigensolve of the
    Coulomb matrix. Raises :class:`SolverError` naming the first axial
    frequency [Hz] at which the chain is unstable, and the end ion if it sits
    past half the funnel length there. Raises :class:`ConfigError` as
    ``config.replace(omega_z=w)`` would at the first point that has one (NaN
    sorts last), or, from point 0 on, for a direction that is not radial.
    ``threads`` is accepted for compatibility and ignored.
    """
    omegas = np.sort(np.asarray(omega_z_values, dtype=float))
    if omegas.size < 1:
        raise ConfigError("sweep needs at least one omega_z value")
    check_array_budget(f"{omegas.size} sweep points", (omegas.size, config.n_ions, config.n_ions))
    # The errors a config per point would raise: a non-radial direction at
    # point 0, else the first omega_z the config's checks reject.
    config.replace(omega_z=float(omegas[0])).beta(direction)
    invalid = ~((omegas > 0.0) & (omegas < np.sqrt(2.0) * min(config.omega_x0, config.omega_y0)))
    if invalid.any():
        config.replace(omega_z=float(omegas[invalid.argmax()]))
    scalars = (config._radial_scalars(direction, w) for w in omegas.tolist())
    betas, units, tapers = np.fromiter(scalars, (float, 3), omegas.size).T
    u = chain_positions_dimensionless(config.n_ions)

    def where(k: int) -> str:
        return f"direction {direction!r} at omega_z = {omegas[k] / TWO_PI:.6g} Hz"

    values, vectors, participation = _eigensystem(
        radial_coupling_matrix(u, betas, tapers),
        lambda k: where(k) + _funnel_cause(config.replace(omega_z=float(omegas[k])), u),
    )
    vectors[0] = canonical_sign(vectors[0])
    kappa, linear_vectors = np.linalg.eigh(coulomb_matrix(u))
    linear_values = 1.0 + betas[:, None] ** 2 * kappa
    _require_stable(linear_values, lambda k: f"the untapered reference of {where(k)}")

    # Track identities forward from the lowest omega_z.
    orders, signs = _track_columns(vectors)
    values = np.take_along_axis(values, orders, axis=1)
    participation = np.take_along_axis(participation, orders, axis=1)
    vectors = np.take_along_axis(vectors, orders[:, None, :], axis=2)
    vectors *= signs[:, None, :]

    # Name the tracks by which untapered mode they become at the highest
    # omega_z (the collective end, where that identification is sharp).
    linear_rank, _, _ = assign_columns(vectors[-1], linear_vectors)
    labels = _mode_labels(config.n_ions, linear_rank)

    frequencies = np.sqrt(values) * units[:, None]
    linear_frequencies = (np.sqrt(linear_values) * units[:, None])[:, linear_rank]
    for array in (omegas, values, frequencies, vectors, participation, linear_frequencies):
        array.setflags(write=False)
    return SweepResult(config, direction, labels, omegas, values, frequencies, vectors,
                       participation, linear_frequencies)
