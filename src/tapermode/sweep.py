"""Mode curves versus axial confinement, with identity tracking.

Sweeping the axial frequency moves the chain through the localized-to-
collective transition: ion spacing shrinks, the taper detuning falls and the
Coulomb coupling grows. Eigenvalue order is not a stable mode identity
through this transition, so modes are tracked point-to-point by eigenvector
overlap (solved as an assignment problem) with sign continuity along each
track. A track whose best overlap drops below ``TRACKING_OVERLAP_MIN``
indicates the grid is too coarse to follow the modes and raises
:class:`SolverError`.

The dimensionless positions u depend only on the ion count, so the radial
stiffness matrices of the whole grid are ``I + t_k diag(u) + beta_k^2 K``
with one Coulomb matrix K: they are built as one ``[P, N, N]`` stack and
solved in one stacked eigensolve.

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
from .modes import _eigensystem, _funnel_cause, _require_stable, radial_coupling_matrix

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
        raise SolverError(
            f"mode tracking failed: weakest matched overlap {weakest:.3f} < "
            f"{TRACKING_OVERLAP_MIN}; refine the omega_z grid"
        )
    return order, signs


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
    past half the funnel length there. ``threads`` is accepted
    for compatibility and ignored.
    """
    omegas = np.sort(np.asarray(omega_z_values, dtype=float))
    if omegas.size < 1:
        raise ConfigError("sweep needs at least one omega_z value")
    check_array_budget(f"{omegas.size} sweep points", (omegas.size, config.n_ions, config.n_ions))
    # Each point's config lives only while its three scalars are read.
    scalars = ((c.beta(direction), c.radial_frequency(direction), c.taper_ratio)
               for c in (config.replace(omega_z=w) for w in omegas.tolist()))
    betas, units, tapers = np.fromiter(scalars, (float, 3), omegas.size).T
    u = chain_positions_dimensionless(config.n_ions)

    def where(k: int) -> str:
        return f"direction {direction!r} at omega_z = {omegas[k] / TWO_PI:.6g} Hz"

    values, vectors, participation = _eigensystem(
        radial_coupling_matrix(u, betas, tapers),
        lambda k: where(k) + _funnel_cause(config.replace(omega_z=float(omegas[k])), u),
    )
    kappa, linear_vectors = np.linalg.eigh(coulomb_matrix(u))
    linear_values = 1.0 + betas[:, None] ** 2 * kappa
    _require_stable(linear_values, lambda k: f"the untapered reference of {where(k)}")

    # Track identities forward from the lowest omega_z, reordering each
    # point's columns in place.
    for k in range(1, omegas.size):
        order, signs = match_columns(vectors[k - 1], vectors[k])
        vectors[k] = vectors[k][:, order] * signs
        values[k] = values[k][order]
        participation[k] = participation[k][order]

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
