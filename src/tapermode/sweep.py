"""Mode curves versus axial confinement, with identity tracking.

Sweeping the axial frequency moves the chain through the localized-to-
collective transition: ion spacing shrinks, the taper detuning falls and the
Coulomb coupling grows. Eigenvalue order is not a stable mode identity
through this transition, so modes are tracked point-to-point by eigenvector
overlap (solved as an assignment problem) with sign continuity along each
track. A track whose best overlap drops below ``TRACKING_OVERLAP_MIN``
indicates the grid is too coarse to follow the modes and raises
:class:`SolverError`.

Each tracked mode also carries the frequency the same mode would have in the
equivalent untapered trap (funnel length -> inf), the natural reference when
plotting taper-induced structure.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import TrapConfig
from .errors import ConfigError, SolverError
from .modes import compute_modes, linear_reference, participation_ratio

TRACKING_OVERLAP_MIN = 0.5

#: Canonical names for the three radial modes of a three-ion chain, by
#: ascending frequency in the untapered (linear) trap.
THREE_ION_LABELS = ("zigzag", "rocking", "com")


@dataclass(frozen=True)
class TrackedMode:
    """One mode at one sweep point, carrying its tracked identity."""

    label: str
    eigenvalue: float
    frequency: float            #: angular frequency [rad/s]
    vector: np.ndarray          #: sign-continuous along the track
    participation: float
    linear_frequency: float     #: same mode in the untapered trap [rad/s]


@dataclass(frozen=True)
class SweepPoint:
    omega_z: float                     #: axial angular frequency [rad/s]
    modes: tuple[TrackedMode, ...]     #: fixed label order across points


@dataclass(frozen=True)
class SweepResult:
    config: TrapConfig                 #: base configuration (omega_z varies)
    direction: str
    labels: tuple[str, ...]
    points: tuple[SweepPoint, ...] = field(repr=False)


def match_columns(previous: np.ndarray, current: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair the columns of ``current`` with those of ``previous`` by overlap.

    Returns ``(order, signs)`` such that ``current[:, order] * signs`` lines
    up with ``previous`` column-for-column. Raises :class:`SolverError` when
    any matched overlap magnitude falls below ``TRACKING_OVERLAP_MIN``.
    """
    overlap = previous.T @ current
    rows, cols = linear_sum_assignment(-np.abs(overlap))
    # scipy returns rows already sorted ascending, so cols is the column of
    # ``current`` assigned to each column of ``previous`` in order.
    matched = overlap[rows, cols]
    weakest = float(np.min(np.abs(matched)))
    if weakest < TRACKING_OVERLAP_MIN:
        raise SolverError(
            f"mode tracking failed: weakest matched overlap {weakest:.3f} < "
            f"{TRACKING_OVERLAP_MIN}; refine the omega_z grid"
        )
    signs = np.sign(matched)
    return cols, np.where(signs == 0.0, 1.0, signs)


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
    """Track the modes along ``direction`` over the given axial frequencies.

    ``omega_z_values`` are angular frequencies [rad/s]; they are processed in
    ascending order. ``threads`` is accepted for compatibility and ignored:
    the per-point eigensolves hold the GIL, and worker threads ran slower
    than this serial loop.
    """
    omegas = np.sort(np.asarray(omega_z_values, dtype=float))
    if omegas.size < 1:
        raise ConfigError("sweep needs at least one omega_z value")
    configs = [config.replace(omega_z=float(w)) for w in omegas]
    solved = [
        (compute_modes(cfg, (direction,)), linear_reference(cfg, direction)) for cfg in configs
    ]

    n = config.n_ions
    # Track identities forward from the lowest omega_z.
    tracked_vectors: list[np.ndarray] = []
    tracked_freqs: list[np.ndarray] = []
    tracked_vals: list[np.ndarray] = []
    prev = None
    for table, _ in solved:
        mat = table.matrix(direction)
        freqs = table.frequencies(direction)
        vals = np.array([m.eigenvalue for m in table.by_direction(direction)])
        if prev is None:
            order = np.arange(n)
            signs = np.ones(n)
        else:
            order, signs = match_columns(prev, mat)
        mat = mat[:, order] * signs
        tracked_vectors.append(mat)
        tracked_freqs.append(freqs[order])
        tracked_vals.append(vals[order])
        prev = mat

    # Name the tracks by which untapered mode they become at the highest
    # omega_z (the collective end, where that identification is sharp).
    last_linear = solved[-1][1].matrix(direction)
    overlap = tracked_vectors[-1].T @ last_linear
    rows, cols = linear_sum_assignment(-np.abs(overlap))
    linear_rank = np.empty(n, dtype=int)
    linear_rank[rows] = cols
    labels = _mode_labels(n, linear_rank)

    points = []
    for k, (table, linear_table) in enumerate(solved):
        lin_freqs = linear_table.frequencies(direction)
        modes = tuple(
            TrackedMode(
                label=labels[i],
                eigenvalue=float(tracked_vals[k][i]),
                frequency=float(tracked_freqs[k][i]),
                vector=tracked_vectors[k][:, i].copy(),
                participation=participation_ratio(tracked_vectors[k][:, i]),
                linear_frequency=float(lin_freqs[linear_rank[i]]),
            )
            for i in range(n)
        )
        points.append(SweepPoint(omega_z=float(omegas[k]), modes=modes))

    return SweepResult(
        config=config,
        direction=direction,
        labels=labels,
        points=tuple(points),
    )
