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

Each tracked mode also carries the frequency the same mode would have in the
equivalent untapered trap (funnel length -> inf), the natural reference when
plotting taper-induced structure. In that trap the radial eigenvectors are
those of K at every axial frequency and the eigenvalues are
``1 + beta_k^2 kappa`` (kappa the eigenvalues of K), so one eigensolve of K
gives the reference for the whole grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import TWO_PI, TrapConfig
from .equilibrium import chain_positions_dimensionless, coulomb_matrix
from .errors import ConfigError, SolverError
from .modes import _eigensystem, _require_stable, radial_coupling_matrix

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


def assign_columns(reference: np.ndarray, candidate: np.ndarray):
    """Pair each column of ``reference`` with a column of ``candidate`` by overlap.

    Maximizes the summed ``|overlap|`` as an assignment problem. Returns
    ``(order, signs, strengths)`` such that ``candidate[:, order] * signs``
    lines up with ``reference`` column-for-column; ``strengths`` are the
    matched ``|overlap|`` values.
    """
    overlap = reference.T @ candidate
    # scipy returns the rows sorted ascending, so ``order`` is the column of
    # ``candidate`` assigned to each column of ``reference`` in turn.
    rows, order = linear_sum_assignment(-np.abs(overlap))
    matched = overlap[rows, order]
    return order, np.where(matched < 0.0, -1.0, 1.0), np.abs(matched)


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
    frequency [Hz] at which the chain is unstable. ``threads`` is accepted
    for compatibility and ignored.
    """
    omegas = np.sort(np.asarray(omega_z_values, dtype=float))
    if omegas.size < 1:
        raise ConfigError("sweep needs at least one omega_z value")
    configs = [config.replace(omega_z=float(w)) for w in omegas]
    betas = np.array([c.beta(direction) for c in configs])
    units = np.array([c.radial_frequency(direction) for c in configs])[:, None]
    u = chain_positions_dimensionless(config.n_ions)

    def where(k: int) -> str:
        return f"direction {direction!r} at omega_z = {omegas[k] / TWO_PI:.6g} Hz"

    values, vectors, participation = _eigensystem(
        radial_coupling_matrix(u, betas, [c.taper_ratio for c in configs]), where
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
    vectors.setflags(write=False)

    # Name the tracks by which untapered mode they become at the highest
    # omega_z (the collective end, where that identification is sharp).
    linear_rank, _, _ = assign_columns(vectors[-1], linear_vectors)
    labels = _mode_labels(config.n_ions, linear_rank)

    rows = zip(
        omegas.tolist(),
        values.tolist(),
        (np.sqrt(values) * units).tolist(),
        vectors,
        participation.tolist(),
        (np.sqrt(linear_values) * units)[:, linear_rank].tolist(),
    )
    points = tuple(
        SweepPoint(
            omega_z=omega_z,
            modes=tuple(
                TrackedMode(
                    label=label,
                    eigenvalue=value,
                    frequency=frequency,
                    vector=vector,
                    participation=ratio,
                    linear_frequency=linear,
                )
                for label, value, frequency, vector, ratio, linear in zip(
                    labels, vals, freqs, vecs.T, ratios, linears
                )
            ),
        )
        for omega_z, vals, freqs, vecs, ratios, linears in rows
    )
    return SweepResult(config=config, direction=direction, labels=labels, points=points)
