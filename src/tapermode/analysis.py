"""Spectrum and image-profile fitting: from synthetic data back to modes.

The measurement emulation produces, per drive frequency, each ion's steady
amplitude and phase. This module inverts that into mode parameters in two
steps:

1. :func:`fit_modal_sum` — fit the complex response ``amplitude * exp(i
   phase)`` of all ions at once with one modal sum ``Z_i(w) = sum_k R_ik /
   (w_k^2 - w^2 + i Gamma_k w)``. Each mode's center and damping are the 2K
   nonlinear parameters. All ions share the modal basis, so the N x K real
   residues come from one linear solve per evaluation (variable
   projection): a scaled CholeskyQR2 of the basis and its derivatives, with
   the data projected on it explicitly and never put in a Gram matrix, and
   a point where the basis is numerically rank-deficient treated as
   infeasible. The centers are seeded at the most prominent local maxima
   of the smoothed chain-level spectrum (summed over ions), and placed with
   their dampings by the parabola ``1 / y^2`` through three raw samples. A
   peak's prominence is its height above the higher of its two bases, each
   the lowest point between it and the nearest strictly higher sample on
   that side. It is computed here in linear time with the semantics of
   ``scipy.signal.peak_prominences`` at ``wlen=None``. The signed residue
   matrix is the ion-by-mode response pattern.
2. :func:`reconstruct_eigenvectors` — normalize each residue column with
   its largest component positive. The signs are the residue signs, so
   anti-phase ions come out negative without any phase threshold.

Fits run on internally normalized data (frequencies in units of the scan
span, amplitudes scaled by their maximum) so all parameters are O(1)
regardless of physical units, and use analytic Jacobians. Every fit is one
call of :func:`least_squares`, a bounded trust-region Levenberg-Marquardt
solver written here in numpy, so importing this module loads no scipy. It
calls each fit's one-pass model of residual and Jacobian once per trial
point, and the modal fit reads its residues off the accepted point's pass.
The modal fit floors every half-width at one scan step: the samples cannot
tell a narrower line's width, so without the floor its damping could run
toward zero.

:func:`fit_profile` handles the imaging side: a time-averaged oscillation
at amplitude A has an arcsine position density, observed through a Gaussian
point-spread function; fitting the blurred density to a fluorescence profile
recovers A. Residuals are weighted by Poisson count errors. The blurred
density is an integral over the oscillation phase, evaluated by one nested
midpoint rule (:func:`_arcsine_quadrature`) that starts from
``16 + ceil(pi A / sigma)`` nodes so the spacing resolves the narrowest
feature, and returns the x, A and sigma derivatives from the same pass: the
profile fit, like every fit here, uses an analytic Jacobian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .core import check_array_budget, check_count, check_real
from .dynamics import SpectrumResult
from .errors import AnalysisError
from .modes import canonical_sign

#: Half-width lower bound, in scan steps (narrower peaks are unresolvable).
WIDTH_FLOOR_STEPS = 1.0

#: Relative tolerance of the profile quadrature: the midpoint node count is
#: tripled until two successive density estimates agree to this at every x.
PROFILE_QUAD_RTOL = 1e-9

#: Profile-quadrature nodes per block times positions: bounds the temporaries.
_PROFILE_BLOCK_ELEMENTS = 1 << 16

#: Node-count triplings before the profile quadrature reports failure.
_PROFILE_MAX_TRIPLINGS = 8

#: Smallest singular value of the second-pass factor ``L2`` that the modal
#: fit's CholeskyQR2 accepts, tested through ``||L2^-1||_F``. Q loses about
#: eps / sigma^2 of its orthogonality, so this keeps that under 1e-6; below it
#: the basis is numerically rank-deficient, the trial point infeasible.
_MIN_SIGMA = math.sqrt(np.finfo(float).eps / 1e-6)


@dataclass(frozen=True, eq=False)
class ModalFit:
    """One modal-sum fit of all ions' complex responses, modes sorted by ascending center."""

    centers: np.ndarray        #: [K] resonance frequencies w_k [rad/s]
    center_errors: np.ndarray  #: [K]
    hwhms: np.ndarray          #: [K] amplitude half-widths sqrt(3) Gamma_k / 2 [rad/s]
    hwhm_errors: np.ndarray    #: [K]
    heights: np.ndarray        #: [N_ions, K] signed peak amplitudes R_ik / (Gamma_k w_k)
    height_errors: np.ndarray  #: [N_ions, K]


@dataclass(frozen=True, eq=False)
class ModeVectorEstimate:
    """Signed, normalized eigenvector estimates from fitted heights."""

    frequencies: np.ndarray        #: [K] fitted resonance centers [rad/s]
    components: np.ndarray         #: [N_ions, K], columns normalized
    component_errors: np.ndarray   #: [N_ions, K]
    ambiguity_notes: tuple[str, ...]  #: components whose sign is uncertain


@dataclass(frozen=True, eq=False)
class SpectrumAnalysis:
    """Bundle of the full chain: the modal fit and the eigenvectors read off it."""

    modes: ModalFit
    vectors: ModeVectorEstimate


# -- bounded least squares ----------------------------------------------------

_LSQ_MESSAGES = {
    0: "The maximum number of function evaluations is exceeded.",
    1: "`gtol` termination condition is satisfied.",
    2: "`ftol` termination condition is satisfied.",
    3: "`xtol` termination condition is satisfied.",
    4: "Both `ftol` and `xtol` termination conditions are satisfied.",
}


@dataclass(frozen=True, eq=False)
class LeastSquaresResult:
    """Outcome of :func:`least_squares`, with scipy's field names and status codes."""

    x: np.ndarray      #: the solution
    cost: float        #: half the squared residual norm at ``x``
    jac: np.ndarray    #: the Jacobian at ``x``
    nfev: int          #: model evaluations, the first included
    status: int        #: 0 evaluation cap, 1 gtol, 2 ftol, 3 xtol, 4 ftol and xtol
    evaluation: tuple  #: ``model(x)``: the residual, ``jac`` and the by-products of that pass

    @property
    def success(self) -> bool:
        return self.status > 0

    @property
    def message(self) -> str:
        return _LSQ_MESSAGES[self.status]


def least_squares(
    model,
    x0,
    bounds=(-np.inf, np.inf),
    x_scale="jac",
    ftol: float = 1e-8,
    xtol: float = 1e-8,
    gtol: float = 1e-8,
    max_nfev: int | None = None,
) -> LeastSquaresResult:
    """Minimize ``0.5 |f|^2`` over the box ``bounds``, where ``model(x)`` returns ``(f, J, ...)``.

    ``model`` yields the residual ``f``, its Jacobian ``J`` and any by-products
    in one pass, once per trial point; the accepted point's tuple is the
    result's ``evaluation``, and nothing but ``f`` is read where it is not finite.
    A trust-region Levenberg-Marquardt method (More, Lect. Notes Math. 630,
    105 (1978)) in the variables scaled by ``D``: the column norms of the
    Jacobian, never decreasing (``x_scale="jac"``), or ``1 / x_scale``.
    Each step ``p`` minimizes ``|J p + f|^2 + lam |D p|^2``, the least-squares
    solution of the stacked system ``[J; sqrt(lam) D] p = -[f; 0]``, with
    ``lam`` found by More's safeguarded Newton iteration so that ``|D p|``
    meets the trust radius. One thin SVD ``J D^-1 = U S V^T`` of the free
    columns per iteration, with the residual in the left singular basis as
    ``U^T f``, gives that solution for every ``lam``; ``J^T J`` is never
    formed. Bounds are kept by projection (Kanzow, Yamashita & Fukushima,
    J. Comput. Appl. Math. 172, 375 (2004)): a variable on a bound whose
    gradient points out of the box is frozen for the step, and the step is
    clipped to the box.
    The radius follows More's rule on the ratio of actual to predicted
    reduction of the clipped step: a quarter of the step below 0.25, twice
    the step from 0.75 or after a Gauss-Newton step. The stopping tests,
    their defaults, ``max_nfev = 100 n`` and the status codes are those of
    ``scipy.optimize.least_squares``, with the gradient test on the
    projected gradient ``x - clip(x - g)``. A trial point with a non-finite
    residual is infeasible: the step is rejected and the radius cut to a
    quarter of it. A non-finite residual at ``x0`` raises
    :class:`AnalysisError` after that one evaluation, where scipy raises
    ``ValueError``.
    """
    x = np.asarray(x0, dtype=float)
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    x = np.minimum(np.maximum(x, lower), upper)
    n = x.size
    max_nfev = 100 * n if max_nfev is None else max_nfev
    evaluation = model(x)
    f, J = evaluation[:2]
    if not np.all(np.isfinite(f)):
        raise AnalysisError("residuals are not finite at the initial point")
    nfev = 1
    cost = 0.5 * (f @ f)
    jac_scale = isinstance(x_scale, str)
    if jac_scale:
        d = np.sqrt((J * J).sum(axis=0))
        d[d == 0.0] = 1.0
    else:
        d = np.broadcast_to(1.0 / np.asarray(x_scale, dtype=float), x.shape)
    radius = _norm(x * d) or 1.0
    lam = 0.0
    status = None
    while True:
        g = J.T @ f
        if np.abs(x - np.minimum(np.maximum(x - g, lower), upper)).max(initial=0.0) < gtol:
            status = 1
        if status is not None or nfev >= max_nfev:
            break
        free = ~(((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0)))
        if free.all():
            free = slice(None)  # a view: no copy of J or d
        u, s, vt = np.linalg.svd(J[:, free] / d[free], full_matrices=False)
        uf = f @ u
        reduction = -1.0
        while reduction <= 0.0 and nfev < max_nfev:
            coeffs, lam = _damped_step(s, uf, radius, lam, max(J.shape))
            step = np.zeros(n)
            step[free] = (vt.T @ coeffs) / d[free]
            x_new = np.minimum(np.maximum(x + step, lower), upper)
            step = x_new - x
            step_norm = _norm(step * d)
            trial = model(x_new)
            f_new = trial[0]
            nfev += 1
            if not np.all(np.isfinite(f_new)):
                radius = 0.25 * step_norm
                continue
            cost_new = 0.5 * (f_new @ f_new)
            reduction = cost - cost_new
            j_step = J @ step
            predicted = -(g @ step + 0.5 * (j_step @ j_step))
            if predicted > 0.0:
                ratio = reduction / predicted
            else:
                ratio = 1.0 if predicted == reduction == 0.0 else 0.0
            if ratio < 0.25:
                new_radius = 0.25 * step_norm
            elif ratio >= 0.75 or lam == 0.0:
                new_radius = 2.0 * step_norm
            else:
                new_radius = radius
            status = _converged(reduction, cost, ratio, _norm(step), _norm(x), ftol, xtol)
            if status is not None:
                break
            if new_radius > 0.0:
                lam *= radius / new_radius
            radius = new_radius
        if reduction > 0.0:
            x, evaluation, cost = x_new, trial, cost_new
            f, J = evaluation[:2]
            if jac_scale:
                d = np.maximum(d, np.sqrt((J * J).sum(axis=0)))
    return LeastSquaresResult(x=x, cost=float(cost), jac=J, nfev=nfev,
                              status=0 if status is None else status, evaluation=evaluation)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a 1-D vector as ``np.linalg.norm`` computes it, without its dispatch."""
    return math.sqrt(v @ v)


def _damped_step(s: np.ndarray, uf: np.ndarray, radius: float, lam: float, rows: int):
    """Coefficients ``c`` of the step in the right singular basis, and ``lam``.

    ``s`` are the singular values of the scaled Jacobian and ``uf`` the
    residual in its left singular basis; the step for damping ``lam`` is
    ``c = -s uf / (s^2 + lam)``. The Gauss-Newton step (``lam = 0``) is
    taken when it has full rank and fits inside ``radius``. Otherwise More's
    safeguarded Newton iteration on ``|c(lam)| - radius`` runs from the
    previous ``lam`` until the norm is within 10 % of the radius.
    """
    g = s * uf
    full_rank = s.size > 0 and s[-1] > np.finfo(float).eps * rows * s[0]
    if full_rank:
        c = -uf / s
        norm = _norm(c)
        if norm <= radius:
            return c, 0.0
        low = (norm - radius) * norm / np.sum(c**2 / s**2)  # -phi(0) / phi'(0)
    else:
        low = 0.0
    high = _norm(g) / radius
    for _ in range(10):
        if not low < lam <= high:
            lam = max(1e-3 * high, np.sqrt(low * high))
        denom = s**2 + lam
        c = -g / denom
        norm = _norm(c)
        phi = norm - radius
        if abs(phi) <= 0.1 * radius:
            break
        slope = -np.sum(c**2 / denom) / norm
        if phi < 0.0:
            high = lam
        low = max(low, lam - phi / slope)
        next_lam = lam - (norm / radius) * phi / slope
        if next_lam == lam:
            break
        lam = next_lam
    return c, lam


def _converged(reduction, cost, ratio, step_norm, x_norm, ftol, xtol):
    """scipy's stopping status for one trial step: 2 ftol, 3 xtol, 4 both, or None."""
    f_done = reduction < ftol * cost and ratio > 0.25
    x_done = step_norm < xtol * (xtol + x_norm)
    if f_done:
        return 4 if x_done else 2
    return 3 if x_done else None


def _smooth5(y: np.ndarray) -> np.ndarray:
    """Five-point moving average with reflective end padding."""
    padded = np.r_[y[2], y[1], y, y[-2], y[-3]]
    return np.convolve(padded, np.ones(5) / 5.0, mode="valid")


def _as_array(name: str, value, dtype: type = float) -> np.ndarray:
    """``value`` as a ``dtype`` array, or :class:`AnalysisError` naming the argument."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise AnalysisError(f"{name} must be numbers: {exc}") from None


def _check_uniform(name: str, x: np.ndarray) -> float:
    """The mean step of ``x``, or :class:`AnalysisError` unless positive and uniform to 1e-6."""
    steps = np.diff(x)
    if not np.all(steps > 0) or (steps.max() - steps.min()) > 1e-6 * steps.mean():
        raise AnalysisError(f"{name} must be a uniformly increasing grid")
    return float(steps.mean())


def _normalize(frequencies: np.ndarray, amplitude: np.ndarray):
    w = _as_array("frequencies", frequencies)
    y = np.asarray(amplitude, dtype=float)
    if w.ndim != 1 or w.size < 8:
        raise AnalysisError("need a 1-D scan of at least 8 frequencies")
    if y.shape[0] != w.size:
        raise AnalysisError("amplitude length does not match the frequency axis")
    if not np.all(np.isfinite(w)):
        raise AnalysisError("frequencies contain non-finite values")
    _check_uniform("frequencies", w)
    if not np.all(np.isfinite(y)):
        raise AnalysisError("amplitude contains non-finite values")
    span = w[-1] - w[0]
    scale = float(np.max(y))
    if not scale > 0:
        raise AnalysisError("spectrum is identically zero; nothing to fit")
    return (w - w[0]) / span, y / scale, w[0], span, scale


def _covariance(result, dof: int) -> tuple[float, np.ndarray]:
    """Residual variance and the parameters' covariance at a least-squares solution.

    Linearized estimate from the final Jacobian, with the fit's own ``dof``
    (residual degrees of freedom); parameters pinned at an active bound come
    out optimistic. NaN when there are no spare degrees of freedom.
    """
    variance = 2.0 * result.cost / dof if dof > 0 else np.nan
    return variance, variance * np.linalg.pinv(result.jac.T @ result.jac)


def _stack_bases(tops: list[float], gaps: list[float]) -> list[float]:
    """For each top in turn, the lowest gap back to the nearest strictly higher top.

    ``gaps[k]`` is the lowest sample just before ``tops[k]``. A stack keeps
    the tops not yet exceeded and the lowest gap each has absorbed, so every
    top is pushed and popped once.
    """
    bases: list[float] = []
    stack_tops: list[float] = []
    stack_lows: list[float] = []
    for top, low in zip(tops, gaps):
        while stack_tops and stack_tops[-1] <= top:
            stack_tops.pop()
            absorbed = stack_lows.pop()
            if absorbed < low:
                low = absorbed
        bases.append(low)
        stack_tops.append(top)
        stack_lows.append(low)
    return bases


def _prominences(y: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Prominence of each local maximum ``peaks`` of ``y``, in O(M) time and memory.

    Equals ``scipy.signal.peak_prominences(y, peaks)[0]`` with
    ``wlen=None`` bit for bit, provided ``peaks`` is every index ``i`` with
    ``y[i-1] < y[i] >= y[i+1]``. Between two such neighbours ``y`` falls
    (not strictly) and then strictly rises, so the base on either side, the
    lowest sample between the peak and the nearest strictly higher sample,
    is the lowest of the gap minima back to the nearest strictly higher
    peak (or the array end). One monotonic-stack pass per side finds them.
    """
    tops = y[peaks].tolist()
    gaps = np.minimum.reduceat(y, np.r_[0, peaks]).tolist()  # gaps[k] = min y[peaks[k-1]:peaks[k]]
    left = _stack_bases(tops, gaps[:-1])
    right = _stack_bases(tops[::-1], gaps[:0:-1])[::-1]
    return y[peaks] - np.maximum(left, right)


def _peak_seeds(x: np.ndarray, y: np.ndarray, n_peaks: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed centers and dampings, on the uniform axis ``x``, of ``y``'s most prominent peaks.

    Peak candidates are the local maxima of the five-point-smoothed
    spectrum (samples above the one before and not below the one after);
    the ``n_peaks`` most *prominent* seed the optimizer (raw height would
    let noise wiggles on one broad top outrank a genuinely smaller peak).
    Prominence is the height of a candidate above the higher of its two
    bases, each the lowest sample between it and the nearest strictly
    higher sample on that side (or the scan end), as in
    ``scipy.signal.peak_prominences`` with ``wlen=None``; it is computed
    in-house by :func:`_prominences`. A candidate on a plateau that rises
    further has prominence 0 and ranks last. Raises
    :class:`AnalysisError` when fewer candidates exist.

    Each seed is then placed from the three raw samples around it: near an
    isolated line ``1 / y^2`` is a parabola in frequency, with its vertex
    (taken at most a sample away) at the center and ``(Gamma / 2)^2`` its
    value there over its curvature. An end sample mirrors its neighbour and
    stays put; a parabola not opening upward, or dipping below zero, gives
    damping 0 for the caller's width floor to raise. Seeds come sorted.
    """
    smoothed = _smooth5(y)
    inner = smoothed[1:-1]
    candidates = np.flatnonzero((inner > smoothed[:-2]) & (inner >= smoothed[2:])) + 1
    if candidates.size < n_peaks:
        raise AnalysisError(
            f"found {candidates.size} local maxima in the smoothed spectrum, "
            f"need {n_peaks}; widen the scan or reduce the damping"
        )
    prominence = _prominences(smoothed, candidates)
    chosen = np.sort(candidates[np.argsort(prominence)[::-1][:n_peaks]])
    # Smoothing flattens sharp tops into plateaus whose first sample wins the
    # strict-maximum test; re-center each seed on the raw maximum inside the
    # smoothing window (keeping seeds distinct) so narrow peaks start with
    # gradient support.
    seeds: list[int] = []
    for i in chosen:
        window = [k for k in range(max(i - 2, 0), min(i + 3, y.size)) if k not in seeds]
        seeds.append(max(window, key=lambda k: y[k]) if window else int(i))
    j = np.sort(seeds)
    step = x[1] - x[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        q_low, q_mid, q_high = y[np.array([np.abs(j - 1), j, -1 - np.abs(y.size - 2 - j)])] ** -2.0
        a = 0.5 * (q_low + q_high) - q_mid
        b = 0.5 * (q_high - q_low)
        vertex = -0.5 * b / a
        half_sq = (q_mid + 0.5 * b * vertex) / a
        offset = np.where((a > 0.0) & np.isfinite(vertex), np.clip(vertex, -1.0, 1.0), 0.0)
        return x[j] + step * offset, np.where(half_sq > 0.0, 2.0 * step * np.sqrt(half_sq), 0.0)


def _residue_basis(g: np.ndarray, u: np.ndarray, u_k: np.ndarray) -> np.ndarray:
    """Peak-normalized modal basis ``g u_k / (u_k^2 - u^2 + i g u)`` and its derivatives.

    Returned as complex rows [3K, M]: the K basis functions B_k, then
    dB_k/dg_k, then dB_k/du_k. Basis function k depends only on (u_k, g_k),
    so each parameter moves one of them. At ``u = u_k`` every basis function
    equals ``-i``, so its coefficient is the peak amplitude of that mode.
    Each block is written in place into the one array returned.
    """
    g, u_k = g[:, None], u_k[:, None]
    rows = np.empty((3, g.size, u.size), complex)
    den = rows[1]  # work space until dB/dg overwrites it
    np.multiply(u_k - u, u_k + u, out=den.real)
    np.multiply(g, u, out=den.imag)
    inv = 1.0 / den
    basis = np.multiply(g * u_k, inv, out=rows[0])
    d_g = np.multiply(1j * u, basis, out=rows[1])
    np.subtract(u_k, d_g, out=d_g)
    d_g *= inv
    d_u = np.multiply(2.0 * u_k, basis, out=rows[2])
    np.subtract(g, d_u, out=d_u)
    d_u *= inv
    return rows.reshape(-1, u.size)


def _project_residues(g: np.ndarray, u: np.ndarray, u_k: np.ndarray, data: np.ndarray):
    """Variable projection of the responses ``data`` [N, M] at dampings ``g``, centers ``u_k``.

    All the tall linear algebra is one scaled CholeskyQR2
    (:func:`_cholesky_qr2`) of the real [2M, 3K] columns [B | dB], each
    complex sample split into a real and an imaginary row, with the data
    projected on its Q explicitly. Its first K columns are the QR of the
    basis B; the next 2K factor the derivatives projected off B into an
    orthonormal W times a triangle S. Each ion's data give its coefficients
    along B, its residual along W, and the norm of the rest of its residual.
    Returns that residual and Kaufman's Jacobian of it in (g, u_k) with each
    ion's 2M rows rotated into those 2K + 1: along W the Jacobian is -S
    times the ion's heights, and on the last row it is zero. Rotating rows
    leaves every norm and inner product the optimizer uses unchanged, so only
    its linear algebra gets smaller, and the row signs of R (here its
    diagonal is positive) change nothing it uses. Also returns the residues
    themselves [K, N] as peak heights in data units, ``R^-1`` of the basis
    ``B = QR`` and ``B^+ dB`` [K, 2K]. For a numerically rank-deficient
    [B | dB] (two coinciding modes, say) the residual is all NaN and the
    other four are None, so :func:`least_squares` rejects the point as
    infeasible.
    """
    k = g.size
    factored = _cholesky_qr2(_residue_basis(g, u, u_k).view(float),
                             np.ascontiguousarray(data).view(float))
    if factored is None:
        return np.full((2 * k + 1) * data.shape[0], np.nan), None, None, None, None
    r, qtd, rest = factored
    r_inv = np.linalg.inv(r[:k, :k])
    heights = r_inv @ qtd[:k]
    jac = np.zeros((2 * k + 1, data.shape[0], 2 * k))
    jac[:-1] = -r[k:, None, k:] * np.concatenate([heights, heights]).T
    residual = np.concatenate([qtd[k:], rest[None]])
    return residual.ravel(), jac.reshape(-1, 2 * k), heights, r_inv, r_inv @ r[:k, k:]


def _cholesky_qr2(x: np.ndarray, d: np.ndarray):
    """R of the tall columns ``x.T = QR``, ``Q^T d.T``, and the norms of ``d``'s rows off span(Q).

    ``x`` [C, L] and ``d`` [N, L] hold the columns as rows. Scaled
    CholeskyQR2 (Fukaya et al., ScalA 2014; Yamamoto et al., ETNA 44, 306
    (2015)): the Gram matrix ``G = x x^T`` is the one tall product of the
    first pass, and its diagonal gives the column scaling ``S = diag(G)^-1/2``
    at no extra pass; ``L1 = chol(S G S)`` and ``Y = L1^-1 S x`` leave ``Y``
    orthonormal to about ``kappa(S x)^2 eps``, which the second pass,
    ``L2 = chol(Y Y^T)`` and ``Q^T = L2^-1 Y``, brings to round-off. So
    ``R = (L1 L2)^T S^-1``, with a positive diagonal. The triangular factors
    are at most C square, so they are inverted explicitly (numpy has no
    triangular solve). ``d`` never enters a Gram matrix: where it lies almost
    inside span(x), as a fit's data do at convergence, that matrix would be
    singular to working precision. Its coefficients come from the product
    ``Y d^T``, and its residual is formed explicitly as
    ``d - (Q^T d^T)^T Q^T``, never as a difference of squares. Returns None
    when the columns are numerically rank-deficient: when either Cholesky
    factor does not exist, or when ``||L2^-1||_F`` exceeds ``1 / _MIN_SIGMA``
    (two modes of one width with centers an ulp to 1e-7 of the scan apart
    can pass both factorizations with a residual that is wrong by percents).
    The diagonal of ``L2`` is no such test: its pivots can sit far above its
    smallest singular value.
    """
    gram = x @ x.T
    s = 1.0 / np.sqrt(gram.diagonal())
    try:
        l1 = np.linalg.cholesky(s[:, None] * gram * s)
        y = (np.linalg.inv(l1) * s) @ x
        l2 = np.linalg.cholesky(y @ y.T)
    except np.linalg.LinAlgError:
        return None
    l2_inv = np.linalg.inv(l2)
    if (l2_inv * l2_inv).sum() > _MIN_SIGMA**-2:
        return None
    qtd = l2_inv @ (y @ d.T)
    rest = d - (qtd.T @ l2_inv) @ y
    return (l1 @ l2).T / s, qtd, np.sqrt(np.einsum("ij,ij->i", rest, rest))


def fit_modal_sum(frequencies: np.ndarray, response: np.ndarray, n_modes: int) -> ModalFit:
    """Fit one real-residue modal sum to every ion's complex response at once.

    ``response`` is ``amplitude * exp(i phase)`` with shape [M, N_ions]. The
    model is ``Z_i(w) = sum_k R_ik / (w_k^2 - w^2 + i Gamma_k w)``. The K
    centers ``w_k`` and dampings ``Gamma_k`` are the nonlinear parameters.
    The centers and dampings start where :func:`_peak_seeds` places the
    summed amplitude's peaks, the centers stay inside the scan, and the
    dampings are floored at ``WIDTH_FLOOR_STEPS`` scan steps of half-width
    (``Gamma = 2 hwhm / sqrt(3)``); both read one step, so a scan not uniform
    to 1e-6 raises :class:`AnalysisError`. For given centers and dampings
    the residues shared by all ions follow from one linear least-squares
    solve (variable projection; Golub & Pereyra 1973), and the optimizer
    sees Kaufman's Jacobian of the projected residual. Each
    evaluation factors only the basis and its derivatives, by scaled
    CholeskyQR2, and projects the data on that explicitly: near convergence
    the data lie almost inside the basis's span, so a Gram matrix holding
    them would be singular (:func:`_cholesky_qr2`). Parameters at which the
    basis is numerically rank-deficient are infeasible: a trial step there
    is rejected and the trust radius cut, and seeds there raise
    :class:`AnalysisError` at once. Centers and
    dampings trade off along a shallow valley of the cost, where the default
    ``ftol`` leaves the half-widths dependent on the solver's path at the
    1e-7 level, so the fit stops at ``ftol = 1e-10``. (Tighter still, a mode
    the data barely constrain creeps along the valley to the ``nfev`` cap.)
    Returns the modes sorted by center, with signed peak heights
    ``R_ik / (Gamma_k w_k)``. ``n_modes`` must be an ``int`` or numpy integer
    (not a bool) of at least 1, or :class:`AnalysisError` is raised.
    """
    check_count("n_modes", n_modes, AnalysisError)
    if n_modes < 1:
        raise AnalysisError(f"n_modes must be at least 1, got {n_modes}")
    z = _as_array("response", response, complex)
    if z.ndim != 2:
        raise AnalysisError("response must be a [scan, ion] 2-D array")
    x, y, w0, span, scale = _normalize(frequencies, np.abs(z))
    centers, g0 = _peak_seeds(x, y.sum(axis=1), n_modes)
    u0 = w0 / span
    u = x + u0
    data = np.ascontiguousarray(z.T) / scale
    to_g = 2.0 / np.sqrt(3.0)
    floor = to_g * WIDTH_FLOOR_STEPS * (x[1] - x[0])
    g0 = np.clip(g0, floor, to_g)
    k = g0.size

    result = least_squares(
        lambda p: _project_residues(p[:k], u, p[k:] + u0, data), np.concatenate([g0, centers]),
        bounds=np.repeat([[floor, 0.0], [to_g, 1.0]], k, axis=1),
        x_scale=np.concatenate([g0, g0]), ftol=1e-10,
    )
    if not result.success:
        raise AnalysisError(f"modal fit did not converge: {result.message}")
    heights, r_inv, pinv_d = result.evaluation[2:]
    variance, cov = _covariance(result, 2 * data.size - result.x.size - heights.size)
    errors = np.sqrt(np.maximum(np.diag(cov), 0.0)) * span
    # Height variance at fixed parameters, plus the parameters' own covariance
    # carried through dH_ji/dp = -(B^+ dB/dp)_j H_(mode of p) i.
    both = np.tile(heights, (2, 1))
    height_var = variance * np.sum(r_inv**2, axis=1)[:, None] + np.einsum(
        "jp,pi,pq,jq,qi->ji", pinv_d, both, cov, pinv_d, both
    )
    order = np.argsort(result.x[k:])
    return ModalFit(
        centers=(w0 + span * result.x[k:])[order],
        center_errors=errors[k:][order],
        hwhms=(span * result.x[:k] / to_g)[order],
        hwhm_errors=(errors[:k] / to_g)[order],
        heights=scale * heights.T[:, order],
        height_errors=scale * np.sqrt(np.maximum(height_var, 0.0)).T[:, order],
    )


#: ``perfbench/spans.py`` counts the modal fits under this name.
fit_fixed_centers = fit_modal_sum


def fit_lorentzian_sum(*args: object, **kwargs: object) -> NoReturn:
    """The retired free Lorentzian fit: raises :class:`AnalysisError`.

    ``perfbench/spans.py`` traces this name, as it does ``fit_fixed_centers``
    and ``quad_vec``; ROADMAP item 7 deletes all three. It is not an alias of
    :func:`fit_modal_sum`, whose calls the tracer would then count twice.
    """
    raise AnalysisError("fit_lorentzian_sum is retired; fit amplitude * exp(i phase) "
                        "with fit_modal_sum")


def reconstruct_eigenvectors(
    centers: np.ndarray,
    heights: np.ndarray,
    height_errors: np.ndarray | None = None,
) -> ModeVectorEstimate:
    """Turn signed peak heights into normalized eigenvector estimates.

    Column k of ``heights`` [N_ions, K] is proportional to mode k's
    eigenvector, signs included, so each column is normalized with its
    largest-magnitude component positive (:func:`tapermode.modes.canonical_sign`).
    A component whose height lies within two of its errors of zero has an
    uncertain sign and is listed in ``ambiguity_notes``. Non-numeric input,
    a non-finite or all-zero height column, and ``height_errors`` not shaped
    like ``heights`` raise :class:`AnalysisError`.
    """
    centers = _as_array("centers", centers)
    h = _as_array("heights", heights)
    if h.ndim != 2:
        raise AnalysisError("heights must be an [ion, mode] 2-D array")
    n_ions, k = h.shape
    if centers.size != k:
        raise AnalysisError("heights column count must match the number of centers")
    finite = np.isfinite(h).all(axis=0)
    if not finite.all():
        raise AnalysisError(f"mode {int(np.argmin(finite))} has non-finite heights")
    norms = np.linalg.norm(h, axis=0)
    if not np.all(norms > 0):
        raise AnalysisError(f"mode {int(np.argmin(norms))} has an all-zero height column")
    components = canonical_sign(h) / norms
    notes: list[str] = []
    if height_errors is None:
        component_errors = np.full((n_ions, k), np.nan)
    else:
        errors = _as_array("height_errors", height_errors)
        if errors.shape != h.shape:
            raise AnalysisError(f"height_errors has shape {errors.shape}, heights {h.shape}")
        component_errors = errors / norms
        for i, j in zip(*np.nonzero(np.abs(h) < 2.0 * errors)):
            notes.append(
                f"mode {j}: ion {i} height {h[i, j]:+.3g} is within two errors "
                f"({errors[i, j]:.3g}) of zero; its sign is uncertain"
            )
    return ModeVectorEstimate(
        frequencies=centers.copy(),
        components=components,
        component_errors=component_errors,
        ambiguity_notes=tuple(notes),
    )


def analyze_spectrum(spectrum: SpectrumResult, n_modes: int | None = None) -> SpectrumAnalysis:
    """Run the chain on one spectrum: one modal fit of every ion, then the eigenvectors."""
    k = spectrum.n_ions if n_modes is None else n_modes
    response = spectrum.amplitude * np.exp(1j * spectrum.phase)
    modes = fit_modal_sum(spectrum.drive_frequencies, response, k)
    vectors = reconstruct_eigenvectors(modes.centers, modes.heights, modes.height_errors)
    return SpectrumAnalysis(modes=modes, vectors=vectors)


# -- imaging profile ----------------------------------------------------------

def blurred_arcsine(x: np.ndarray, amplitude: float, sigma: float) -> np.ndarray:
    """Arcsine position density of a sine oscillation, blurred by a Gaussian.

    The time-averaged position density of ``A sin(w t)`` is
    ``1 / (pi sqrt(A^2 - x^2))`` on (-A, A); seen through a Gaussian
    point-spread function of width ``sigma`` it becomes
    ``(1/pi) int_0^pi G_sigma(x - A cos u) du``. The integrand is smooth and
    periodic in u, so the midpoint rule converges exponentially: the nested
    midpoint rule of :func:`_arcsine_quadrature` starts from
    ``n = 16 + ceil(pi A / sigma)`` nodes and triples them until the density
    settles to ``PROFILE_QUAD_RTOL`` at every x (relative tolerance only, so
    the result is scale-equivariant). Its first round takes all ``3n`` nodes
    in one pass, the ``n``-node estimate being every third of them. The same
    pass yields the x, A and sigma derivatives that :func:`fit_profile` uses
    as its analytic Jacobian. Negative amplitudes count as zero; an
    amplitude or sigma that is not a finite real number raises
    :class:`AnalysisError`. Integrates to 1 over x.
    """
    x = _as_array("x", x)
    check_real("amplitude", amplitude, AnalysisError)
    check_real("sigma", sigma, AnalysisError)
    return _arcsine_quadrature(x.ravel(), amplitude, sigma)[0].reshape(x.shape)


def _arcsine_quadrature(x: np.ndarray, amplitude: float, sigma: float) -> np.ndarray:
    """Blurred arcsine density and its derivatives, rows [rho, d/dx, d/dA, d/dsigma].

    Midpoint rule in u on ``(1/pi) int_0^pi G_sigma(x - A cos u) du``
    (Gauss-Chebyshev in ``cos u``). The node spacing must resolve the
    narrowest feature, of width ``sigma / A`` in u, or interior points
    falsely settle at zero; hence the start at ``16 + ceil(pi A / sigma)``
    nodes. Each round triples the count and reuses the old nodes (the
    midpoints of ``n`` cells are the middle midpoints of ``3n``) and stops
    when two successive densities agree to ``PROFILE_QUAD_RTOL`` at every x.
    The first round evaluates all ``3n`` nodes in one pass and reads the
    ``n``-node density off the middle node of each triple. The derivatives
    come from the same Gaussian values. Nodes are taken in blocks (of whole
    triples in the first round), each made from its own index range, so
    memory stays ``O(x.size * block)`` however many nodes a round has; the
    first round's ``3n`` nodes, as one array, must fit
    ``core.MAX_ARRAY_BYTES``, which bounds the start. Raises
    :class:`AnalysisError` for a non-finite or non-positive sigma, a
    non-finite amplitude, a start over that budget, or a density that has
    not settled after ``_PROFILE_MAX_TRIPLINGS`` rounds.
    ``x`` is 1-D; the result has shape [4, x.size].
    """
    amplitude, sigma = float(amplitude), float(sigma)
    if not 0 < sigma < np.inf:
        raise AnalysisError("the point-spread width sigma must be positive and finite")
    if not np.isfinite(amplitude):
        raise AnalysisError(f"the oscillation amplitude must be finite, got {amplitude!r}")
    amplitude = max(amplitude, 0.0)
    check_array_budget(f"the profile quadrature at A = {amplitude:g}, sigma = {sigma:g}",
                       (3 * (16 + np.pi * amplitude / sigma),), AnalysisError)
    block = 3 * max(_PROFILE_BLOCK_ELEMENTS // (3 * max(x.size, 1)), 1)
    # node sums of g, z g, z g cos u and z^2 g, with z = x - A cos u, then of
    # g over the first round's middle nodes
    sums = np.zeros((5, x.size))

    def add_nodes(n: int, first_round: bool = False) -> None:
        # the 3n-cell rule's nodes 3j + {0, 1, 2} in the first round, later
        # its new nodes 3j + {0, 2}, each block made from its own index range
        count = (3 if first_round else 2) * n
        for start in range(0, count, block):
            index = np.arange(start, min(start + block, count))
            if not first_round:
                index = 3 * (index // 2) + 2 * (index % 2)
            cos_u = np.cos(np.pi * (index + 0.5) / (3 * n))
            z = x[:, None] - amplitude * cos_u
            g = np.exp(-0.5 * (z / sigma) ** 2)
            zg = z * g
            sums[0] += g.sum(axis=1)
            sums[1] += zg.sum(axis=1)
            sums[2] += zg @ cos_u
            sums[3] += (zg * z).sum(axis=1)
            if first_round:
                sums[4] += g[:, 1::3].sum(axis=1)

    n = 16 + int(np.ceil(np.pi * amplitude / sigma))
    add_nodes(n, first_round=True)
    density = sums[4] / n
    for tripling in range(_PROFILE_MAX_TRIPLINGS):
        if tripling:
            add_nodes(n)
        n *= 3
        previous, density = density, sums[0] / n
        if np.all(np.abs(density - previous) <= PROFILE_QUAD_RTOL * np.abs(density)):
            break
    else:
        raise AnalysisError(
            f"profile quadrature did not settle within {n} nodes "
            f"(A = {amplitude:g}, sigma = {sigma:g})"
        )
    norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi) * n)
    s2 = sigma**2
    return norm * np.stack([
        sums[0],
        -sums[1] / s2,
        sums[2] / s2,
        (sums[3] / s2 - sums[0]) / sigma,
    ])


#: ``perfbench/spans.py`` counts profile quadratures under this name.
quad_vec = _arcsine_quadrature


@dataclass(frozen=True)
class ProfileFit:
    """Oscillation amplitude extracted from a fluorescence profile."""

    amplitude: float        #: oscillation amplitude A (same unit as positions)
    psf_sigma: float        #: Gaussian PSF width (fitted unless supplied)
    center: float
    baseline: float         #: flat background (counts per unit length)
    density_scale: float    #: total signal (counts integrated over position)
    amplitude_error: float
    sigma_was_fixed: bool


def _profile_params(params: np.ndarray, psf_sigma: float | None) -> tuple:
    """(A, sigma, center, baseline, scale); a pinned ``psf_sigma`` is not fitted."""
    return tuple(params) if psf_sigma is None else (params[0], psf_sigma, *params[1:])


def _profile_model(
    params: np.ndarray, x: np.ndarray, psf_sigma: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """``baseline + scale * blurred_arcsine(x - center)`` and its fitted Jacobian columns."""
    amp, sig, center, baseline, scale = _profile_params(params, psf_sigma)
    rho, d_x, d_amp, d_sig = _arcsine_quadrature(x - center, amp, sig)
    jac = np.empty((x.size, params.size))
    jac[:, 0] = scale * d_amp
    if psf_sigma is None:
        jac[:, 1] = scale * d_sig
    jac[:, -3] = -scale * d_x
    jac[:, -2] = 1.0
    jac[:, -1] = rho
    return baseline + scale * rho, jac


def fit_profile(
    positions: np.ndarray,
    counts: np.ndarray,
    psf_sigma: float | None = None,
) -> ProfileFit:
    """Fit ``baseline + scale * blurred_arcsine(x - center)`` to a profile.

    ``positions`` are uniformly spaced bin centers and ``counts`` the
    fluorescence density per unit length in each bin. Residuals carry
    Poisson weights (error ~ sqrt of the counts in the bin). Passing
    ``psf_sigma`` pins the PSF width to an externally calibrated value;
    near-zero amplitudes are not identifiable with a free width, because the
    blurred density approaches a Gaussian of variance sigma^2 + A^2/2.
    """
    x = _as_array("positions", positions)
    y = _as_array("counts", counts)
    if x.ndim != 1 or x.size < 8 or y.shape != x.shape:
        raise AnalysisError("need matching 1-D positions and counts (>= 8 bins)")
    if not np.all(np.isfinite(x)):
        raise AnalysisError("positions must be finite")
    bin_width = _check_uniform("positions", x)
    if np.any(y < 0) or not np.all(np.isfinite(y)) or not y.max() > 0:
        raise AnalysisError("counts must be finite, non-negative, and not all zero")

    total = float(y.sum()) * bin_width
    center0 = float((x * y).sum() / y.sum())
    variance = float((((x - center0) ** 2) * y).sum() / y.sum())
    span = x[-1] - x[0]
    weights = np.sqrt(np.maximum(y * bin_width, 1.0)) / bin_width

    if psf_sigma is None:
        sigma0 = np.sqrt(variance / 2.0)
        p0 = np.array([np.sqrt(variance), sigma0, center0, 0.0, total])
        lower = np.array([0.0, 1e-3 * sigma0, x[0], 0.0, 1e-6 * total])
        upper = np.array([span, span, x[-1], y.max(), 10.0 * total])
        x_scale = np.array([sigma0, sigma0, sigma0, max(y.max() * 1e-3, 1e-12), total])
    else:
        check_real("psf_sigma", psf_sigma, AnalysisError)
        if not 0 < psf_sigma < np.inf:
            raise AnalysisError("psf_sigma must be positive and finite")
        s = float(psf_sigma)
        amp0 = max(np.sqrt(2.0 * max(variance - s**2, 1e-6 * variance)), 0.1 * s)
        p0 = np.array([amp0, center0, 0.0, total])
        lower = np.array([0.0, x[0], 0.0, 1e-6 * total])
        upper = np.array([span, x[-1], y.max(), 10.0 * total])
        x_scale = np.array([s, s, max(y.max() * 1e-3, 1e-12), total])

    def weighted(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, jac = _profile_model(params, x, psf_sigma)
        return (values - y) / weights, jac / weights[:, None]

    result = least_squares(weighted, p0, bounds=(lower, upper), x_scale=x_scale,
                           ftol=1e-12, xtol=1e-12, gtol=1e-12)
    if not result.success:
        raise AnalysisError(f"profile fit did not converge: {result.message}")
    cov = _covariance(result, result.jac.shape[0] - result.jac.shape[1])[1]
    amp, sig, center, baseline, scale = _profile_params(result.x, psf_sigma)
    return ProfileFit(
        amplitude=float(amp),
        psf_sigma=float(sig),
        center=float(center),
        baseline=float(baseline),
        density_scale=float(scale),
        amplitude_error=float(np.sqrt(max(cov[0, 0], 0.0))),
        sigma_was_fixed=psf_sigma is not None,
    )
