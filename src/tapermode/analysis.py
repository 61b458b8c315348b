"""Spectrum and image-profile fitting: from synthetic data back to modes.

The measurement emulation produces, per drive frequency, each ion's steady
amplitude and phase. This module inverts that into mode parameters:

1. :func:`fit_lorentzian_sum` — fit the chain-level spectrum (summed over
   ions) with a sum of Lorentzians ``h / (1 + ((w - W)/g)^2)`` plus a flat
   offset to locate the resonances.
2. :func:`fit_fixed_centers` — refit every ion's own spectrum with the
   centers frozen, leaving heights and widths free; the height matrix is the
   ion-by-mode response pattern.
3. :func:`reconstruct_eigenvectors` — convert heights to signed, normalized
   eigenvector estimates, reading each component's sign off the phase
   difference to the loudest ion at that resonance (anti-phase = negative).

Fits run on internally normalized data (frequency axis mapped to [0, 1],
amplitudes scaled by their maximum) so all parameters are O(1) regardless of
physical units, and use analytic Jacobians with projected bounds.
Half-widths are floored at one scan step: anything narrower is unresolvable
by construction and lets a zero-height peak collapse onto a single sample.

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

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.signal import peak_prominences

from .dynamics import SpectrumResult, wrap_phase
from .errors import AnalysisError

#: Half-width lower bound, in scan steps (narrower peaks are unresolvable).
WIDTH_FLOOR_STEPS = 1.0

#: Component signs flip when the phase difference to the reference ion
#: exceeds this threshold [rad].
PHASE_SIGN_THRESHOLD = np.pi / 2

#: Phase differences closer than this to the sign threshold are flagged.
PHASE_AMBIGUITY_MARGIN = 0.2

#: Relative tolerance of the profile quadrature: the midpoint node count is
#: tripled until two successive density estimates agree to this at every x.
PROFILE_QUAD_RTOL = 1e-9

#: Profile-quadrature nodes per block times positions: bounds the temporaries.
_PROFILE_BLOCK_ELEMENTS = 1 << 16

#: Node-count triplings before the profile quadrature reports failure.
_PROFILE_MAX_TRIPLINGS = 8


def lorentzian_sum(
    frequencies: np.ndarray,
    centers: np.ndarray,
    hwhms: np.ndarray,
    heights: np.ndarray,
    offset: float,
) -> np.ndarray:
    """Sum of Lorentzians ``h_k / (1 + ((w - c_k)/g_k)^2)`` plus offset."""
    w = np.asarray(frequencies, dtype=float)
    out = np.full(w.shape, float(offset))
    for c, g, h in zip(np.atleast_1d(centers), np.atleast_1d(hwhms), np.atleast_1d(heights)):
        out += h / (1.0 + ((w - c) / g) ** 2)
    return out


@dataclass(frozen=True)
class LorentzianFit:
    """Free sum-of-Lorentzians fit, peaks sorted by ascending center."""

    centers: np.ndarray
    hwhms: np.ndarray
    heights: np.ndarray
    offset: float
    center_errors: np.ndarray
    hwhm_errors: np.ndarray
    height_errors: np.ndarray
    offset_error: float

    @property
    def n_peaks(self) -> int:
        return self.centers.size


@dataclass(frozen=True)
class FixedCenterFit:
    """Per-ion fits with shared frozen centers."""

    centers: np.ndarray        #: [K] as supplied
    heights: np.ndarray        #: [N_ions, K]
    hwhms: np.ndarray          #: [N_ions, K]
    offsets: np.ndarray        #: [N_ions]
    height_errors: np.ndarray  #: [N_ions, K]


@dataclass(frozen=True)
class ModeVectorEstimate:
    """Signed, normalized eigenvector estimates from fitted heights."""

    frequencies: np.ndarray        #: [K] fitted resonance centers [rad/s]
    components: np.ndarray         #: [N_ions, K], columns normalized
    component_errors: np.ndarray   #: [N_ions, K]
    reference_ions: np.ndarray     #: [K] loudest ion per mode (sign reference)
    ambiguity_notes: tuple[str, ...]


@dataclass(frozen=True)
class SpectrumAnalysis:
    """Bundle of the full chain: free fit, per-ion fits, eigenvectors."""

    lorentzians: LorentzianFit
    per_ion: FixedCenterFit
    vectors: ModeVectorEstimate


def _smooth5(y: np.ndarray) -> np.ndarray:
    """Five-point moving average with reflective end padding."""
    padded = np.r_[y[2], y[1], y, y[-2], y[-3]]
    return np.convolve(padded, np.ones(5) / 5.0, mode="valid")


def _normalize(frequencies: np.ndarray, amplitude: np.ndarray):
    w = np.asarray(frequencies, dtype=float)
    y = np.asarray(amplitude, dtype=float)
    if w.ndim != 1 or w.size < 8:
        raise AnalysisError("need a 1-D scan of at least 8 frequencies")
    if y.shape[0] != w.size:
        raise AnalysisError("amplitude length does not match the frequency axis")
    if not np.all(np.diff(w) > 0):
        raise AnalysisError("frequencies must be strictly increasing")
    if not np.all(np.isfinite(y)):
        raise AnalysisError("amplitude contains non-finite values")
    span = w[-1] - w[0]
    scale = float(np.max(y))
    if not scale > 0:
        raise AnalysisError("spectrum is identically zero; nothing to fit")
    return (w - w[0]) / span, y / scale, w[0], span, scale


def _errors_from_jacobian(result, param_scales: np.ndarray) -> np.ndarray:
    """1-sigma parameter errors from the final least-squares Jacobian.

    Linearized estimate; parameters pinned at an active bound come out
    optimistic. NaN when there are no spare degrees of freedom.
    """
    jac = result.jac
    dof = jac.shape[0] - jac.shape[1]
    if dof <= 0:
        return np.full(param_scales.shape, np.nan)
    variance = 2.0 * result.cost / dof
    cov = variance * np.linalg.pinv(jac.T @ jac)
    return np.sqrt(np.maximum(np.diag(cov), 0.0)) * param_scales


def _free_model(params: np.ndarray, x: np.ndarray, n_peaks: int) -> np.ndarray:
    out = np.full_like(x, params[-1])
    for k in range(n_peaks):
        c, g, h = params[3 * k:3 * k + 3]
        out += h / (1.0 + ((x - c) / g) ** 2)
    return out


def _free_jacobian(params: np.ndarray, x: np.ndarray, n_peaks: int) -> np.ndarray:
    jac = np.zeros((x.size, params.size))
    for k in range(n_peaks):
        c, g, h = params[3 * k:3 * k + 3]
        t = (x - c) / g
        den = (1.0 + t**2) ** 2
        jac[:, 3 * k] = h * 2.0 * t / g / den
        jac[:, 3 * k + 1] = h * 2.0 * t**2 / g / den
        jac[:, 3 * k + 2] = 1.0 / (1.0 + t**2)
    jac[:, -1] = 1.0
    return jac


def fit_lorentzian_sum(frequencies: np.ndarray, amplitude: np.ndarray, n_peaks: int) -> LorentzianFit:
    """Fit ``n_peaks`` Lorentzians plus a flat offset to one spectrum.

    Peak candidates are local maxima of the five-point-smoothed spectrum;
    the ``n_peaks`` most *prominent* seed the optimizer (raw height would
    let noise wiggles on one broad top outrank a genuinely smaller peak).
    Raises :class:`AnalysisError` when fewer candidates exist.
    """
    if n_peaks < 1:
        raise AnalysisError("n_peaks must be at least 1")
    x, y, w0, span, scale = _normalize(frequencies, amplitude)
    smoothed = _smooth5(y)
    candidates = np.array(
        [
            i for i in range(1, smoothed.size - 1)
            if smoothed[i] > smoothed[i - 1] and smoothed[i] >= smoothed[i + 1]
        ],
        dtype=int,
    )
    if candidates.size < n_peaks:
        raise AnalysisError(
            f"found {candidates.size} local maxima in the smoothed spectrum, "
            f"need {n_peaks}; widen the scan or reduce the damping"
        )
    prominence = peak_prominences(smoothed, candidates)[0]
    chosen = candidates[np.argsort(prominence)[::-1][:n_peaks]]
    # Smoothing flattens sharp tops into plateaus whose first sample wins the
    # strict-maximum test; re-center each seed on the raw maximum inside the
    # smoothing window (keeping seeds distinct) so narrow peaks start with
    # gradient support.
    taken: set[int] = set()
    seeds = []
    for i in sorted(chosen):
        window = [k for k in range(max(i - 2, 0), min(i + 3, y.size)) if k not in taken]
        j = max(window, key=lambda k: y[k]) if window else int(i)
        taken.add(j)
        seeds.append(j)
    seeds = np.sort(np.array(seeds, dtype=int))

    step = x[1] - x[0]
    floor = WIDTH_FLOOR_STEPS * step
    offset0 = float(np.percentile(y, 10))
    p0, lower, upper = [], [], []
    for i in seeds:
        p0 += [x[i], max(2.0 * step, floor), max(smoothed[i] - offset0, 1e-6)]
        lower += [0.0, floor, 0.0]
        upper += [1.0, 1.0, np.inf]
    p0.append(offset0)
    lower.append(0.0)
    upper.append(np.inf)

    result = least_squares(
        lambda p: _free_model(p, x, n_peaks) - y,
        p0,
        jac=lambda p: _free_jacobian(p, x, n_peaks),
        bounds=(lower, upper),
        method="trf",
    )
    if not result.success:
        raise AnalysisError(f"Lorentzian fit did not converge: {result.message}")

    params = result.x
    scales = np.empty_like(params)
    scales[0:-1:3] = span
    scales[1:-1:3] = span
    scales[2:-1:3] = scale
    scales[-1] = scale
    errors = _errors_from_jacobian(result, scales)

    order = np.argsort(params[0:-1:3])
    return LorentzianFit(
        centers=w0 + span * params[0:-1:3][order],
        hwhms=span * params[1:-1:3][order],
        heights=scale * params[2:-1:3][order],
        offset=scale * float(params[-1]),
        center_errors=errors[0:-1:3][order],
        hwhm_errors=errors[1:-1:3][order],
        height_errors=errors[2:-1:3][order],
        offset_error=float(errors[-1]),
    )


def _fixed_model(params: np.ndarray, x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    out = np.full_like(x, params[-1])
    for j, c in enumerate(centers):
        g, h = params[2 * j], params[2 * j + 1]
        out += h / (1.0 + ((x - c) / g) ** 2)
    return out


def _fixed_jacobian(params: np.ndarray, x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    jac = np.zeros((x.size, params.size))
    for j, c in enumerate(centers):
        g, h = params[2 * j], params[2 * j + 1]
        t = (x - c) / g
        jac[:, 2 * j] = h * 2.0 * t**2 / g / (1.0 + t**2) ** 2
        jac[:, 2 * j + 1] = 1.0 / (1.0 + t**2)
    jac[:, -1] = 1.0
    return jac


def fit_fixed_centers(
    frequencies: np.ndarray,
    amplitudes: np.ndarray,
    centers: np.ndarray,
) -> FixedCenterFit:
    """Fit every ion's spectrum with frozen centers; heights and widths free.

    ``amplitudes`` has shape [M, N_ions]; returns heights[N_ions, K] for the
    K supplied centers.
    """
    amp = np.asarray(amplitudes, dtype=float)
    if amp.ndim != 2:
        raise AnalysisError("amplitudes must be a [scan, ion] 2-D array")
    centers = np.asarray(centers, dtype=float)
    n_ions = amp.shape[1]
    k = centers.size

    heights = np.empty((n_ions, k))
    hwhms = np.empty((n_ions, k))
    offsets = np.empty(n_ions)
    height_errors = np.empty((n_ions, k))
    for i in range(n_ions):
        x, y, w0, span, scale = _normalize(frequencies, amp[:, i])
        c_norm = (centers - w0) / span
        step = x[1] - x[0]
        floor = WIDTH_FLOOR_STEPS * step
        offset0 = float(np.percentile(y, 10))
        p0, lower, upper = [], [], []
        for c in c_norm:
            nearest = int(np.argmin(np.abs(x - c)))
            p0 += [max(2.0 * step, floor), max(y[nearest] - offset0, 1e-6)]
            lower += [floor, 0.0]
            upper += [1.0, np.inf]
        p0.append(offset0)
        lower.append(0.0)
        upper.append(np.inf)

        result = least_squares(
            lambda p: _fixed_model(p, x, c_norm) - y,
            p0,
            jac=lambda p: _fixed_jacobian(p, x, c_norm),
            bounds=(lower, upper),
            method="trf",
        )
        if not result.success:
            raise AnalysisError(
                f"fixed-center fit for ion {i} did not converge: {result.message}"
            )
        scales = np.empty_like(result.x)
        scales[0:-1:2] = span
        scales[1:-1:2] = scale
        scales[-1] = scale
        errors = _errors_from_jacobian(result, scales)
        hwhms[i] = span * result.x[0:-1:2]
        heights[i] = scale * result.x[1:-1:2]
        offsets[i] = scale * result.x[-1]
        height_errors[i] = errors[1:-1:2]

    return FixedCenterFit(
        centers=centers.copy(),
        heights=heights,
        hwhms=hwhms,
        offsets=offsets,
        height_errors=height_errors,
    )


def reconstruct_eigenvectors(
    spectrum: SpectrumResult,
    centers: np.ndarray,
    heights: np.ndarray,
    height_errors: np.ndarray | None = None,
) -> ModeVectorEstimate:
    """Turn fitted heights into signed, normalized eigenvector estimates.

    For every resonance the loudest ion is the sign reference; another ion's
    component is negative when its phase at that drive frequency differs
    from the reference by more than pi/2 (anti-phase motion). Differences
    within ``PHASE_AMBIGUITY_MARGIN`` of the threshold are flagged in
    ``ambiguity_notes`` and via :mod:`warnings`. Each column is normalized
    with its largest-magnitude component positive.
    """
    centers = np.asarray(centers, dtype=float)
    h = np.asarray(heights, dtype=float)
    n_ions, k = h.shape
    if centers.size != k:
        raise AnalysisError("heights column count must match the number of centers")

    components = np.empty((n_ions, k))
    component_errors = np.full((n_ions, k), np.nan)
    reference_ions = np.empty(k, dtype=int)
    notes: list[str] = []
    for j in range(k):
        ref = int(np.argmax(h[:, j]))
        reference_ions[j] = ref
        sample = int(np.argmin(np.abs(spectrum.drive_frequencies - centers[j])))
        delta = wrap_phase(spectrum.phase[sample, :] - spectrum.phase[sample, ref])
        margin = np.abs(np.abs(delta) - PHASE_SIGN_THRESHOLD)
        for i in np.nonzero(margin < PHASE_AMBIGUITY_MARGIN)[0]:
            note = (
                f"mode {j}: ion {i} phase difference {delta[i]:+.3f} rad is "
                f"within {PHASE_AMBIGUITY_MARGIN} rad of the sign threshold"
            )
            notes.append(note)
            warnings.warn(note, stacklevel=2)
        signs = np.where(np.abs(delta) > PHASE_SIGN_THRESHOLD, -1.0, 1.0)
        norm = float(np.linalg.norm(h[:, j]))
        if not norm > 0:
            raise AnalysisError(f"mode {j} has an all-zero height column")
        column = signs * h[:, j] / norm
        if column[int(np.argmax(np.abs(column)))] < 0:
            column = -column
        components[:, j] = column
        if height_errors is not None:
            component_errors[:, j] = np.asarray(height_errors, dtype=float)[:, j] / norm

    return ModeVectorEstimate(
        frequencies=centers.copy(),
        components=components,
        component_errors=component_errors,
        reference_ions=reference_ions,
        ambiguity_notes=tuple(notes),
    )


def analyze_spectrum(spectrum: SpectrumResult, n_modes: int | None = None) -> SpectrumAnalysis:
    """Run the full chain on one spectrum: locate, refit, reconstruct."""
    k = spectrum.n_ions if n_modes is None else n_modes
    free = fit_lorentzian_sum(spectrum.drive_frequencies, spectrum.summed_amplitude(), k)
    fixed = fit_fixed_centers(spectrum.drive_frequencies, spectrum.amplitude, free.centers)
    vectors = reconstruct_eigenvectors(
        spectrum, free.centers, fixed.heights, fixed.height_errors
    )
    return SpectrumAnalysis(lorentzians=free, per_ion=fixed, vectors=vectors)


# -- imaging profile ----------------------------------------------------------

def blurred_arcsine(x: np.ndarray, amplitude: float, sigma: float) -> np.ndarray:
    """Arcsine position density of a sine oscillation, blurred by a Gaussian.

    The time-averaged position density of ``A sin(w t)`` is
    ``1 / (pi sqrt(A^2 - x^2))`` on (-A, A); seen through a Gaussian
    point-spread function of width ``sigma`` it becomes
    ``(1/pi) int_0^pi G_sigma(x - A cos u) du``. The integrand is smooth and
    periodic in u, so the midpoint rule converges exponentially: the nested
    midpoint rule of :func:`_arcsine_quadrature` starts from
    ``16 + ceil(pi A / sigma)`` nodes and triples them until the density
    settles to ``PROFILE_QUAD_RTOL`` at every x (relative tolerance only, so
    the result is scale-equivariant). The same pass yields the x, A and
    sigma derivatives that :func:`fit_profile` uses as its analytic
    Jacobian. Negative amplitudes count as zero. Integrates to 1 over x.
    """
    x = np.asarray(x, dtype=float)
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
    The derivatives come from the same Gaussian values. New nodes are taken
    in blocks, so temporaries stay ``O(x.size * block)`` at large A/sigma.
    ``x`` is 1-D; the result has shape [4, x.size].
    """
    if not sigma > 0:
        raise AnalysisError("the point-spread width sigma must be positive")
    amplitude = max(float(amplitude), 0.0)
    block = max(_PROFILE_BLOCK_ELEMENTS // max(x.size, 1), 1)
    # node sums of g, z g, z g cos u and z^2 g, with z = x - A cos u
    sums = np.zeros((4, x.size))

    def add_nodes(u: np.ndarray) -> None:
        for start in range(0, u.size, block):
            cos_u = np.cos(u[start:start + block])
            z = x[:, None] - amplitude * cos_u
            g = np.exp(-0.5 * (z / sigma) ** 2)
            zg = z * g
            sums[0] += g.sum(axis=1)
            sums[1] += zg.sum(axis=1)
            sums[2] += zg @ cos_u
            sums[3] += (zg * z).sum(axis=1)

    n = 16 + int(np.ceil(np.pi * amplitude / sigma))
    add_nodes(np.pi * (np.arange(n) + 0.5) / n)
    density = sums[0] / n
    for _ in range(_PROFILE_MAX_TRIPLINGS):
        new = np.arange(3 * n)
        new = new[new % 3 != 1]
        add_nodes(np.pi * (new + 0.5) / (3 * n))
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


def _profile_params(params: np.ndarray, psf_sigma: float | None) -> np.ndarray:
    """[A, sigma, center, baseline, scale]; a pinned ``psf_sigma`` is not fitted."""
    return params if psf_sigma is None else np.insert(params, 1, psf_sigma)


def _profile_model(
    params: np.ndarray, x: np.ndarray, psf_sigma: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """``baseline + scale * blurred_arcsine(x - center)`` and its Jacobian."""
    amp, sig, center, baseline, scale = _profile_params(params, psf_sigma)
    rho, d_x, d_amp, d_sig = _arcsine_quadrature(x - center, amp, sig)
    jac = np.column_stack([scale * d_amp, scale * d_sig, -scale * d_x, np.ones_like(x), rho])
    return baseline + scale * rho, jac if psf_sigma is None else np.delete(jac, 1, axis=1)


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
    x = np.asarray(positions, dtype=float)
    y = np.asarray(counts, dtype=float)
    if x.ndim != 1 or x.size < 8 or y.shape != x.shape:
        raise AnalysisError("need matching 1-D positions and counts (>= 8 bins)")
    steps = np.diff(x)
    if not np.all(steps > 0) or (steps.max() - steps.min()) > 1e-6 * steps.mean():
        raise AnalysisError("positions must be a uniformly increasing grid")
    if np.any(y < 0) or not np.all(np.isfinite(y)) or not y.max() > 0:
        raise AnalysisError("counts must be finite, non-negative, and not all zero")
    bin_width = float(steps.mean())

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
        if not psf_sigma > 0:
            raise AnalysisError("psf_sigma must be positive")
        s = float(psf_sigma)
        amp0 = max(np.sqrt(2.0 * max(variance - s**2, 1e-6 * variance)), 0.1 * s)
        p0 = np.array([amp0, center0, 0.0, total])
        lower = np.array([0.0, x[0], 0.0, 1e-6 * total])
        upper = np.array([span, x[-1], y.max(), 10.0 * total])
        x_scale = np.array([s, s, max(y.max() * 1e-3, 1e-12), total])

    last = {}  # least_squares asks for the Jacobian where it last evaluated

    def model(p):
        key = p.tobytes()
        if key not in last:
            last.clear()
            last[key] = _profile_model(p, x, psf_sigma)
        return last[key]

    result = least_squares(
        lambda p: (model(p)[0] - y) / weights,
        p0,
        jac=lambda p: model(p)[1] / weights[:, None],
        bounds=(lower, upper), x_scale=x_scale,
        method="trf", ftol=1e-12, xtol=1e-12, gtol=1e-12,
    )
    if not result.success:
        raise AnalysisError(f"profile fit did not converge: {result.message}")
    errors = _errors_from_jacobian(result, np.ones_like(result.x))
    amp, sig, center, baseline, scale = _profile_params(result.x, psf_sigma)
    return ProfileFit(
        amplitude=float(amp),
        psf_sigma=float(sig),
        center=float(center),
        baseline=float(baseline),
        density_scale=float(scale),
        amplitude_error=float(errors[0]),
        sigma_was_fixed=psf_sigma is not None,
    )
