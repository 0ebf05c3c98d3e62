"""Accuracy prediction for both signaling schemes.

The estimated complex gain of element v is z_v = mu_v + n_v: its true
value plus a circular complex Gaussian error.  The orthogonal scheme has
equal, uncorrelated errors; the cyclic-shift scheme gets each error's
variance and its correlation with the reference element's error from
the matched-filter window overlap and the equalizer (``NoiseStats``).

Two predictions of the gain and phase mismatch RMSEs follow from these
statistics.  ``theory_point`` evaluates the error model exactly, by
deterministic quadrature over the density of z_v / z_1; this is what
reports print.  Two product rules share that quadrature.  In the
high-SNR regime (both var / amp^2 at most GH_MAX_SNR_INV and |rho| at
most GH_MAX_RHO) the log-ratio is close to Gaussian, and a Gauss-Hermite
rule per axis reaches 1e-9 relative; the GH_NODES table sets its node
count by the element's larger var / amp^2, from 10 nodes (100 density
cells) at 3e-4 or less to 24 (576 cells) at the regime's bound.  Every
other element, the V = L elements of the cyclic-shift scheme among
them, gets a QUAD_NODES-point Gauss-Legendre rule on a sinh-mapped
window.  The QUAD_* and GH_* constants below are the only way to set
these rules, and every call reads them.
``closed_form_point`` (``gain_rmse_theory`` and ``phase_rmse_theory`` per
element) is the paper's closed form, a high-SNR expansion of the same
model.  For equal, uncorrelated errors it falls 0.04% short of the exact
value at amplitude^2/variance = 30 dB, 0.4% at 20 dB and 3-5% at 10 dB;
far outside that regime it has no answer at all (``NegativeRadicand``).
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, NegativeRadicand

DB_PER_NEPER = 10.0 / np.log(10.0)
DEG_PER_RAD = 180.0 / np.pi
# Quadrature of the exact prediction: Gauss-Legendre nodes per axis, the
# window's least half-width in first-order standard deviations, and the
# share of E[u^2] (in units of sd^2) its heavy tail may leave out.
QUAD_NODES = 40
QUAD_WIDTH = 9.0
QUAD_TAIL = 1e-8
# Elements with max(t1, tv) <= GH_MAX_SNR_INV and |rho| <= GH_MAX_RHO
# (t = var / amp^2) use a Gauss-Hermite rule per axis instead; within 1e-9
# relative there, where a |rho| bound of 0.9 would reach 1.4e-8.  GH_NODES
# gives its node count: row (bound, nodes) serves the elements whose
# max(t1, tv) lies above the previous row's bound and at most its own, and
# two nodes fewer would miss 1e-9 at that bound.
GH_MAX_SNR_INV = 0.01
GH_MAX_RHO = 0.75
GH_NODES = ((3e-4, 10), (1e-3, 12), (2e-3, 14), (3e-3, 16), (5e-3, 18), (GH_MAX_SNR_INV, 24))
# Elements per block of the quadrature: each of its three (block, nodes,
# nodes) float64 temporaries stays at or below this many bytes.
_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class NoiseStats:
    """Per-element error variances and correlation of each error with element 1's.

    ``variances`` has one entry per element; ``correlations`` has one
    entry per non-reference element (v = 2..V), each in [-1, 1].
    """

    variances: np.ndarray
    correlations: np.ndarray

    def __post_init__(self):
        var = np.asarray(self.variances, dtype=np.float64)
        rho = np.asarray(self.correlations, dtype=np.float64)
        if var.ndim != 1 or rho.shape != (max(var.size - 1, 0),):
            raise DimensionError("need V variances and V-1 correlations")
        if np.any(var < 0):
            raise DimensionError("variances must be nonnegative")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise DimensionError("correlation coefficients cannot exceed 1 in magnitude")
        object.__setattr__(self, "variances", var)
        object.__setattr__(self, "correlations", np.clip(rho, -1.0, 1.0))

    @property
    def n_elements(self):
        return self.variances.size


@dataclass(frozen=True)
class TheoryPoint:
    """Predicted per-element mismatch RMSEs for elements 2..V."""

    gain_rmse_db: np.ndarray
    phase_rmse_deg: np.ndarray


def oma_noise_stats(noise_var, n_elements):
    """Orthogonal codes pass the receiver noise through unchanged and uncorrelated."""
    if noise_var < 0:
        raise DimensionError("noise variance must be nonnegative")
    return NoiseStats(
        variances=np.full(n_elements, float(noise_var)),
        correlations=np.zeros(max(n_elements - 1, 0)),
    )


def csms_peak_noise_cov(code, n_elements, noise_var):
    """Covariance of the raw correlation-peak noise at shifts 0, 1, ..., V-1.

    Element v sits at shift v, the only layout, so adjacent peak windows
    share all but one sample of the noise stream and entry (y, z) is
    noise_var times the code's aperiodic autocorrelation at lag |z - y|.
    """
    code = np.asarray(code)
    if n_elements > code.size:
        raise DimensionError(f"{n_elements} elements exceed code length {code.size}")
    lags = np.correlate(code, code, "full")[code.size - 1:code.size - 1 + n_elements]
    lags = float(noise_var) * np.concatenate((lags[:0:-1], lags))
    # Over lags V-1, ..., 1, 0, 1, ..., V-1, row y starts y before lag 0, so entry z is
    # lag |z - y|; the C-ordered copy keeps csms_gain_noise_stats' sums in their order.
    step = lags.itemsize
    return as_strided(lags[n_elements - 1:], (n_elements, n_elements), (-step, step)).copy()


def csms_gain_noise_stats(eq, peak_cov):
    """Error statistics after the equalizer: variances and reference correlations.

    The equalizer's inverse is c*11^T + d*I, with c = ``cross_coeff`` and
    d = ``diag_coeff - cross_coeff``, so the propagated covariance
    inv @ P @ inv needs only the row sums r, column sums k and total s
    of the peak covariance P:

        var_v     = d^2 P_vv + d c (r_v + k_v) + c^2 s
        cov(v, 1) = d^2 P_v1 + d c (r_v + k_1) + c^2 s

    Reductions and elementwise arithmetic only, with no matrix product,
    so the result does not depend on the BLAS or its thread count.
    """
    peak_cov = np.asarray(peak_cov)
    v = eq.n_elements
    if peak_cov.shape != (v, v):
        raise DimensionError(f"covariance shape {peak_cov.shape} != ({v}, {v})")
    c = eq.cross_coeff
    d = eq.diag_coeff - eq.cross_coeff
    rows = peak_cov.sum(axis=1)
    cols = peak_cov.sum(axis=0)
    shared = c * c * rows.sum()
    variances = d * d * np.diagonal(peak_cov) + d * c * (rows + cols) + shared
    ref_cov = d * d * peak_cov[1:, 0] + d * c * (rows[1:] + cols[0]) + shared
    scale = np.sqrt(variances[1:] * variances[0])
    correlations = np.divide(ref_cov, scale, out=np.zeros(v - 1), where=scale > 0)
    return NoiseStats(variances=variances, correlations=correlations)


def gain_rmse_theory(amp_v, amp_1, var_v, var_1, rho, phase_v=0.0, phase_1=0.0):
    """Predicted RMSE (dB) of one element's gain-mismatch estimate.

    Treats the squared normalized magnitudes as correlated Gaussians
    (their exact means and variances) and expands the log of their
    ratio; accurate when both amp^2/var ratios are large.
    """
    snr_inv_1 = var_1 / amp_1**2
    snr_inv_v = var_v / amp_v**2
    mu_1 = snr_inv_1 + 1.0
    mu_v = snr_inv_v + 1.0
    s1_sq = snr_inv_1**2 + 2.0 * snr_inv_1
    sv_sq = snr_inv_v**2 + 2.0 * snr_inv_v
    cosine = np.cos(phase_1 - phase_v)
    cross = rho * np.sqrt(var_1 * var_v) / (amp_1 * amp_v)
    # Covariance of the two squared normalized magnitudes (the correlation
    # coefficient times both standard deviations, kept as a product so the
    # zero-noise limit stays finite).
    sq_mag_cov = (1.0 + snr_inv_1 + snr_inv_v
                  + 2.0 * cross * cosine
                  + snr_inv_1 * snr_inv_v * (0.5 + 0.625 * rho**2)
                  - mu_1 * mu_v)
    bias = mu_v / mu_1 + s1_sq * mu_v / mu_1**3 - sq_mag_cov / mu_1**2 - 1.0
    variance = (s1_sq * mu_v**2 / mu_1**4 + sv_sq / mu_1**2
                - 2.0 * sq_mag_cov * mu_v / mu_1**3)
    return DB_PER_NEPER * np.sqrt(variance + bias**2)


def phase_rmse_theory(amp_v, amp_1, phase_v, phase_1, var_v, var_1, rho):
    """Predicted RMSE (degrees) of one element's phase-mismatch estimate.

    Raises ``NegativeRadicand`` when the correlation term overwhelms the
    variance terms (for any element, given arrays), which only happens far
    outside the high-SNR regime.
    """
    cosine = np.cos(phase_1 - phase_v)
    cross = rho * np.sqrt(var_1 * var_v) * cosine
    radicand = (var_v / (2.0 * amp_v**2) + var_1 / (2.0 * amp_1**2)
                - 2.0 * cross / (2.0 * amp_v * amp_1 + cross))
    if np.any(radicand < 0):
        raise NegativeRadicand(
            f"phase error variance {np.min(radicand)} < 0: inputs outside the model's regime")
    return DEG_PER_RAD * np.sqrt(radicand)


def _check_point(gains, stats):
    if len(gains) != stats.n_elements:
        raise DimensionError(f"{len(gains)} gains for {stats.n_elements} noise entries")
    if len(gains) < 2:
        raise DimensionError("need at least two elements")


def closed_form_point(gains, stats):
    """Closed-form (high-SNR) RMSE predictions for elements 2..V.

    Evaluates ``gain_rmse_theory`` and ``phase_rmse_theory`` on the element
    arrays; raises ``NegativeRadicand`` outside the expansion's regime.
    """
    _check_point(gains, stats)
    amp, phs, var, rho = gains.amplitudes, gains.phases, stats.variances, stats.correlations
    return TheoryPoint(
        gain_rmse_db=gain_rmse_theory(amp[1:], amp[0], var[1:], var[0], rho, phs[1:], phs[0]),
        phase_rmse_deg=phase_rmse_theory(amp[1:], amp[0], phs[1:], phs[0], var[1:], var[0], rho))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    numpy's rule, imported here as ``_gauss_hermite`` imports its own.
    """
    from numpy.polynomial.legendre import leggauss
    return leggauss(n)


@functools.lru_cache(maxsize=None)
def _gauss_hermite(n):
    """Nodes (ascending) and weights of the n-point Gauss-Hermite rule, weight exp(-y^2).

    numpy's Golub-Welsch rule, imported here so that importing arraycal stays light.
    """
    from numpy.polynomial.hermite import hermgauss
    return hermgauss(n)


def _sinh_rule(scale, reach, nodes):
    """Per-row Gauss-Legendre rule on [-reach, reach], mapped by y = scale*sinh(k*x).

    The map keeps nodes about ``scale`` apart near 0 and spreads them
    out towards ``reach``; rows are elements.  Returns (nodes, weights).
    """
    x, w = _gauss_legendre(nodes)
    k = np.arcsinh(reach / scale)[:, None]
    return scale[:, None] * np.sinh(k * x), scale[:, None] * k * np.cosh(k * x) * w


def _product_rules(t1, tv, rho, m):
    """The quadrature's product rules and the elements each one integrates.

    Yields (rows, step, rule) for each Gauss-Hermite node count of
    GH_NODES, ascending, then for the sinh rule: the indices of the live
    elements (m != 0) on it, how many of them one chunk of _CHUNK_BYTES
    holds, and a function that returns (u, wu, theta, wt), each of shape
    (len(i), nodes), for the elements i.  Elements with max(t1, tv) <=
    GH_MAX_SNR_INV and |rho| <= GH_MAX_RHO get a Gauss-Hermite rule, with
    the nodes of the first GH_NODES row whose bound is at least max(t1,
    tv), or of the last row if none is.  Reads the constants per call.
    """
    live = m != 0  # NaN stays NaN
    snr_inv = np.maximum(t1, tv)
    near_gaussian = live & (snr_inv <= GH_MAX_SNR_INV) & (np.abs(rho) <= GH_MAX_RHO)
    bounds, counts = zip(*GH_NODES)
    row = np.minimum(np.searchsorted(bounds, snr_inv), len(bounds) - 1)

    def hermite(nodes, i):
        # Nodes sqrt(2) sd y and weights sqrt(2) sd w exp(y^2) integrate the
        # density itself, so it runs through the same loop as the sinh rule's.
        y, w = _gauss_hermite(nodes)
        scale = np.sqrt(2.0) * np.sqrt(m[i] / 2.0)[:, None]
        u, wu = scale * y, scale * (w * np.exp(y * y))
        return u, wu, u, wu.copy()

    def sinh(i):
        # Scale and reach stop at pure noise's sd, pi/sqrt(12), and at the u where
        # its density 1/(2 cosh^2 u) falls below double precision of its peak.
        sd = np.sqrt(m[i] / 2.0)
        scale = np.minimum(sd, np.pi / np.sqrt(12.0))
        reach = np.minimum(
            np.maximum(QUAD_WIDTH * sd, _tail_reach(sd, np.maximum(t1[i], tv[i]), QUAD_TAIL)),
            np.arccosh(np.finfo(float).eps ** -0.5))
        return (*_sinh_rule(scale, reach, QUAD_NODES),
                *_sinh_rule(scale, np.minimum(reach, np.pi), QUAD_NODES))

    def step(nodes):
        return max(1, _CHUNK_BYTES // (8 * nodes * nodes))

    for k, nodes in enumerate(counts):
        yield (np.flatnonzero(near_gaussian & (row == k)), step(nodes),
               functools.partial(hermite, nodes))
    yield np.flatnonzero(live & ~near_gaussian), step(QUAD_NODES), sinh


def log_ratio_moments(snr_inv_1, snr_inv_v, rho, dphi):
    """E[u], E[u^2] and E[theta^2] of the log-ratio error, by quadrature.

    With z = mu + n as in the module docstring, u + i*theta is
    log(z_v / z_1) - log(mu_v / mu_1), theta taken in [-pi, pi).  The
    inputs broadcast over elements: normalized error variances
    var / amp^2 of both elements, the correlation ``rho`` of the two
    errors and the phase difference ``phase_v - phase_1``.  Returns an
    array of shape (3, n_elements); a noise-free element gives zeros.

    The ratio's density is elementary: with Q the inverse error
    covariance, h = (1, r), a = h^H Q h and b = h^H Q mu it is
    (1 + |b|^2/a) exp(|b|^2/a - mu^H Q mu) / (pi det(Sigma) a^2), used
    below in a form that stays finite at |rho| = 1.  A product rule
    integrates it in (u, theta), around the truth at the first-order
    standard deviation sd of u (and of theta).  The module constants
    QUAD_NODES, QUAD_WIDTH, QUAD_TAIL, GH_NODES, GH_MAX_SNR_INV and
    GH_MAX_RHO are the only way to set the rules; each call reads them.

    In the high-SNR regime, max(t1, tv) <= GH_MAX_SNR_INV and |rho| <=
    GH_MAX_RHO, the density is close to a Gaussian of that sd and an n x n
    Gauss-Hermite rule scaled by sqrt(2) sd fits it: within 1e-9 relative
    of a wide-window reference on E[u^2] and E[theta^2], with n read from
    the GH_NODES table by max(t1, tv) (10 nodes at 3e-4 or less, 24 at
    GH_MAX_SNR_INV).  Its nodes stay within 1.2 rad of the truth, so
    theta needs no wrap.

    Every other element gets a QUAD_NODES x QUAD_NODES Gauss-Legendre
    rule, sinh-mapped around the truth.  The u window reaches QUAD_WIDTH
    * sd, and further where the heavy tail (one of z_1, z_v near zero)
    would still add more than QUAD_TAIL * sd^2 to E[u^2]; the theta
    window is that reach clipped to pi, so the wrap is exact.  At low
    SNR sd grows without bound while u tends to pure noise, of density
    1/(2 cosh^2 u), E[u^2] = pi^2/12 and E[theta^2] = pi^2/3: the map's
    scale stops at that sd, pi/sqrt(12), and the window at the 18.7
    nepers beyond which that density is below double precision.  The rule
    resolves u least well as |rho| -> 1 with unequal variances, where
    the density has a zero between its core and its tail (t1 = 0.1, tv
    = 0.2, rho = 1: E[u^2] is 1% high at 40 nodes, within 3e-5 at 96);
    such inputs need a larger QUAD_NODES.
    """
    t1, tv, rho, dphi = (np.ravel(a).astype(np.float64)
                         for a in np.broadcast_arrays(snr_inv_1, snr_inv_v, rho, dphi))
    # With rho = 0 a finite dphi enters only through terms multiplied by q = 0,
    # so it is set to 0; then each distinct input row is integrated once.  Rows
    # are keyed by their bytes, which sorts several times faster than axis=0.
    dphi = np.where((rho == 0) & np.isfinite(dphi), 0.0, dphi)
    rows = np.stack((t1, tv, rho, dphi), axis=1)
    _, first, inverse = np.unique(rows.view(np.dtype((np.void, 4 * rows.itemsize))).ravel(),
                                  return_index=True, return_inverse=True)
    t1, tv, rho, dphi = np.ascontiguousarray(rows[first].T)
    # Work with the normalized errors n_1/mu_1 and n_v/mu_v: unit means,
    # cross-covariance kappa = rho*sqrt(t1*tv)*exp(-i*dphi).  For
    # r = exp(u + i*theta), with A = det(Sigma) a and m = mu^H adj(Sigma) mu,
    # the density in r is (det(Sigma) (1 - e) + m) exp(-e) / (pi A^2),
    # where e = |1 - r|^2 / A.  A = |p exp(i phase) - rho sqrt(tv)|^2 +
    # (1 - rho^2) tv, with p = sqrt(t1) e^u and phase = theta + dphi, is
    # evaluated without cancellation as (p - q)^2 + floor + 4 p q bend
    # (q = |rho| sqrt(tv)); m is A at r = 1, and m = 2 sd^2.
    out = np.zeros((3, t1.size))
    root_1, q, floor, m = _area_terms(t1, tv, rho, dphi)
    elements = (t1, rho, dphi, root_1, q, floor, m)
    for rows, step, rule in _product_rules(t1, tv, rho, m):
        if not rows.size:
            continue
        # Per-element and per-node factors once; only the (chunk, nodes, nodes) density
        # is chunked.
        u, wu, theta, wt = rule(rows)
        t1, rho, dphi, root_1, q, floor, m = (a[rows] for a in elements)
        det = t1 * floor
        exp_u = np.exp(u)
        p = root_1[:, None] * exp_u
        cross = 4.0 * p * q[:, None]
        bend = _bend(theta + dphi[:, None], rho[:, None])
        core = (p - q[:, None]) ** 2 + floor[:, None]
        # |1 - r|^2 = (e^u - 1)^2 + 4 e^u sin^2(theta/2), free of cancellation
        four_exp_u, expm1_sq = 4.0 * exp_u, np.expm1(u) ** 2
        sin_sq = np.sin(theta / 2.0) ** 2
        # Jacobian e^{2u} of r -> (u, theta), and the 1/pi of the density.
        wu *= exp_u * exp_u / np.pi
        for lo in range(0, rows.size, step):
            i = slice(lo, lo + step)
            area = cross[i, :, None] * bend[i, None, :]
            area += core[i, :, None]
            e = four_exp_u[i, :, None] * sin_sq[i, None, :]
            e += expm1_sq[i, :, None]
            e /= area
            dens = np.negative(e)
            np.exp(dens, out=dens)
            e *= -det[i, None, None]
            e += (det + m)[i, None, None]
            dens *= e
            dens /= area  # twice: area^2 overflows at the low-SNR edge
            dens /= area
            pu = np.matmul(dens, wt[i, :, None])[:, :, 0] * wu[i]
            pt = np.matmul(wu[i, None, :], dens)[:, 0, :] * wt[i]
            out[:, rows[i]] = ((pu * u[i]).sum(axis=1), (pu * u[i] * u[i]).sum(axis=1),
                               (pt * theta[i] * theta[i]).sum(axis=1))
    return out[:, inverse]


def _area_terms(t1, tv, rho, dphi):
    """sqrt(t1), q = |rho| sqrt(tv), floor = (1 - rho^2) tv, and m = A(r = 1)."""
    root_1 = np.sqrt(t1)
    q = np.abs(rho) * np.sqrt(tv)
    floor = (1.0 - rho * rho) * tv
    return root_1, q, floor, (root_1 - q) ** 2 + floor + 4.0 * root_1 * q * _bend(dphi, rho)


def _bend(angle, rho):
    """(1 - cos(angle)) / 2, or (1 + cos(angle)) / 2 where rho < 0."""
    return np.where(rho < 0, np.cos(angle / 2.0), np.sin(angle / 2.0)) ** 2


def _tail_reach(sd, snr_inv, tail):
    """Where the log-ratio's heavy tail stops mattering; 0 where it never does.

    A normalized estimate falls within eps of zero with probability
    about eps^2 exp(-1/t) / t, which puts mass ~ exp(-2U) exp(-1/t) / t
    beyond |u| = U.  Solves U^2 exp(-2U) exp(-1/t) / t = tail * sd^2.
    """
    with np.errstate(divide="ignore", over="ignore"):
        level = np.log(tail * sd * sd * snr_inv) + 1.0 / snr_inv
    reach = np.maximum(1.0 - level / 2.0, 1.0)
    for _ in range(3):
        reach = np.maximum(np.log(reach) - level / 2.0, 1.0)
    return np.where(level < 0, reach, 0.0)


def theory_point(gains, stats):
    """Per-element RMSE predictions for elements 2..V under the Gaussian error model.

    Each estimate is z = mu + n with n circular complex Gaussian, of the
    variances and reference correlations in ``stats``.  Returns the exact
    gain RMSE sqrt(E[(20 log10|z_v/z_1| - 20 log10(a_v/a_1))^2]) in dB and
    phase RMSE sqrt(E[wrap(angle z_v - angle z_1 - (phi_v - phi_1))^2]) in
    degrees, evaluated by deterministic quadrature (``log_ratio_moments``;
    numpy only, no random draws): a Gauss-Hermite rule for elements in
    the high-SNR regime, a sinh-mapped Gauss-Legendre rule for the rest.
    Over the fig5 and fig7 grids (seed 1729) each element's value is
    within 3.9e-4 relative of a 96-node sinh rule with a 1e-12 tail, the
    largest gap a phase at L = V = 511.  A noise-free element gives exactly 0.
    """
    _check_point(gains, stats)
    amp, phs, var = gains.amplitudes, gains.phases, stats.variances
    moments = log_ratio_moments(var[0] / amp[0] ** 2, var[1:] / amp[1:] ** 2,
                                stats.correlations, phs[1:] - phs[0])
    return TheoryPoint(gain_rmse_db=2.0 * DB_PER_NEPER * np.sqrt(moments[1]),
                       phase_rmse_deg=DEG_PER_RAD * np.sqrt(moments[2]))


def average_rmse(values):
    """Element-averaged RMSE: plain mean of the per-element RMSE values."""
    values = np.asarray(values)
    if values.size < 1:
        raise DimensionError("nothing to average")
    return float(np.mean(values))
