"""Jump measures, noise sampling, and the stochastic coefficient families.

Marks are scalar reals; a jump measure is kept finite by construction
(compound Gaussian, or a power law truncated away from 0 and infinity), so
jump times form a Poisson process of rate ``total_mass`` and marks are
i.i.d. from the normalized measure.  The Wiener driver is truncated to
finitely many directions with one increment per grid step.

Coefficient families act linearly through the mark:

* ``additive``   G(v,z) = z * sigma        (per mode, state independent)
* ``diagonal``   G(v,z) = z * sigma_j v_j
* ``gradient``   G(v,z) = z * theta * kappa_j v_j, with kappa_j the
  derivative-order weight sqrt(lambda_j / visc)

and analogously for the Wiener coefficient.  ``family``, the one reader of
a kind, stores each as (a, d, theta): a = sigma for ``additive``, d = sigma
for ``diagonal``, theta for ``gradient``.  ``build_coefficients`` stores
the pair once in the diagonal-affine normal form

    G(v,z) = z * (a_g + d_g * v),    Psi(v) dW = (a_w + d_w * v) * dW

(elementwise, the Wiener part on the first ``wiener_dims`` modes), where
d_g and d_w are d + theta * kappa of their family.  Because G is linear in
z, the jumps of one step act through the per-step mark sums alone.

Certified Lipschitz/growth constants L1..L5 follow from (a, d, theta): a is
charged to L3, d to the H-norm weights L1, L4 and theta to the V-norm
weights L2, L5, which do not grow with the Galerkin truncation.  L2 and L5
must stay strictly below 2 or construction fails, since twice the
dissipation is all the energy balance can absorb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spaces import SpectralBasis


class GrowthConditionError(ValueError):
    """The V-norm weights L2/L5 left the admissible range [0, 2)."""


# ---------------------------------------------------------------------------
# jump measures


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Finite jump-intensity measure on the real marks, with moments.

    Each constructor below describes its measure once: ``sample_marks(rng, n)``
    draws n marks from the normalized measure, and ``quadrature()`` returns
    nodes and weights with integral h dnu ~= sum w_i h(z_i), built on call.
    """

    family: str
    total_mass: float
    m1: float   # integral of z
    m2: float   # integral of z^2
    sample_marks: Callable[[np.random.Generator, int], np.ndarray]
    quadrature: Callable[[], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.total_mass, self.m1, self.m2))):
            raise ValueError(f"{self.family} measure needs a finite mass, m1 and m2, got "
                             f"{self.total_mass:.3g}, {self.m1:.3g}, {self.m2:.3g}")


def compound_gaussian(rate: float, mean: float = 0.0, sd: float = 1.0) -> LevyMeasureSpec:
    if rate < 0 or sd < 0:
        raise ValueError("rate and sd must be nonnegative")
    rate, mean, sd = float(rate), float(mean), float(sd)

    def quadrature():
        x, w = np.polynomial.hermite.hermgauss(64)
        return mean + np.sqrt(2.0) * sd * x, rate * w / np.sqrt(np.pi)

    return LevyMeasureSpec(family="compound_gaussian", total_mass=rate, m1=rate * mean,
                           m2=rate * (mean * mean + sd * sd),
                           sample_marks=lambda rng, n: rng.normal(mean, sd, size=n),
                           quadrature=quadrature)


def truncated_power(c: float, alpha: float, eps_low: float, r_max: float) -> LevyMeasureSpec:
    """Symmetric two-sided density c |z|^(-1-alpha) on eps_low <= |z| <= r_max."""
    if not (0.0 < eps_low < r_max):
        raise ValueError("need 0 < eps_low < r_max")
    if c <= 0 or alpha <= 0:
        raise ValueError("c and alpha must be positive")
    c, alpha, lo, hi = float(c), float(alpha), float(eps_low), float(r_max)
    try:
        mass = 2.0 * c * (lo ** -alpha - hi ** -alpha) / alpha
        if alpha == 2.0:
            m2 = 2.0 * c * np.log(hi / lo)
        else:
            m2 = 2.0 * c * (hi ** (2.0 - alpha) - lo ** (2.0 - alpha)) / (2.0 - alpha)
    except OverflowError:
        raise ValueError("truncated_power mass or moment overflows") from None

    def sample_marks(rng, n):
        # inverse CDF of one side, then a fair sign
        u = rng.random(n)
        mag = (lo ** -alpha - u * (lo ** -alpha - hi ** -alpha)) ** (-1.0 / alpha)
        return np.where(rng.random(n) < 0.5, -1.0, 1.0) * mag

    def quadrature():
        x, w = np.polynomial.legendre.leggauss(96)
        z = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        wz = 0.5 * (hi - lo) * w * c * z ** (-1.0 - alpha)
        return np.concatenate([-z[::-1], z]), np.concatenate([wz[::-1], wz])

    return LevyMeasureSpec(family="truncated_power", total_mass=float(mass), m1=0.0,
                           m2=float(m2), sample_marks=sample_marks, quadrature=quadrature)


def no_jumps() -> LevyMeasureSpec:
    return LevyMeasureSpec(family="none", total_mass=0.0, m1=0.0, m2=0.0,
                           sample_marks=lambda rng, n: np.zeros(n),
                           quadrature=lambda: (np.zeros(0), np.zeros(0)))


@dataclass(frozen=True)
class WienerDriverSpec:
    """Number of retained Wiener directions; 0 disables the Wiener part."""

    dims: int = 0

    def __post_init__(self):
        if self.dims < 0:
            raise ValueError("dims must be nonnegative")


# ---------------------------------------------------------------------------
# coefficient families


class UnknownFamilyError(ValueError):
    """A coefficient family kind that ``family`` does not know."""


@dataclass(frozen=True)
class CoefficientFamily:
    """G(v, z) = z * (a + d * v + theta * kappa * v), kappa_j = sqrt(lambda_j / visc)."""

    a: np.ndarray    # additive, one value per mode
    d: np.ndarray    # diagonal, charged to the H norm
    theta: float     # weight of kappa, charged to the V norm


def _read_only(x: np.ndarray) -> np.ndarray:
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x


def family(kind: str, n_modes: int, sigma=None, theta: float = 0.0) -> CoefficientFamily:
    """Build a family of kind none | additive | diagonal | gradient in (a, d, theta).

    A scalar sigma is broadcast across all modes; only ``gradient`` reads theta.
    """
    zero = _read_only(np.zeros(n_modes))
    if kind == "none":
        return CoefficientFamily(zero, zero, 0.0)
    if kind == "gradient":
        return CoefficientFamily(zero, zero, float(theta))
    if kind not in ("additive", "diagonal"):
        raise UnknownFamilyError(f"unknown coefficient family {kind!r}")
    if sigma is None:
        raise ValueError(f"{kind} family needs sigma")
    sig = np.asarray(sigma, dtype=float)
    if sig.shape not in ((), (n_modes,)):
        raise ValueError("sigma must be scalar or one value per mode")
    sig = _read_only(np.full(n_modes, sig) if sig.ndim == 0 else sig)
    if kind == "additive":
        return CoefficientFamily(sig, zero, 0.0)
    return CoefficientFamily(zero, sig, 0.0)


@dataclass(frozen=True)
class CoefficientSpec:
    """Jump and Wiener coefficient maps in normal form, with certified constants."""

    # G(v, z) = z * (a_g + d_g * v) and, on the first wiener_dims modes,
    # Psi(v) dW = (a_w + d_w * v) * dW
    a_g: np.ndarray
    d_g: np.ndarray
    a_w: np.ndarray               # wiener_dims entries
    d_w: np.ndarray               # wiener_dims entries
    wiener_dims: int
    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    forcing: np.ndarray           # constant dual-coordinate vector

    @property
    def constants(self) -> tuple[float, float, float, float, float]:
        return (self.l1, self.l2, self.l3, self.l4, self.l5)


def certify_constants(g: CoefficientFamily, psi: CoefficientFamily,
                      measure: LevyMeasureSpec, basis: SpectralBasis,
                      visc: float, wiener_dims: int) -> tuple[float, ...]:
    """Closed-form Lipschitz/growth constants of two families.

    Raises GrowthConditionError when a V-norm weight reaches 2.
    """
    l1 = l2 = l3 = l4 = l5 = 0.0
    # the jumps weigh by the mark moment m2, the Wiener part acts on its modes
    for fam, weight, modes in ((g, measure.m2, None),
                               (psi, 1.0, min(wiener_dims, basis.dim))):
        a, d = fam.a[:modes], fam.d[:modes]
        l3 += weight * float(np.dot(a, a))
        peak = weight * float((d * d).max(initial=0.0))
        l1 += peak
        l4 += peak
        l2 += fam.theta * fam.theta * weight / visc
        l5 += fam.theta * fam.theta * weight / visc

    if l2 >= 2.0 or l5 >= 2.0:
        raise GrowthConditionError(
            "V-norm noise weights must lie in [0, 2): "
            f"got L2={l2:.6g}, L5={l5:.6g}")
    return (l1, l2, l3, l4, l5)


def build_coefficients(g: CoefficientFamily, psi: CoefficientFamily,
                       measure: LevyMeasureSpec, basis: SpectralBasis,
                       visc: float, wiener: WienerDriverSpec = WienerDriverSpec(0),
                       forcing: np.ndarray | None = None) -> CoefficientSpec:
    l1, l2, l3, l4, l5 = certify_constants(g, psi, measure, basis, visc, wiener.dims)
    if forcing is None:
        forcing = np.zeros(basis.dim)
    forcing = np.asarray(forcing, dtype=float)
    if forcing.shape != (basis.dim,):
        raise ValueError("forcing must be one dual coordinate per mode")
    kappa = np.sqrt(basis.eigenvalues / visc)
    dims = min(wiener.dims, basis.dim)
    a_g, d_g = g.a, g.d + g.theta * kappa
    a_w, d_w = psi.a[:dims], (psi.d + psi.theta * kappa)[:dims]
    a_g, d_g, a_w, d_w, forcing = (_read_only(x) for x in (a_g, d_g, a_w, d_w, forcing))
    return CoefficientSpec(a_g=a_g, d_g=d_g, a_w=a_w, d_w=d_w, wiener_dims=dims,
                           l1=l1, l2=l2, l3=l3, l4=l4, l5=l5, forcing=forcing)


def jump_coefficient(coeff: CoefficientSpec, v: np.ndarray, z) -> np.ndarray:
    """G(v, z); broadcasts over leading axes of v (and of z)."""
    return z * (coeff.a_g + coeff.d_g * v)


def wiener_apply(coeff: CoefficientSpec, v: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Psi(v) applied to an increment vector of at least wiener_dims entries."""
    d = coeff.wiener_dims
    out = np.zeros_like(v, dtype=float)
    out[..., :d] = (coeff.a_w + coeff.d_w * v[..., :d]) * dw[..., :d]
    return out


def psi_hs_norm_sq(coeff: CoefficientSpec, v: np.ndarray) -> float | np.ndarray:
    """Squared Hilbert-Schmidt norm of Psi(v); broadcasts over leading axes of v."""
    col = coeff.a_w + coeff.d_w * v[..., :coeff.wiener_dims]
    return np.einsum("...j,...j->...", col, col)


def compensator_drift(coeff: CoefficientSpec, v: np.ndarray,
                      measure: LevyMeasureSpec) -> np.ndarray:
    """integral of G(v, z) dnu = G(v, m1), the drift making jump sums compensated."""
    return jump_coefficient(coeff, v, measure.m1)


# ---------------------------------------------------------------------------
# empirical certification


_RATIO_ROUNDOFF = 1e-9   # allowance when a family saturates its constant exactly


@dataclass(frozen=True)
class NoiseConditionReport:
    n_samples: int
    max_ratio_lipschitz: float
    max_ratio_growth: float

    @property
    def ok(self) -> bool:
        return (self.max_ratio_lipschitz <= 1.0 + _RATIO_ROUNDOFF
                and self.max_ratio_growth <= 1.0 + _RATIO_ROUNDOFF)


def condition_report(coeff: CoefficientSpec, measure: LevyMeasureSpec,
                     basis: SpectralBasis, n_samples: int = 2000,
                     seed: int = 0) -> NoiseConditionReport:
    """Check the declared constants against direct quadrature over the measure.

    For random state pairs the Lipschitz and growth left-hand sides are
    integrated numerically over the jump measure and compared with the
    right-hand sides built from the certified constants; the worst ratio is
    reported.  Single-mode probes (first and last mode) are included since
    they maximize the gradient family.
    """
    lam = basis.eigenvalues
    dim = basis.dim
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal((n_samples, dim))
    v2 = rng.standard_normal((n_samples, dim))
    probes = np.zeros((4, dim))
    probes[0, 0] = 1.0
    probes[1, -1] = 1.0
    probes[3, -1] = 2.0
    v1 = np.vstack([v1, probes])
    v2 = np.vstack([v2, np.roll(probes, 1, axis=0)])

    # G is linear in z, so integral |G(v, z)|^2 dnu = m2 |G(v, 1)|^2, with m2
    # integrated by quadrature over the measure
    zs, ws = measure.quadrature()
    m2 = float(np.dot(ws, zs * zs))
    g1 = jump_coefficient(coeff, v1, 1.0)
    g_diff = g1 - jump_coefficient(coeff, v2, 1.0)

    d = v1 - v2
    h_sq = np.einsum("ij,ij->i", d, d)
    v_sq = (d * d) @ lam
    psi_diff = coeff.d_w * d[:, :coeff.wiener_dims]
    lhs1 = (np.einsum("ij,ij->i", psi_diff, psi_diff)
            + m2 * np.einsum("ij,ij->i", g_diff, g_diff))
    rhs1 = coeff.l1 * h_sq + coeff.l2 * v_sq
    ratio1 = _safe_ratio(lhs1, rhs1)

    h1_sq = np.einsum("ij,ij->i", v1, v1)
    v1_sq = (v1 * v1) @ lam
    lhs2 = psi_hs_norm_sq(coeff, v1) + m2 * np.einsum("ij,ij->i", g1, g1)
    rhs2 = coeff.l3 + coeff.l4 * h1_sq + coeff.l5 * v1_sq
    ratio2 = _safe_ratio(lhs2, rhs2)

    return NoiseConditionReport(
        n_samples=int(v1.shape[0]),
        max_ratio_lipschitz=float(ratio1.max()) if ratio1.size else 0.0,
        max_ratio_growth=float(ratio2.max()) if ratio2.size else 0.0,
    )


def _safe_ratio(lhs, rhs):
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    out = np.zeros_like(lhs)
    pos = lhs > 0
    out[pos] = lhs[pos] / np.where(rhs[pos] > 0, rhs[pos], np.inf)
    return out


# ---------------------------------------------------------------------------
# realizations


@dataclass(frozen=True)
class NoiseRealization:
    """Frozen Wiener increments and jump list on a uniform grid.

    ``mark_sums[k]`` and ``mark_sq_sums[k]`` are the sums of z and z^2 over
    the jumps of step k; they are derived from the jump list, so every
    realization, sliced or coarsened, carries its own.
    """

    t0: float
    dt: float
    wiener: np.ndarray        # (n_steps, dims)
    jump_times: np.ndarray    # sorted, strictly inside (t0, t0 + T]
    jump_marks: np.ndarray
    jump_steps: np.ndarray    # step index owning each jump
    seed: int
    mark_sums: np.ndarray = field(init=False, repr=False)
    mark_sq_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        steps = self.jump_steps
        if not len(self.jump_times) == len(self.jump_marks) == len(steps):
            raise ValueError("jump_times, jump_marks and jump_steps differ in length")
        if len(steps) and not 0 <= steps.min() <= steps.max() < self.n_steps:
            raise ValueError(f"jump steps must lie in [0, {self.n_steps})")

        def per_step(w):
            return np.bincount(self.jump_steps, w, minlength=self.n_steps).astype(float)

        object.__setattr__(self, "mark_sums", per_step(self.jump_marks))
        object.__setattr__(self, "mark_sq_sums", per_step(self.jump_marks ** 2))
        for arr in (self.wiener, self.jump_times, self.jump_marks, self.jump_steps,
                    self.mark_sums, self.mark_sq_sums):
            arr.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return self.wiener.shape[0]

    @property
    def dims(self) -> int:
        return self.wiener.shape[1]

    def slice_steps(self, start: int, count: int) -> "NoiseRealization":
        if start < 0 or start + count > self.n_steps:
            raise ValueError("slice outside the realization grid")
        lo, hi = np.searchsorted(self.jump_steps, [start, start + count])
        return NoiseRealization(
            t0=self.t0 + start * self.dt,
            dt=self.dt,
            wiener=self.wiener[start:start + count].copy(),
            jump_times=self.jump_times[lo:hi].copy(),
            jump_marks=self.jump_marks[lo:hi].copy(),
            jump_steps=(self.jump_steps[lo:hi] - start).copy(),
            seed=self.seed,
        )

    def coarsen(self, factor: int) -> "NoiseRealization":
        """Aggregate to a grid coarser by an integer factor (same driving noise)."""
        if self.n_steps % factor != 0:
            raise ValueError("step count must divide by the coarsening factor")
        w = self.wiener.reshape(self.n_steps // factor, factor, self.dims).sum(axis=1)
        return NoiseRealization(
            t0=self.t0,
            dt=self.dt * factor,
            wiener=w,
            jump_times=self.jump_times.copy(),
            jump_marks=self.jump_marks.copy(),
            jump_steps=(self.jump_steps // factor).copy(),
            seed=self.seed,
        )


def sample_realization(t0: float, n_steps: int, dt: float,
                       measure: LevyMeasureSpec, wiener: WienerDriverSpec,
                       seed: int) -> NoiseRealization:
    """Draw one frozen realization; same inputs give a bit-identical result."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    horizon = n_steps * dt
    increments = rng.standard_normal((n_steps, wiener.dims)) * np.sqrt(dt)
    n_jumps = int(rng.poisson(measure.total_mass * horizon))
    times = t0 + horizon * (1.0 - rng.random(n_jumps))
    order = np.argsort(times, kind="stable")
    times = times[order]
    marks = measure.sample_marks(rng, n_jumps)[order]
    steps = np.minimum(np.ceil((times - t0) / dt).astype(int) - 1, n_steps - 1)
    steps = np.maximum(steps, 0)
    return NoiseRealization(t0=float(t0), dt=float(dt), wiener=increments,
                            jump_times=times, jump_marks=marks,
                            jump_steps=steps, seed=int(seed))


def path_seeds(base_seed: int, n_paths: int) -> np.ndarray:
    """Independent per-path seeds derived from one base seed."""
    return np.random.SeedSequence(base_seed).generate_state(n_paths, np.uint64)


# ---------------------------------------------------------------------------
# textual export for replay


def write_noise_csv(real: NoiseRealization, f) -> None:
    """Write ``real`` to the text stream ``f`` at 17 significant digits."""
    f.write("# levyflow-noise-v1\n")
    f.write(f"meta,{real.t0:.17g},{real.dt:.17g},{real.n_steps},{real.dims},{real.seed}\n")
    for k in range(real.n_steps):
        row = ",".join(f"{x:.17g}" for x in real.wiener[k])
        f.write(f"W,{k}" + ("," + row if row else "") + "\n")
    for t, z, s in zip(real.jump_times, real.jump_marks, real.jump_steps):
        f.write(f"J,{t:.17g},{z:.17g},{s}\n")


def _finite(text: str) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {text!r}")
    return x


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None


def read_noise_csv(f) -> NoiseRealization:
    """Replay the text stream ``f`` written by ``write_noise_csv``.

    Raises ValueError naming the line for a short or invalid ``meta`` line
    (``dt`` must be positive), a step that is not an integer, a non-finite
    number, an unknown row tag, a W row that is missing, repeated or not
    ``dims`` wide, and a jump outside the step it names or out of time order.
    """
    header = f.readline().strip()
    if header != "# levyflow-noise-v1":
        raise ValueError("line 1: not a noise export file")
    meta = f.readline().strip().split(",")
    try:
        if meta[0] != "meta" or len(meta) != 6:
            raise ValueError("need meta,t0,dt,n_steps,dims,seed")
        t0, dt = _finite(meta[1]), _finite(meta[2])
        n_steps, dims, seed = (_integer(x) for x in meta[3:])
        if not dt > 0 or n_steps < 0 or dims < 0:
            raise ValueError(f"need dt > 0 and counts >= 0, got dt={dt!r}, "
                             f"n_steps={n_steps}, dims={dims}")
    except ValueError as exc:
        raise ValueError(f"line 2: bad meta line: {exc}") from None
    wiener = np.zeros((n_steps, dims))
    seen = np.zeros(n_steps, dtype=bool)
    times, marks, steps = [], [], []
    # rounding allowance for a jump time on the edge of its step
    slack = 1e-9 * (abs(t0) + n_steps * dt)
    lineno = 2
    for lineno, line in enumerate(f, start=3):
        parts = line.strip().split(",")
        try:
            if parts[0] == "W":
                if len(parts) != dims + 2:
                    raise ValueError(f"W row has {len(parts) - 2} values, not {dims}")
                k = _integer(parts[1])
                if not 0 <= k < n_steps or seen[k]:
                    raise ValueError(f"W row for step {k} is repeated "
                                     f"or outside 0..{n_steps - 1}")
                seen[k] = True
                wiener[k] = [_finite(x) for x in parts[2:]]
            elif parts[0] == "J":
                if len(parts) != 4:
                    raise ValueError(f"J row has {len(parts) - 1} values, not 3")
                t, z, k = _finite(parts[1]), _finite(parts[2]), _integer(parts[3])
                lo = t0 + k * dt
                if not (0 <= k < n_steps and lo - slack < t <= lo + dt + slack):
                    raise ValueError(f"jump at t={t!r} does not lie in "
                                     f"its step {k} of 0..{n_steps - 1}")
                if times and (t < times[-1] or k < steps[-1]):
                    raise ValueError(f"jump at t={t!r} is out of time order")
                times.append(t)
                marks.append(z)
                steps.append(k)
            elif parts != [""]:
                raise ValueError(f"unknown row tag {parts[0]!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not seen.all():
        raise ValueError(f"line {lineno}: file ends with no W row for step "
                         f"{int(np.argmin(seen))}")
    return NoiseRealization(t0=t0, dt=dt, wiener=wiener,
                            jump_times=np.array(times), jump_marks=np.array(marks),
                            jump_steps=np.array(steps, dtype=int), seed=seed)
