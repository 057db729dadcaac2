"""Coarse-to-fine robust estimation of the scattering component.

The estimator minimizes, over the scattering field x and per-patch
quadratic coefficients a_k,

    sum_i rho((x_i - xt_i)/sigma)            (data term, Tukey's rho)
    + g1 * sum_k ||U a_k - x_k||^2           (local quadratic prior)
    + g2 * ||F x - x||^2                     (global symmetrical prior)
    + g3 * ||grad x||^2                      (smoothness)

via iteratively reweighted least squares: each outer iteration solves the
weighted quadratic surrogate for x (a linear system), refits the patch
quadratics, and updates the weights from the current residuals with
Tukey's biweight.  Pixels whose weight collapses to zero are exactly the
object region, which is what makes the weight field double as a segmenter.

Two levels run in sequence: a coarse level that takes one residual norm
and one Tukey weight per patch, then a fine level with per-pixel
residuals initialized from the coarse solution.
estimate_scattering solves both on the 2x2 block means of x~
(half_grid_config scales the constants to that grid); full resolution
enters once, when the fine x is copied over each 2x2 block and reweighted
against x~ with the fine level's sigma.  The paper solves both levels at
full resolution.

The gamma constants configured here are the surrogate-scaled ones (the
"primed" constants, gamma' = 2*sigma^2*gamma); the solver derives the
unscaled gammas for objective tracking once sigma is known.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .core import ObjectMask, json_fits, json_kwargs
from .priors import (
    FlipOperator,
    PatchGrid,
    dot,
    gradient_penalty,
    neighbour_sum,
    symmetry_penalty,
)


# Forcing term of the inexact x-steps: after a level's first x-step, CG
# stops once it has cut the warm start's residual tenfold.  A majorize-
# minimize step only has to decrease the surrogate, which every PCG
# iteration from the warm start does (Eisenstat & Walker, "Choosing the
# forcing terms in an inexact Newton method", SISC 1996; Fornasier et al.,
# "Conjugate gradient acceleration of iteratively re-weighted least
# squares methods", COAP 2016).
FORCING = 0.1

MASK_THRESHOLD = 0.5  # a pixel whose final weight lies below it is an object's

# Added to the weights of every solver patch fit: it keeps the weighted fit
# defined when a whole patch is outlier (all its weights 0).
FIT_WEIGHT_FLOOR = 1e-9

# A level stops once one outer iteration changes its objective by less
# than CONVERGENCE_TOL * max(|previous objective|, 1e-12).  The test is
# relative: an objective that decays geometrically toward 0, as a noise-
# free background's can, never fires it and runs to max_outer_iters.
CONVERGENCE_TOL = 1e-4


class SolverError(RuntimeError):
    """Linear solver failed to converge; carries the residual norm."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the robust estimator.

    gamma1..gamma3 are the surrogate-scaled penalty weights; c_coarse and
    c_fine are Tukey tuning constants for the patch-level and pixel-level
    data terms.  patch_grid is the (rows, cols) patch count, each at least
    1.  flip describes the mirror geometry of the camera-illuminator pair
    and is camera-specific.

    linear_solver_tol, in (0, 1), stops the exact x-steps, whose conjugate
    gradients run until the residual norm ||b - A x|| is at most
    linear_solver_tol * max(||b||, ||r0||), r0 being the warm start's
    residual: each level's first x-step, which sets the frozen sigma, and
    solve_wls.  Every later x-step of a level is inexact: it also stops once
    the residual is at most FORCING * ||r0||.  The module constant
    CONVERGENCE_TOL stops the outer loop.
    """

    gamma1: float
    gamma2: float
    gamma3: float
    c_coarse: float
    c_fine: float
    patch_grid: tuple = (4, 4)
    flip: FlipOperator = FlipOperator(flip_row=200, excluded_bottom_rows=24)
    max_outer_iters: int = 50
    linear_solver_tol: float = 1e-6

    def __post_init__(self):
        # json_fits refuses a bool, a string, None, NaN and inf before any comparison
        for name in ("gamma1", "gamma2", "gamma3", "c_coarse", "c_fine"):
            value, tukey = getattr(self, name), name.startswith("c_")
            if not (json_fits(value, "float") and (value > 0 if tukey else value >= 0)):
                raise ValueError(f"{name} must be finite and "
                                 f"{'positive' if tukey else 'non-negative'}, got {value!r}")
        if not (json_fits(self.max_outer_iters, "int") and self.max_outer_iters >= 1):
            raise ValueError("max_outer_iters must be a positive int")
        tol = self.linear_solver_tol  # a relative tolerance of 1 or more accepts every warm start
        if not (json_fits(tol, "float") and 0 < tol < 1):
            raise ValueError(f"linear_solver_tol must lie in (0, 1), got {tol!r}")
        grid = self.patch_grid
        if not (isinstance(grid, tuple) and len(grid) == 2
                and all(json_fits(n, "int") and n >= 1 for n in grid)):
            raise ValueError(f"patch_grid must be two ints, each at least 1, got {grid!r}")
        if not isinstance(self.flip, FlipOperator):
            raise ValueError(f"flip must be a FlipOperator, got {type(self.flip).__name__}")

    def grid_for(self, shape) -> PatchGrid:
        return PatchGrid(shape[0], shape[1], self.patch_grid[0], self.patch_grid[1])

    @classmethod
    def profile(cls, name: str) -> "SolverConfig":
        base = PROFILES.get(name) if isinstance(name, str) else None
        if base is None:
            raise ValueError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")
        return base

    @classmethod
    def from_json(cls, doc) -> "SolverConfig":
        """Build a config from a JSON document of its fields.

        Field names mirror the dataclass; fields without a default are
        required.  A document of the wrong shape, an unknown or missing
        key, or a value of the wrong JSON type raises ValueError naming
        the offending key or type.
        """
        doc = json_kwargs(cls, doc, "solver config")
        if "flip" in doc:
            doc["flip"] = FlipOperator(**json_kwargs(FlipOperator, doc["flip"], "flip"))
        if isinstance(doc.get("patch_grid"), list):
            doc["patch_grid"] = tuple(doc["patch_grid"])
        return cls(**doc)

    def to_dict(self) -> dict:
        """JSON-ready fields; from_json inverts it."""
        return asdict(self)


PROFILES = {
    # Kinect v2 at 16 MHz, 424x512: mirror about row 200, bottom 24 rows
    # carry no symmetry information.
    "amplitude-kinect16": SolverConfig(
        gamma1=0.1, gamma2=0.1, gamma3=10.0, c_coarse=4.0, c_fine=7.0,
    ),
    "phase-kinect16": SolverConfig(
        gamma1=0.01, gamma2=0.1, gamma3=50.0, c_coarse=2.0, c_fine=3.0,
    ),
}


@dataclass
class IrlsState:
    """One optimization level's state, filled as the level runs; summary() records it."""

    # the level's iterate, the scattering field estimate
    x: np.ndarray
    # (K, 6) patch coefficients over the scaled patch basis, as
    # PatchGrid.fit_all returns them and solve_wls takes them
    a: np.ndarray
    # per-pixel IRLS weights in [0, 1]; low weight marks the object region
    w: np.ndarray
    # MAD scale of the first iteration's residuals; None before it
    sigma: float | None = None
    objective_history: list = field(default_factory=list)
    level: str = "coarse"
    cg_iterations: list = field(default_factory=list)
    # each x-step's final residual norm ||r|| / ||b||
    cg_residuals: list = field(default_factory=list)
    # True when the objective test stopped the level, False when it ran
    # max_outer_iters
    converged: bool = False

    @property
    def outer_iterations(self) -> int:
        return len(self.objective_history)

    def summary(self) -> dict:
        """JSON-ready record: every field but the arrays and the level name,
        plus the outer iteration count and the shape of the level's grid."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("x", "a", "w", "level")}
        out["outer_iterations"] = self.outer_iterations
        out["shape"] = list(self.x.shape)
        return out


def tukey_rho(r, c: float):
    """Tukey's biweight loss: bounded at c^2/6 beyond the tuning constant."""
    out = _rho_from_weight(np.asarray(tukey_weight(r, c)), c)
    return out if out.ndim else float(out)


def tukey_weight(r, c: float):
    """IRLS weight rho'(r)/r for Tukey's loss: (1-(r/c)^2)^2, 0 beyond c.

    The closed form is the analytic limit of rho'(r)/r at r=0, so no
    division guard is needed.
    """
    if c <= 0:
        raise ValueError("tuning constant must be positive")
    # s = 1 - min((r/c)^2, 1), then squared, all in one array
    s = np.divide(r, c, out=np.empty(np.shape(r)))
    s *= s
    np.minimum(s, 1.0, out=s)
    np.subtract(1.0, s, out=s)
    s *= s
    return s if s.ndim else float(s)


def _rho_from_weight(w, c: float):
    """Tukey's rho, c^2/6 (1 - s^3), from the weight w = s^2, s = 1 - min((r/c)^2, 1).

    sqrt(w) gives back s exactly unless w is below the normal float range,
    where s^3 is 0 to working precision.
    """
    return (c * c / 6.0) * (1.0 - w * np.sqrt(w))


def mad_scale(residuals, floor: float = 0.0) -> float:
    """Median absolute deviation scale, median(|r|)/0.6745, floored.

    0.6745 makes the estimate consistent for Gaussian residuals.  The floor
    guards the degenerate all-zero case; callers tie it to the data scale.
    The median is np.median's, bit for bit: the same partition, with the
    largest value selected too, so that a NaN, which sorts last, gives NaN,
    and the same mean of the middle one or two values.  np.median's own NaN
    check imports numpy.ma, about 1 MiB, which nothing else here loads.
    """
    magnitudes = np.abs(np.asarray(residuals, dtype=np.float64)).ravel()
    size = magnitudes.size
    if size == 0:
        raise ValueError("residual vector must be non-empty")
    half = size // 2
    kth = [half, -1] if size % 2 else [half - 1, half, -1]
    magnitudes.partition(kth)
    largest = magnitudes[-1]
    median = largest if np.isnan(largest) else magnitudes[kth[0]:half + 1].mean()
    return max(float(median / 0.6745), floor)


def _finite_image(x_tilde) -> np.ndarray:
    """x~ as a float64 array; ValueError if a pixel is NaN or infinite."""
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    bad = np.count_nonzero(~np.isfinite(x_tilde))
    if bad:
        raise ValueError(f"x_tilde holds {bad} non-finite pixel(s)")
    return x_tilde


def _scale_floor(x_tilde: np.ndarray) -> float:
    return 1e-6 * (float(np.max(np.abs(x_tilde))) + 1e-12)


def binarize_weights(w: np.ndarray) -> ObjectMask:
    """Low weight marks an outlier, i.e. an object pixel: w < MASK_THRESHOLD."""
    return ObjectMask(mask=w < MASK_THRESHOLD)


def _makhoul_order(n: int):
    """Makhoul's reordering of a length-n axis as (source, destination) slices:
    the even indices ascending, then the odd ones descending."""
    evens = (n + 1) // 2
    return ((slice(0, n, 2), slice(0, evens)),
            (slice(n - 1 - n % 2, 0, -2), slice(evens, n)))


class _DctSolve:
    """out = D^-1 (scale * D r) for the 2-D DCT-II D, in numpy alone, into `out`.

    The DCT-II of each axis is one real FFT of the axis in Makhoul's order
    and a twiddle exp(-i pi k / 2n): the real part and the negated imaginary
    part of the k-th twiddled coefficient are the DCT coefficients k and
    n - k (Makhoul, "A fast cosine transform in one and two dimensions",
    IEEE TASSP 1980).  Over the rows the DCT is formed; over the columns
    the DCT, the scaling and the inverse DCT fold into the twiddle, a
    scaling of each coefficient's real and imaginary part, and the
    conjugate twiddle.  So `scale` comes in the layout of pairs(), and the
    transforms are unnormalized: `scale` carries the pair's 1 / (rows * cols).

    Every view of `out`, `scratch` (which each call overwrites) and the one
    spectrum buffer is taken once, here: taking them per call cost about 8%
    of a call at 120x160.
    """

    def __init__(self, out: np.ndarray, scratch: np.ndarray):
        rows, cols = out.shape
        self._out, self._scratch, self._rows, self._cols = out, scratch, rows, cols
        order = [(np.s_[rs, cs], np.s_[rd, cd]) for rs, rd in _makhoul_order(rows)
                 for cs, cd in _makhoul_order(cols)]
        self._into = [(scratch[dst], src) for src, dst in order]
        self._back = [(out[src], scratch[dst]) for src, dst in order]
        row_twiddle = np.exp(-0.5j * np.pi * np.arange(rows // 2 + 1) / rows)[:, None]
        col_twiddle = np.exp(-0.5j * np.pi * np.arange(cols // 2 + 1) / cols)
        self._twiddles = row_twiddle, row_twiddle.conj(), col_twiddle, col_twiddle.conj()
        # one buffer holds the real FFT over the rows, then the one over the columns
        spectrum = np.empty(max((rows // 2 + 1) * cols, rows * (cols // 2 + 1)), dtype=complex)
        row_spec = self._row_spectrum = spectrum[:(rows // 2 + 1) * cols].reshape(rows // 2 + 1, cols)
        col_spec = self._col_spectrum = spectrum[:rows * (cols // 2 + 1)].reshape(rows, cols // 2 + 1)
        self._col_pairs = col_spec.view(np.float64).reshape(rows, cols // 2 + 1, 2)
        # the row DCT in `out` as (rows of out, spectrum parts): rows
        # 0..rows//2 are real parts, the rest negated imaginary parts in
        # reverse; back in the spectrum, the DC imaginary part is 0, and an
        # even count's middle row gives both parts of its coefficient
        head = rows // 2 + 1
        self._real_rows = out[:head], row_spec.real
        self._imag_rows = out[head:], row_spec.imag[1:(rows + 1) // 2][::-1]
        self._imag_back = out[::-1][:rows // 2], row_spec.imag[1:]
        self._imag_dc = row_spec.imag[0]

    @staticmethod
    def pairs(table: np.ndarray) -> np.ndarray:
        """A rows x cols table over the DCT frequencies as __call__ takes it:
        [k, m] holds the values at (k, m) and (k, cols - m), m = 0..cols//2
        (both at (k, 0) for m = 0)."""
        m = np.arange(table.shape[1] // 2 + 1)
        return np.ascontiguousarray(np.stack([table[:, m], table[:, -m]], axis=-1))

    def __call__(self, r, scale):
        """D^-1 (scale * D r) in `out`; r, neither `out` nor `scratch`, is untouched."""
        out, scratch = self._out, self._scratch
        row_spec, col_spec = self._row_spectrum, self._col_spectrum
        row_twiddle, row_back, col_twiddle, col_back = self._twiddles
        (real_out, real_spec), (imag_out, imag_spec) = self._real_rows, self._imag_rows
        imag_out_back, imag_spec_back = self._imag_back
        for dst, src in self._into:
            np.copyto(dst, r[src])
        np.fft.rfft(scratch, axis=0, out=row_spec)
        row_spec *= row_twiddle
        np.copyto(real_out, real_spec)
        np.negative(imag_spec, out=imag_out)
        np.fft.rfft(out, axis=1, out=col_spec)
        col_spec *= col_twiddle
        self._col_pairs *= scale
        col_spec *= col_back
        np.fft.irfft(col_spec, self._cols, axis=1, out=out, norm="forward")
        np.copyto(real_spec, real_out)
        self._imag_dc[...] = 0.0
        np.negative(imag_out_back, out=imag_spec_back)
        row_spec *= row_back
        np.fft.irfft(row_spec, self._rows, axis=0, out=scratch, norm="forward")
        for dst, src in self._back:
            np.copyto(dst, src)
        return out


class _Workspace:
    """Per-level operators and buffers shared by every solve: patch bases, flip, stencil.

    The x-step system is diag(w) + K, where the weight-independent K
    (identity, symmetry and smoothness penalties) is applied matrix-free:
    its diagonal, minus gamma3 times the 4-neighbour sum, minus 2*gamma2
    times x with the flip's two halves swapped.  Only diag(w) changes
    between outer iterations; reweight(w) writes it once per x-step.

    The preconditioner drops the symmetry coupling and replaces diag(w) by
    its mean: what is left, (mean(w) + gamma1 + gamma2*mean(sym diag))*I +
    gamma3*L with the Neumann Laplacian L, is diagonalized by the DCT-II and
    inverted exactly in O(n log n) (Krishnan & Szeliski, "Multigrid and
    Multilevel Preconditioners for Computational Photography", SIGGRAPH
    Asia 2011).  Its eigenvalues are built here once, reweight(w) folds
    mean(w) into them, and _DctSolve does the DCT pair with numpy's real FFT.

    apply, precondition and _solve_system work in image-sized buffers that
    live as long as the workspace, one level.
    """

    def __init__(self, shape, cfg: SolverConfig):
        self.cfg = cfg
        self.grid = cfg.grid_for(shape)
        rows, cols = shape
        lower, upper = self.sym_halves = cfg.flip.halves(rows)
        sym_diag = np.zeros(shape)  # the symmetry normal operator's: 2 on both halves, else 0
        sym_diag[lower] = sym_diag[upper] = 2.0
        lap_diag = neighbour_sum(np.ones(shape))
        self.fixed_diag = cfg.gamma1 + cfg.gamma2 * sym_diag + cfg.gamma3 * lap_diag
        lam_r = 2.0 - 2.0 * np.cos(np.pi * np.arange(rows) / rows)
        lam_c = 2.0 - 2.0 * np.cos(np.pi * np.arange(cols) / cols)
        self.fixed_eig = _DctSolve.pairs(
            cfg.gamma3 * (lam_r[:, None] + lam_c[None, :])
            + cfg.gamma1
            + cfg.gamma2 * float(np.mean(sym_diag))
        )
        self.max_cg_iters = int(math.ceil(10.0 * math.sqrt(rows * cols)))
        # diag(w) + fixed diagonal, CG residual, direction, A p, and a
        # scratch that each apply overwrites
        self._diag, self.r, self.p, self.ap, self.scratch = (np.empty(shape) for _ in range(5))
        self._inv_eig = np.empty_like(self.fixed_eig)
        self._dct = _DctSolve(self.ap, self.scratch)

    def reweight(self, w: np.ndarray):
        """Take the weights w for the next apply and precondition calls:
        diag(w) + the fixed diagonal, and the scaled inverse eigenvalues
        with mean(w) folded in."""
        np.add(w, self.fixed_diag, out=self._diag)
        mean_w = float(np.mean(w))
        inv = np.add(self.fixed_eig, mean_w, out=self._inv_eig)
        if mean_w <= 0:
            # fixed_eig >= 0, so only zero weights leave a zero eigenvalue:
            # the constant mode of a singular system (gamma1 = gamma2 = 0)
            # passes through unscaled instead of dividing by zero
            inv[inv <= 0] = 1.0
        np.divide(1.0 / self.r.size, inv, out=inv)  # the unnormalized pair's scaling

    def apply(self, x, out):
        """out = A x for the weights of the last reweight; overwrites scratch."""
        nb, (lower, upper), c = self.scratch, self.sym_halves, 2.0 * self.cfg.gamma2
        np.multiply(self._diag, x, out=out)
        out -= np.multiply(neighbour_sum(x, out=nb), self.cfg.gamma3, out=nb)
        # nb is free again: it takes each half's mirror term
        out[lower] -= np.multiply(x[upper][::-1], c, out=nb[lower])
        out[upper] -= np.multiply(x[lower][::-1], c, out=nb[upper])
        return out

    def precondition(self, r):
        """z = M^-1 r, the DCT-II solve for the weights of the last reweight.

        z is written into the A p buffer: conjugate gradients is done with
        z, folded into the direction, before it computes the next A p.  The
        call also overwrites the scratch buffer.
        """
        return self._dct(r, self._inv_eig)


def _solve_system(ws: _Workspace, w, b, x0, forcing=0.0):
    """Conjugate gradients for the x-step, preconditioned by a DCT solve.

    See _Workspace for the fast-Poisson preconditioner.  Stops when the
    residual (gradient) norm drops to max(linear_solver_tol * max(||b||,
    ||r0||), forcing * ||r0||) with r0 = b - A x0, the tolerance from the
    workspace's config.  With forcing = 0 (the exact solve) the stop is
    relative to the right-hand side, as scipy's cg measures it, so a warm
    start already that close takes no step, and relative to r0 when b = 0.
    A forcing term > 0 (the inexact solve) stops once the warm start's
    residual has shrunk by that factor.  Warm starts from x0 so each outer
    iteration's solve only ever decreases the surrogate.  Reductions use
    priors.dot, so the result does not depend on the BLAS thread count.
    x, r and p are updated in place, r and p in the workspace's buffers.

    Returns (x, iterations, ||r|| / ||b||); the last is ||r|| when b = 0.
    x is a new array.
    """
    ws.reweight(w)
    x = x0.copy()
    r = ws.apply(x, ws.r)
    np.subtract(b, r, out=r)
    r_norm = r0_norm = math.sqrt(dot(r, r))
    b_norm = math.sqrt(dot(b, b))
    target = max(ws.cfg.linear_solver_tol * max(b_norm, r0_norm), forcing * r0_norm)

    def done(it):
        return x, it, r_norm / b_norm if b_norm > 0 else r_norm

    if r0_norm <= target:  # also an exact start, r0 = 0
        return done(0)
    z = ws.precondition(r)
    p, ap, scratch = ws.p, ws.ap, ws.scratch
    np.copyto(p, z)
    rz = dot(r, z)
    for it in range(1, ws.max_cg_iters + 1):
        ws.apply(p, ap)
        pap = dot(p, ap)
        if pap <= 0:
            # numerically semi-definite direction: current iterate is as
            # good as this subspace gets
            return done(it)
        alpha = rz / pap
        x += np.multiply(p, alpha, out=scratch)
        r -= np.multiply(ap, alpha, out=scratch)
        r_norm = math.sqrt(dot(r, r))
        if r_norm <= target:
            return done(it)
        z = ws.precondition(r)
        rz_new = dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(
        f"x-step did not converge in {ws.max_cg_iters} iterations "
        f"(residual norm {r_norm:.3e}, target {target:.3e})",
        residual_norm=r_norm,
    )


def solve_wls(x_tilde, w, a, cfg: SolverConfig, x0=None):
    """Minimize the weighted surrogate over x with patch coefficients fixed.

    `w` is a weight grid in [0, 1] with the image's shape, as IrlsState.w
    holds it; `a` holds the (K, 6) per-patch coefficients over the scaled
    patch basis (see priors), as PatchGrid.fit_all returns them and
    IrlsState.a holds them.  Returns the solution grid.  A non-finite x~,
    weight or coefficient raises ValueError before any CG iteration.
    """
    x_tilde = _finite_image(x_tilde)
    weights = np.asarray(w, dtype=np.float64)
    if weights.shape != x_tilde.shape:
        raise ValueError("weight grid shape does not match image")
    # written so that NaN fails it
    if not np.all((weights >= 0) & (weights <= 1)):
        raise ValueError("weights must lie in [0, 1]")
    ws = _Workspace(x_tilde.shape, cfg)
    coeffs = np.asarray(a, dtype=np.float64)
    if coeffs.shape != (ws.grid.n_patches, 6):
        raise ValueError(f"patch coefficients must have shape ({ws.grid.n_patches}, 6), "
                         f"got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("patch coefficients must be finite")
    x0 = x_tilde if x0 is None else np.asarray(x0, dtype=np.float64)
    x, _, _ = _x_step(ws, x_tilde, weights, ws.grid.surface_image(coeffs), x0)
    return x


def _x_step(ws, x_tilde, w_pix, surface, x_prev, forcing=0.0):
    """Solve the surrogate for x given the patch quadratics' surface image."""
    b = w_pix * x_tilde + ws.cfg.gamma1 * surface
    return _solve_system(ws, w_pix, b, x_prev, forcing)


def _objective(ws, x, surface, data_rho_sum, sigma):
    """True robust objective with the unscaled gammas gamma'/(2 sigma^2)."""
    cfg = ws.cfg
    d = np.subtract(surface, x, out=ws.scratch)
    patch_term = dot(d, d)
    sym = symmetry_penalty(x, cfg.flip)
    grad = gradient_penalty(x)
    scale = 1.0 / (2.0 * sigma * sigma)
    return data_rho_sum + scale * (
        cfg.gamma1 * patch_term + cfg.gamma2 * sym + cfg.gamma3 * grad
    )


def _converged(history):
    if len(history) < 2:
        return False
    prev, cur = history[-2], history[-1]
    return abs(cur - prev) < CONVERGENCE_TOL * max(abs(prev), 1e-12)


def _identity(v):
    return v


def _run_level(ws: _Workspace, x_tilde, level: str, x, w_pix, coeffs) -> IrlsState:
    """One IRLS level from the start point (x, w_pix, coeffs).

    Each outer iteration solves the x-step, refits the patch quadratics
    and reweights.  The coarse level measures residuals as patch norms and
    spreads each patch's Tukey weight over its pixels; the fine level works
    per pixel.  The scale sigma is the MAD of the first iteration's
    residuals and then stays frozen.

    The first x-step is solved exactly (to linear_solver_tol), since its
    residuals set sigma; every later one is inexact, stopped by the
    FORCING term.  The patch surface is built once per fit and serves both
    the objective and the next x-step.
    """
    cfg = ws.cfg
    if level == "coarse":
        residual, spread, c = ws.grid.patch_norms, ws.grid.expand_patch_values, cfg.c_coarse
    else:
        residual = spread = _identity
        c = cfg.c_fine
    floor = _scale_floor(x_tilde)
    state = IrlsState(x=x, a=coeffs, w=w_pix, level=level)
    surface = ws.grid.surface_image(coeffs)

    for _ in range(cfg.max_outer_iters):
        forcing = 0.0 if state.sigma is None else FORCING
        x, n_cg, cg_res = _x_step(ws, x_tilde, w_pix, surface, x, forcing)
        state.cg_iterations.append(n_cg)
        state.cg_residuals.append(cg_res)
        coeffs = ws.grid.fit_all(x, weights=w_pix + FIT_WEIGHT_FLOOR)
        surface = ws.grid.surface_image(coeffs)
        r = residual(x - x_tilde)
        if state.sigma is None:
            state.sigma = mad_scale(r, floor=floor)
        w = tukey_weight(r / state.sigma, c)
        rho_sum = float(np.sum(_rho_from_weight(w, c)))
        w_pix = spread(w)
        state.objective_history.append(_objective(ws, x, surface, rho_sum, state.sigma))
        state.converged = _converged(state.objective_history)
        if state.converged:
            break

    state.x, state.a, state.w = x, coeffs, w_pix
    return state


def run_coarse(x_tilde, cfg: SolverConfig) -> IrlsState:
    """Patch-level robust estimation (the coarse half of the pipeline).

    Data term and Tukey weights live on whole patches; the level starts
    from x~ with unit weights and unweighted patch fits.
    """
    x_tilde = _finite_image(x_tilde)
    ws = _Workspace(x_tilde.shape, cfg)
    return _run_level(ws, x_tilde, "coarse", x_tilde, np.ones_like(x_tilde),
                      ws.grid.fit_all(x_tilde))


def run_fine(x_tilde, init: IrlsState, cfg: SolverConfig) -> IrlsState:
    """Pixel-level robust estimation, initialized from the coarse output."""
    x_tilde = _finite_image(x_tilde)
    if init.x.shape != x_tilde.shape:
        raise ValueError("coarse state does not belong to this image")
    ws = _Workspace(x_tilde.shape, cfg)
    return _run_level(ws, x_tilde, "fine", init.x, init.w, init.a)


def half_grid_config(cfg: SolverConfig, rows: int) -> SolverConfig:
    """`cfg` scaled to the grid of 2x2 block means, `rows` high, that both levels run on.

    gamma3 is divided by 4: the smoothness sum keeps its size when the
    grid is halved, while the data, patch and symmetry sums scale with the
    pixel count.  The flip row is halved, rounding down, and the excluded
    bottom rows rounding up.  Every other field, the patch grid included,
    is cfg's.  A flip row on an odd frame's last row, which mirrors
    nothing, halves to just below the grid; it is kept on the grid's last
    row, which mirrors nothing either.
    """
    flip = cfg.flip
    return replace(cfg, gamma3=cfg.gamma3 / 4, flip=FlipOperator(
        flip_row=min(flip.flip_row // 2, rows - 1),
        excluded_bottom_rows=-(-flip.excluded_bottom_rows // 2)))


def _block_copy(v: np.ndarray, shape) -> np.ndarray:
    """Half-grid `v` copied over each 2x2 block of a `shape` frame, the adjoint of
    the block means; an odd frame's trailing row or column repeats its neighbour."""
    out = np.empty(shape)
    rows, cols = 2 * v.shape[0], 2 * v.shape[1]
    for i in range(2):
        for j in range(2):
            out[i:rows:2, j:cols:2] = v
    out[rows:] = out[rows - 1]  # the next line fills this row's trailing column too
    out[:, cols:] = out[:, cols - 1:cols]
    return out


def estimate_scattering(x_tilde, cfg: SolverConfig, turn=None):
    """Full coarse-to-fine run for one domain: (coarse, fine, x, w).

    Both levels run, and their states are returned, on the 2x2 block means
    of x~ (an odd trailing row or column dropped) under half_grid_config.
    x is the fine x block-copied to full resolution, and w its Tukey
    weights against x~ at the fine level's sigma.  The half grid needs 3x3
    pixels per patch, so a frame under 6x6 pixels per patch, a non-finite
    x~ or a flip row outside the frame raises ValueError.

    A `turn` marks x~ as angles of that period, wrapped to [0, turn).  The
    solve then runs on x~ + turn/2 wrapped again, half a turn away from x~'s
    wrap, and w is taken there too; x and both levels' x come back shifted
    by -turn/2.  Every term of the objective sees only differences, so a
    constant shift moves nothing but the wrap.
    """
    x_tilde = _finite_image(x_tilde)
    rows, cols = x_tilde.shape
    patch_rows, patch_cols = cfg.patch_grid
    if rows < 6 * patch_rows or cols < 6 * patch_cols:
        raise ValueError(
            f"a {rows}x{cols} frame is too small for the {patch_rows}x{patch_cols} patch "
            f"grid: the solver's half-resolution grid needs a frame of at least "
            f"{6 * patch_rows}x{6 * patch_cols} pixels")
    cfg.flip.halves(rows)  # a flip row outside the frame fails here, not after a level
    if turn is not None:
        x_tilde = np.add(x_tilde, turn / 2)
        np.mod(x_tilde, turn, out=x_tilde)
    half = x_tilde[:rows // 2 * 2, :cols // 2 * 2].reshape(rows // 2, 2, cols // 2, 2)
    half = half.mean(axis=(1, 3))
    half_cfg = half_grid_config(cfg, rows // 2)
    coarse = run_coarse(half, half_cfg)
    fine = run_fine(half, coarse, half_cfg)
    x = _block_copy(fine.x, x_tilde.shape)
    # a rotated x~ is this call's own grid, which the residual can take over
    r = np.subtract(x, x_tilde, out=None if turn is None else x_tilde)
    r /= fine.sigma
    w = tukey_weight(r, cfg.c_fine)
    if turn is not None:
        for v in (coarse.x, fine.x, x):
            v -= turn / 2
    return coarse, fine, x, w
