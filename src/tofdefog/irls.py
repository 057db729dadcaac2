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

Two levels run in sequence: a coarse level whose data term and weights
live on whole patches (robust against large objects), then a fine level
with per-pixel residuals initialized from the coarse solution.  The
coarse level only places the fine level's start, so estimate_scattering
solves it on the 2x2 block means of x~ (half_grid_config scales the
constants to that grid) and copies its result over each 2x2 block to
start the fine level at full resolution; the paper solves it at full
resolution.

The gamma constants configured here are the surrogate-scaled ones (the
"primed" constants, gamma' = 2*sigma^2*gamma); the solver derives the
unscaled gammas for objective tracking once sigma is known.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .core import json_fits, json_kwargs
from .priors import (
    FlipOperator,
    PatchGrid,
    dot,
    gradient_penalty,
    neighbour_sum,
    symmetry_penalty,
)
from .recon import ObjectMask


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
        # written so that NaN and infinity fail each check
        if not all(0 <= g < math.inf for g in (self.gamma1, self.gamma2, self.gamma3)):
            raise ValueError("gamma constants must be finite and non-negative")
        if not all(0 < c < math.inf for c in (self.c_coarse, self.c_fine)):
            raise ValueError("Tukey tuning constants must be finite and positive")
        if not (json_fits(self.max_outer_iters, "int") and self.max_outer_iters >= 1):
            raise ValueError("max_outer_iters must be a positive int")
        # a relative tolerance of 1 or more accepts every warm start
        if not 0 < self.linear_solver_tol < 1:
            raise ValueError(
                f"linear_solver_tol must lie in (0, 1), got {self.linear_solver_tol!r}")
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
class ScatteringField:
    """Estimated per-pixel scattering component for one domain."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scattering field must be finite")


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
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.size == 0:
        raise ValueError("residual vector must be non-empty")
    return max(float(np.median(np.abs(residuals)) / 0.6745), floor)


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


class _Workspace:
    """Per-level operators and buffers shared by every solve: patch bases, flip, stencil.

    The x-step system is diag(w) + K, where the weight-independent K
    (identity, symmetry and smoothness penalties) is applied matrix-free:
    its diagonal, minus gamma3 times the 4-neighbour sum, minus 2*gamma2
    times x with the flip's two halves swapped.  Only diag(w) changes
    between outer iterations; operator(w) builds it once per x-step.

    The preconditioner drops the symmetry coupling and replaces diag(w) by
    its mean: what is left, (mean(w) + gamma1 + gamma2*mean(sym diag))*I +
    gamma3*L with the Neumann Laplacian L, is diagonalized by the DCT-II and
    inverted exactly in O(n log n) (Krishnan & Szeliski, "Multigrid and
    Multilevel Preconditioners for Computational Photography", SIGGRAPH
    Asia 2011).  Its eigenvalues are built here once.

    The operator, the preconditioner and _solve_system work in image-sized
    buffers that live as long as the workspace, one level.
    """

    def __init__(self, shape, cfg: SolverConfig):
        from scipy.fft import dctn, idctn

        self._dctn, self._idctn = dctn, idctn
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
        self.fixed_eig = (
            cfg.gamma3 * (lam_r[:, None] + lam_c[None, :])
            + cfg.gamma1
            + cfg.gamma2 * float(np.mean(sym_diag))
        )
        self.max_cg_iters = int(math.ceil(10.0 * math.sqrt(rows * cols)))
        # diag(w) + fixed diagonal, inverse eigenvalues, CG residual,
        # direction, A p, and a scratch that each apply overwrites
        (self._diag, self._inv_eig, self.r, self.p, self.ap,
         self.scratch) = (np.empty(shape) for _ in range(6))

    def operator(self, w: np.ndarray):
        """The x-step operator for weights w, as apply(x, out) -> out = A x."""
        diag = np.add(w, self.fixed_diag, out=self._diag)
        g3, c = self.cfg.gamma3, 2.0 * self.cfg.gamma2
        lower, upper = self.sym_halves
        nb = self.scratch

        def apply(x, out):
            np.multiply(diag, x, out=out)
            if g3 > 0:
                out -= np.multiply(neighbour_sum(x, out=nb), g3, out=nb)
            if c > 0:
                # nb is free again: it takes each half's mirror term
                out[lower] -= np.multiply(x[upper][::-1], c, out=nb[lower])
                out[upper] -= np.multiply(x[lower][::-1], c, out=nb[upper])
            return out

        return apply

    def apply_system(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A x for the weights w, in a new array."""
        return self.operator(w)(x, np.empty_like(x))

    def preconditioner(self, w: np.ndarray):
        """DCT-II solve of the fixed operator with mean(w) folded in.

        The returned solve(r) writes its result z into the A p buffer:
        conjugate gradients is done with z, folded into the direction,
        before it computes the next A p.
        """
        mean_w = float(np.mean(w))
        inv = np.add(self.fixed_eig, mean_w, out=self._inv_eig)
        if mean_w <= 0:
            # fixed_eig >= 0, so only zero weights leave a zero eigenvalue:
            # the constant mode of a singular system (gamma1 = gamma2 = 0)
            # passes through unscaled instead of dividing by zero
            inv[inv <= 0] = 1.0
        np.reciprocal(inv, out=inv)
        z = self.ap

        def solve(r):
            np.copyto(z, r)
            self._dctn(z, type=2, norm="ortho", overwrite_x=True)
            np.multiply(z, inv, out=z)
            self._idctn(z, type=2, norm="ortho", overwrite_x=True)
            return z

        return solve


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
    apply = ws.operator(w)
    x = x0.copy()
    r = apply(x, ws.r)
    np.subtract(b, r, out=r)
    r_norm = r0_norm = math.sqrt(dot(r, r))
    b_norm = math.sqrt(dot(b, b))
    target = max(ws.cfg.linear_solver_tol * max(b_norm, r0_norm), forcing * r0_norm)

    def done(it):
        return x, it, r_norm / b_norm if b_norm > 0 else r_norm

    if r0_norm <= target:  # also an exact start, r0 = 0
        return done(0)
    precondition = ws.preconditioner(w)
    z = precondition(r)
    p, ap, scratch = ws.p, ws.ap, ws.scratch
    np.copyto(p, z)
    rz = dot(r, z)
    for it in range(1, ws.max_cg_iters + 1):
        apply(p, ap)
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
        z = precondition(r)
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
    """`cfg` scaled to the grid of 2x2 block means, `rows` high, that the coarse level runs on.

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


def _prolong(coarse: IrlsState, shape, cfg: SolverConfig) -> IrlsState:
    """The fine level's start at full resolution from a half-grid coarse state.

    Each half-grid value of x and w is copied over its 2x2 block, the
    adjoint of the block means the coarse level ran on; an odd frame's
    trailing row or column repeats its neighbour.  The patch quadratics
    are refit to x under those weights, as the coarse level fits them.
    """
    pad = [(0, n - 2 * m) for n, m in zip(shape, coarse.x.shape)]
    x, w = (np.pad(v.repeat(2, axis=0).repeat(2, axis=1), pad, mode="edge")
            for v in (coarse.x, coarse.w))
    return IrlsState(x=x, a=cfg.grid_for(shape).fit_all(x, weights=w + FIT_WEIGHT_FLOOR), w=w)


def estimate_scattering(x_tilde, cfg: SolverConfig):
    """Full coarse-to-fine run for one domain: (coarse_state, fine_state), x the estimate.

    The coarse level runs on the 2x2 block means of x~ (an odd trailing
    row or column is dropped) under half_grid_config; its state is
    returned as it ran, on that half grid.  The fine level starts from its
    prolongation to full resolution.  The half grid must hold cfg's patch
    grid with 3x3 pixels per patch, so a frame needs at least 6x6 pixels
    per patch; a smaller one, a non-finite x~ or a flip row outside the
    frame raises ValueError.
    """
    x_tilde = _finite_image(x_tilde)
    rows, cols = x_tilde.shape
    patch_rows, patch_cols = cfg.patch_grid
    if rows < 6 * patch_rows or cols < 6 * patch_cols:
        raise ValueError(
            f"a {rows}x{cols} frame is too small for the {patch_rows}x{patch_cols} patch "
            f"grid: the coarse level's half-resolution grid needs a frame of at least "
            f"{6 * patch_rows}x{6 * patch_cols} pixels")
    cfg.flip.halves(rows)  # a flip row outside the frame fails here, not after a level
    half = x_tilde[:rows // 2 * 2, :cols // 2 * 2].reshape(rows // 2, 2, cols // 2, 2)
    coarse = run_coarse(half.mean(axis=(1, 3)), half_grid_config(cfg, rows // 2))
    return coarse, run_fine(x_tilde, _prolong(coarse, x_tilde.shape, cfg), cfg)
