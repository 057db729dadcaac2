"""Linear operators behind the scattering-field priors.

Three quadratic penalties are used by the robust estimator:

  * local quadratic prior: within each patch of a non-overlapping grid the
    field is a 6-coefficient quadratic surface a1*u^2 + a2*u*v + a3*v^2 +
    a4*u + a5*v + a6, with (u, v) the patch's pixel coordinates centred on
    the patch and scaled to [-1, 1], the one coefficient basis used
    throughout,
  * global symmetrical prior: the field mirrors about a fixed image row
    fixed by the camera/illuminator geometry; the mirror swaps two row
    slices (FlipOperator.halves),
  * smoothness: squared forward differences along both axes.

All operators here are pure and stateless; patch fits are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SingularFitError(RuntimeError):
    """Raised when a patch fit's normal equations are rank deficient."""


@dataclass(frozen=True)
class QuadraticBasis:
    """Design matrix of the 6-term quadratic over one patch.

    The basis runs over patch-local pixel coordinates centred on the patch
    and scaled to [-1, 1]: raw coordinates up to a few hundred pixels give
    normal equations with condition numbers around 1e10, while the scaled
    basis is benign.  Every coefficient vector in the package, from `fit`
    to `irls.solve_wls`, is over this basis.
    """

    n_rows: int
    n_cols: int

    def __post_init__(self):
        if self.n_rows < 3 or self.n_cols < 3:
            raise ValueError("patch must be at least 3x3 pixels")

    @cached_property
    def coords(self):
        """Patch-local (u, v) pixel coordinates, each flattened row-major."""
        u, v = np.meshgrid(
            np.arange(self.n_rows, dtype=np.float64),
            np.arange(self.n_cols, dtype=np.float64),
            indexing="ij",
        )
        return u.ravel(), v.ravel()

    @cached_property
    def design(self) -> np.ndarray:
        """N x 6 design matrix: uu^2, uu*vv, vv^2, uu, vv, 1 (uu, vv scaled)."""
        uu, vv = (_centred_unit(t) for t in self.coords)
        return np.column_stack([uu * uu, uu * vv, vv * vv, uu, vv, np.ones_like(uu)])

    def fit(self, values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Least-squares coefficients for patch values.

        `values` is the patch as a vector or 2-D block; optional per-pixel
        weights must be non-negative.  Raises SingularFitError when the
        weighted normal equations lose rank (e.g. nearly all weights zero).
        """
        x = np.asarray(values, dtype=np.float64).ravel()
        if x.size != self.n_rows * self.n_cols:
            raise ValueError("patch value count does not match basis size")
        U = self.design
        if weights is None:
            m = U.T @ U
            rhs = U.T @ x
        else:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if w.size != x.size:
                raise ValueError("weight count does not match patch size")
            if np.any(w < 0):
                raise ValueError("weights must be non-negative")
            m = U.T @ (w[:, None] * U)
            rhs = U.T @ (w * x)
        if np.linalg.cond(m) > 1e12:
            raise SingularFitError(
                "patch fit normal equations are rank deficient "
                f"(cond={np.linalg.cond(m):.3e})"
            )
        return np.linalg.solve(m, rhs)

    def surface(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate the quadratic over the patch."""
        return (self.design @ np.asarray(coeffs, dtype=np.float64)).reshape(
            self.n_rows, self.n_cols
        )


def _centred_unit(t: np.ndarray) -> np.ndarray:
    """Coordinates shifted to mean 0, divided by their largest magnitude if above 1."""
    c = t - t.mean()
    return c / max(np.abs(c).max(), 1.0)


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping tiling of a rows x cols image into patches.

    When the image dimensions are not divisible by the grid, trailing
    patches absorb the remainder so the tiling stays exact.
    """

    rows: int
    cols: int
    patch_rows: int
    patch_cols: int

    def __post_init__(self):
        if self.patch_rows < 1 or self.patch_cols < 1:
            raise ValueError("patch grid must be at least 1x1")
        if self.rows // self.patch_rows < 3 or self.cols // self.patch_cols < 3:
            raise ValueError("patches must be at least 3x3 pixels")

    @property
    def n_patches(self) -> int:
        return self.patch_rows * self.patch_cols

    @cached_property
    def slices(self) -> list[tuple[slice, slice]]:
        """Row/col slice per patch, row-major over the patch grid."""
        row_edges = [self.rows // self.patch_rows * i for i in range(self.patch_rows)]
        row_edges.append(self.rows)
        col_edges = [self.cols // self.patch_cols * j for j in range(self.patch_cols)]
        col_edges.append(self.cols)
        out = []
        for i in range(self.patch_rows):
            for j in range(self.patch_cols):
                out.append(
                    (
                        slice(row_edges[i], row_edges[i + 1]),
                        slice(col_edges[j], col_edges[j + 1]),
                    )
                )
        return out

    @cached_property
    def bases(self) -> list[QuadraticBasis]:
        cache: dict[tuple[int, int], QuadraticBasis] = {}
        out = []
        for rs, cs in self.slices:
            key = (rs.stop - rs.start, cs.stop - cs.start)
            if key not in cache:
                cache[key] = QuadraticBasis(*key)
            out.append(cache[key])
        return out

    def fit_all(self, image: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Per-patch quadratic fits (scaled basis), shape (K, 6)."""
        coeffs = np.empty((self.n_patches, 6))
        for k, (rs, cs) in enumerate(self.slices):
            w = None if weights is None else weights[rs, cs]
            coeffs[k] = self.bases[k].fit(image[rs, cs], w)
        return coeffs

    def surface_image(self, coeffs: np.ndarray) -> np.ndarray:
        """Assemble the per-patch quadratic surfaces into a full image."""
        out = np.empty((self.rows, self.cols))
        for k, (rs, cs) in enumerate(self.slices):
            out[rs, cs] = self.bases[k].surface(coeffs[k])
        return out

    def expand_patch_values(self, values: np.ndarray) -> np.ndarray:
        """Broadcast one value per patch over its pixels."""
        out = np.empty((self.rows, self.cols))
        for k, (rs, cs) in enumerate(self.slices):
            out[rs, cs] = values[k]
        return out

    def patch_norms(self, residual: np.ndarray) -> np.ndarray:
        """2-norm of a residual image restricted to each patch."""
        return np.sqrt([dot(residual[s], residual[s]) for s in self.slices])


@dataclass(frozen=True)
class FlipOperator:
    """Vertical mirror about a fixed row, with an excluded bottom band.

    The mirror pairs row flip_row - j with row flip_row + j for j = 1..k,
    k as large as keeps both rows inside the image and above the excluded
    bottom band (those rows carry no symmetry information).  The flip row
    is its own mirror and every other row passes through, so the flip is
    an involution and the penalty's normal operator is expressible through
    the flip itself.
    """

    flip_row: int
    excluded_bottom_rows: int = 0

    def __post_init__(self):
        if self.flip_row < 0:
            raise ValueError("flip_row must be non-negative")
        if self.excluded_bottom_rows < 0:
            raise ValueError("excluded_bottom_rows must be non-negative")

    def halves(self, rows: int) -> tuple[slice, slice]:
        """Row slices (lower, upper) = flip_row-k..flip_row-1, flip_row+1..flip_row+k.

        Row i of `lower` mirrors row k-1-i of `upper`; both are empty when
        k = 0 (flip_row 0, or a flip row inside the excluded band).
        """
        f = self.flip_row
        if f >= rows:
            raise ValueError("flip_row lies outside the image")
        k = max(min(f, rows - self.excluded_bottom_rows - 1 - f), 0)
        return slice(f - k, f), slice(f + 1, f + 1 + k)

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Swap the two mirrored halves; every other row passes through."""
        lower, upper = self.halves(image.shape[0])
        out = image.copy()
        out[lower] = image[upper][::-1]
        out[upper] = image[lower][::-1]
        return out

    def residual(self, image: np.ndarray) -> np.ndarray:
        """Mirror-minus-identity residual; zero outside the mirrored halves."""
        return self.apply(image) - image

    def normal_diag(self, shape) -> np.ndarray:
        """Diagonal of the symmetry normal operator: 2 on the halves, else 0."""
        d = np.zeros(shape)
        for half in self.halves(shape[0]):
            d[half] = 2.0
        return d


def symmetry_penalty(image: np.ndarray, op: FlipOperator) -> float:
    """Sum of squared mirror residuals over the two mirrored halves."""
    res = op.residual(image)
    return float(np.sum(res * res))


def gradient_penalty(image: np.ndarray) -> float:
    """Sum of squared forward differences along both axes."""
    dh = np.diff(image, axis=1)
    dv = np.diff(image, axis=0)
    return float(np.sum(dh * dh) + np.sum(dv * dv))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a*b over two same-shape 2-D arrays, summed outside BLAS.

    OpenBLAS threads its dot product above about 10,000 elements, and its
    threaded partial sums make a float64 result depend on the BLAS thread
    count; einsum's single-threaded loop gives the same bits whatever that
    count is, and leaves no BLAS worker spinning on another core.
    """
    return float(np.einsum("ij,ij->", a, b))


def neighbour_sum(image: np.ndarray) -> np.ndarray:
    """Sum of each pixel's in-image 4-neighbours: the stencil's off-diagonal."""
    out = np.zeros_like(image)
    out[:, :-1] += image[:, 1:]
    out[:, 1:] += image[:, :-1]
    out[:-1, :] += image[1:, :]
    out[1:, :] += image[:-1, :]
    return out


def laplacian_diag(shape) -> np.ndarray:
    """Diagonal of the gradient normal operator."""
    rows, cols = shape
    d = np.zeros((rows, cols))
    d[:, :-1] += 1.0
    d[:, 1:] += 1.0
    d[:-1, :] += 1.0
    d[1:, :] += 1.0
    return d
