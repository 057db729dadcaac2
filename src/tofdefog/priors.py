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

from .core import json_fits


class SingularFitError(RuntimeError):
    """Raised when a patch fit's normal equations are rank deficient."""


# Basis terms uu^i * vv^j in coefficient order: uu^2, uu*vv, vv^2, uu, vv, 1
_U_POW = np.array([2, 1, 0, 1, 0, 0])
_V_POW = np.array([0, 1, 2, 0, 1, 0])


def _centred_unit(t: np.ndarray) -> np.ndarray:
    """Coordinates shifted to mean 0, divided by their largest magnitude if above 1."""
    c = t - t.mean()
    return c / max(np.abs(c).max(), 1.0)


def _band_powers(bands: list[slice]) -> np.ndarray:
    """(n, bands, 5): on each band of an axis that `bands` tile, the powers
    0..4 of its centred unit coordinate; zero outside the band."""
    out = np.zeros((bands[-1].stop, len(bands), 5))
    for band, s in enumerate(bands):
        t = _centred_unit(np.arange(s.stop - s.start, dtype=np.float64))
        out[s, band, 0] = 1.0
        for i in range(1, 5):
            out[s, band, i] = out[s, band, i - 1] * t
    return out


@dataclass(frozen=True)
class PatchGrid:
    """Non-overlapping tiling of a rows x cols image into patches.

    When the image dimensions are not divisible by the grid, trailing
    patches absorb the remainder so the tiling stays exact.  A 1x1 grid is
    one patch: the whole image.

    Each patch's quadratic has 6 terms, uu^2, uu*vv, vv^2, uu, vv, 1, over
    its pixel coordinates centred on the patch and scaled to [-1, 1]: raw
    coordinates up to a few hundred pixels give normal equations with
    condition numbers around 1e10, while the scaled basis is benign.

    The tiling is a product of row bands and column bands, and the basis
    is separable: a patch's term uu^i * vv^j is row band powers P_u[:, i]
    times column band powers P_v[:, j].  So every patch's normal matrix
    is made of its moments m_ij = P_u^T W P_v (i, j <= 4) and its right-
    hand side of P_u^T (W X) P_v (i, j <= 2), and its surface is P_u C
    P_v^T with C[i, j] the coefficient of uu^i * vv^j; fit_all and
    surface_image compute them for all patches at once.
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
    def _bands(self) -> tuple[list[slice], list[slice]]:
        """Row band and column band slices; an axis's last band takes its remainder."""
        return tuple([slice(n // bands * i, n if i == bands - 1 else n // bands * (i + 1))
                      for i in range(bands)]
                     for n, bands in ((self.rows, self.patch_rows), (self.cols, self.patch_cols)))

    @cached_property
    def slices(self) -> list[tuple[slice, slice]]:
        """Row/col slice per patch, row-major over the patch grid."""
        row_bands, col_bands = self._bands
        return [(rs, cs) for rs in row_bands for cs in col_bands]

    @cached_property
    def _powers(self) -> tuple[np.ndarray, np.ndarray]:
        """P_u (rows, patch_rows, 5) and P_v (cols, patch_cols, 5), from _band_powers."""
        return tuple(_band_powers(bands) for bands in self._bands)

    def _moments(self, image: np.ndarray) -> np.ndarray:
        """(K, 5, 5) per-patch moments sum(image * uu^i * vv^j), i, j <= 4."""
        pu, pv = self._powers
        t = np.concatenate([image[:, cs] @ pv[cs, band] for band, cs in enumerate(self._bands[1])],
                           axis=1)
        # P_u^T as a C-order copy: with a transposed view BLAS sums to other bits
        pu_t = np.ascontiguousarray(pu.transpose(1, 2, 0)).reshape(-1, self.rows)
        m = (pu_t @ t).reshape(self.patch_rows, 5, self.patch_cols, 5)
        return m.transpose(0, 2, 1, 3).reshape(self.n_patches, 5, 5)

    def fit_all(self, image: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Per-patch weighted least-squares quadratics (scaled basis), shape (K, 6).

        Raises SingularFitError when a patch's normal equations lose rank
        (e.g. all its weights zero).
        """
        image = np.asarray(image, dtype=np.float64)
        weights = np.ones_like(image) if weights is None else np.asarray(weights, np.float64)
        normal = self._moments(weights)[:, _U_POW[:, None] + _U_POW, _V_POW[:, None] + _V_POW]
        rhs = self._moments(weights * image)[:, _U_POW, _V_POW]
        # a normal matrix is symmetric positive semi-definite: its condition
        # number is the ratio of its extreme eigenvalues
        eig = np.linalg.eigvalsh(normal)
        singular = ~(eig[:, 0] * 1e12 > eig[:, -1])
        if np.any(singular):
            k = int(np.argmax(singular))
            raise SingularFitError(
                "patch fit normal equations are rank deficient "
                f"(patch {k}, eigenvalues {eig[k, 0]:.3e} to {eig[k, -1]:.3e})"
            )
        return np.linalg.solve(normal, rhs[..., None])[..., 0]

    def surface_image(self, coeffs: np.ndarray) -> np.ndarray:
        """Assemble the per-patch quadratic surfaces into a full image."""
        c = np.zeros((self.n_patches, 3, 3))
        c[:, _U_POW, _V_POW] = coeffs
        c = c.reshape(self.patch_rows, self.patch_cols, 3, 3).transpose(0, 2, 1, 3)
        pu, pv = self._powers
        # P_v^T over powers 0..2, a C-order copy: BLAS multiplies a transposed view slower
        pv_t = np.ascontiguousarray(pv[:, :, :3].transpose(1, 2, 0)).reshape(-1, self.cols)
        out = np.empty((self.rows, self.cols))
        # one product per row band: one over the whole image is large enough
        # for OpenBLAS to start worker threads, whose spinning takes a core
        # from the other domain's solver
        for band, rs in enumerate(self._bands[0]):
            np.matmul(pu[rs, band, :3] @ c[band].reshape(3, -1), pv_t, out=out[rs])
        return out

    def expand_patch_values(self, values: np.ndarray) -> np.ndarray:
        """Broadcast one value per patch over its pixels."""
        row_sizes, col_sizes = ([s.stop - s.start for s in bands] for bands in self._bands)
        per_patch = np.reshape(np.asarray(values, np.float64), (self.patch_rows, self.patch_cols))
        return np.repeat(np.repeat(per_patch, row_sizes, 0), col_sizes, 1)

    def patch_norms(self, residual: np.ndarray) -> np.ndarray:
        """2-norm of a residual image restricted to each patch."""
        return np.sqrt([dot(residual[s], residual[s]) for s in self.slices])


@dataclass(frozen=True)
class FlipOperator:
    """Vertical mirror about a fixed row, with an excluded bottom band.

    The mirror pairs row flip_row - j with row flip_row + j for j = 1..k,
    k as large as keeps both rows inside the image and above the excluded
    bottom band (those rows carry no symmetry information).  The mirror is
    its two row halves (halves): the penalty and the x-step operator both
    pair them, and every other row, the flip row included, takes no part.
    """

    flip_row: int
    excluded_bottom_rows: int = 0

    def __post_init__(self):
        for name in ("flip_row", "excluded_bottom_rows"):
            value = getattr(self, name)
            if not (json_fits(value, "int") and value >= 0):
                raise ValueError(f"{name} must be non-negative and an int, got {value!r}")

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


def symmetry_penalty(image: np.ndarray, op: FlipOperator) -> float:
    """Sum of squared mirror residuals over the two mirrored halves.

    Each half's residual is the other's mirrored and negated, so the sum
    is twice that of one half.
    """
    lower, upper = op.halves(image.shape[0])
    d = image[lower] - image[upper][::-1]
    return 2.0 * dot(d, d)


def gradient_penalty(image: np.ndarray) -> float:
    """Sum of squared forward differences along both axes."""
    dh = image[:, 1:] - image[:, :-1]
    dv = image[1:] - image[:-1]
    return dot(dh, dh) + dot(dv, dv)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a*b over two same-shape 2-D arrays, summed outside BLAS.

    OpenBLAS threads its dot product above about 10,000 elements, and its
    threaded partial sums make a float64 result depend on the BLAS thread
    count; einsum's single-threaded loop gives the same bits whatever that
    count is, and leaves no BLAS worker spinning on another core.
    """
    return float(np.einsum("ij,ij->", a, b))


def neighbour_sum(image: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of each pixel's in-image 4-neighbours: the stencil's off-diagonal.

    Written into `out` when given, a buffer of the image's shape.
    """
    out = np.empty_like(image) if out is None else out
    out[:, :-1] = image[:, 1:]
    out[:, -1] = 0.0
    out[:, 1:] += image[:, :-1]
    out[:-1, :] += image[1:, :]
    out[1:, :] += image[:-1, :]
    return out
