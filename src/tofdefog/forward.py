"""Forward model: fog synthesis, backscatter integral, beta calibration.

The single-backscatter model along a line of sight: a surface at depth z
returns the attenuated direct phasor (I/z^2) e^{-2 beta z} e^{j kappa z},
and the medium itself returns the integrated backscatter

    integral_{z0}^{z} (1/s^2) beta P(pi) e^{-2 beta s} e^{j kappa s} ds

with P the Henyey-Greenstein phase function and kappa = 4 pi f / c.  The
backscatter saturates within roughly a meter, which is what makes the
per-pixel scattering field independent of scene depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (CameraModel, DepthImage, ObjectMask, PhasorImage, ScatteringField, bounds,
                   json_fits, rectangular, wrap_phase)

# Log-spaced quadrature: the 1/z^2 spike at the near end of the integral
# wants resolution proportional to z, so nodes sit at z0 * exp(k*h).  1000
# points per e-fold keeps the halving-refinement change below 1e-6.
QUAD_POINTS_PER_EFOLD = 1000
QUAD_Z_CAP_MM = 20000.0


@dataclass(frozen=True)
class MediumParams:
    """Homogeneous participating medium along the line of sight."""

    beta: float                  # scattering coefficient, 1/mm
    g: float = 0.9               # HG anisotropy, (-1, 1); 0.9 is typical fog
    z0: float = 10.0             # integration start distance, mm
    z_saturate: float = 1000.0   # distance past which backscatter is flat, mm

    def __post_init__(self):
        # json_fits rejects a bool, NaN and inf
        if not (json_fits(self.beta, "float") and 0 <= self.beta):
            raise ValueError(f"beta must be finite and non-negative, got {self.beta!r}")
        if not (json_fits(self.g, "float") and -1.0 < self.g < 1.0):
            raise ValueError(f"g must lie in (-1, 1), got {self.g!r}")
        if not (json_fits(self.z0, "float") and json_fits(self.z_saturate, "float")
                and 0 < self.z0 < self.z_saturate):
            raise ValueError(f"z0 must satisfy 0 < z0 < z_saturate < inf, "
                             f"got z0={self.z0!r}, z_saturate={self.z_saturate!r}")


def hg_phase(theta, g: float):
    """Henyey-Greenstein phase function, normalized over the sphere."""
    if not (-1.0 < g < 1.0):
        raise ValueError("g must lie in (-1, 1)")
    theta = np.asarray(theta, dtype=np.float64)
    denom = (1.0 + g * g - 2.0 * g * np.cos(theta)) ** 1.5
    out = (1.0 / (4.0 * np.pi)) * (1.0 - g * g) / denom
    return out if out.ndim else float(out)


def scattering_phasor(z, medium: MediumParams, cam: CameraModel) -> complex | np.ndarray:
    """Backscatter phasor accumulated from z0 to each depth in z (complex).

    The integral runs to min(z, quadrature cap); the integrand is
    exponentially damped so the cap is immaterial for any realistic beta.
    It is a trapezoid rule in t = ln z over the nodes z0*exp(k*h),
    h = 1/QUAD_POINTS_PER_EFOLD.  The node set is nested across depths, so one
    cumulative sum over the nodes up to the deepest depth serves every
    depth: z_end takes the prefix sum to node k = floor(ln(z_end/z0)/h)
    plus a closing segment from node k to z_end.  When node k rounds onto
    or past z_end, z_end replaces it and the closing segment starts at
    node k-1.  A scalar z gives a complex, an array an array of its shape.
    """
    z = np.asarray(z, dtype=np.float64)
    below = z[~(z >= medium.z0)]
    if below.size:
        raise ValueError(f"z={below.min()} is below the integration start z0={medium.z0}")
    out = np.zeros(z.shape, dtype=np.complex128)
    z_end = np.minimum(z, QUAD_Z_CAP_MM)
    live = z_end > medium.z0
    if medium.beta > 0.0 and live.any():
        z_end, h = z_end[live], 1.0 / QUAD_POINTS_PER_EFOLD
        k = np.floor(np.log(z_end / medium.z0) / h).astype(np.intp)
        nodes = medium.z0 * np.exp(np.arange(k.max() + 1) * h)
        k -= nodes[k] >= z_end
        p_back, kappa = hg_phase(np.pi, medium.g), cam.phase_per_mm

        def integrand_dt(zs):  # dz = z dt: the rule integrates in t = ln z
            return ((1.0 / (zs * zs)) * medium.beta * p_back
                    * np.exp(-2.0 * medium.beta * zs) * np.exp(1j * kappa * zs) * zs)

        t, f = np.log(nodes), integrand_dt(nodes)
        prefix = np.concatenate(([0.0], np.cumsum(np.diff(t) * (f[1:] + f[:-1]) / 2.0)))
        out[live] = prefix[k] + (np.log(z_end) - t[k]) * (integrand_dt(z_end) + f[k]) / 2.0
    return out if out.ndim else complex(out)


def direct_phasor(z, reflectance, medium: MediumParams, cam: CameraModel):
    """Attenuated direct-return phasor (I/z^2) e^{-2 beta z} e^{j kappa z}."""
    z = np.asarray(z, dtype=np.float64)
    bad = z[~((0 < z) & (z < np.inf))]  # NaN fails both comparisons
    if bad.size:
        raise ValueError(f"depth must be finite and positive, got {bad.flat[0]}")
    out = rectangular((reflectance / (z * z)) * np.exp(-2.0 * medium.beta * z),
                      cam.phase_per_mm * z)
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class CalibrationSet:
    """Pixelwise (clean amplitude, foggy direct amplitude, distance) triples, finite and > 0."""

    clean_amplitude: np.ndarray
    foggy_direct_amplitude: np.ndarray
    distance_mm: np.ndarray

    def __post_init__(self):
        for name in ("clean_amplitude", "foggy_direct_amplitude", "distance_mm"):
            values = np.asarray(getattr(self, name), np.float64)
            bad = values[~((0 < values) & (values < np.inf))]  # NaN fails both comparisons
            if bad.size:
                raise ValueError(f"calibration {name} must be finite and > 0, got {bad.flat[0]}")
            object.__setattr__(self, name, values)
        if not (self.clean_amplitude.shape == self.foggy_direct_amplitude.shape
                == self.distance_mm.shape):
            raise ValueError("calibration arrays must share one shape")
        if self.clean_amplitude.size == 0:
            raise ValueError("calibration set is empty")


def estimate_beta(cal: CalibrationSet) -> float:
    """Scattering coefficient from attenuation of known surfaces.

    Inverts alpha_d = e^{-2 beta d} alpha_hat per pixel and averages:
    beta = mean( (log alpha_hat - log alpha_d) / (2 d) ).
    """
    per_pixel = (
        np.log(cal.clean_amplitude) - np.log(cal.foggy_direct_amplitude)
    ) / (2.0 * cal.distance_mm)
    return float(per_pixel.mean())


@dataclass(frozen=True)
class ScatterProfile:
    """Analytic spatial structure of the synthetic scattering field.

    The medium's saturated backscatter phasor, scattering_phasor at
    z_saturate, sets the field's scale; the spatial modulation mimics the
    limited illumination beam: a quadratic radial falloff on amplitude and
    a quadratic vertical profile on phase, both mirror-symmetric about
    flip_row.  Being globally quadratic, the profiles satisfy the
    estimator's patchwise-quadratic prior exactly.
    """

    flip_row: int = 200
    amplitude_falloff: float = 0.3   # fraction lost at the profile edge
    phase_falloff: float = 0.1

    def __post_init__(self):
        if not json_fits(self.flip_row, "int"):
            raise ValueError(f"flip_row must be an int, got {self.flip_row!r}")
        for name in ("amplitude_falloff", "phase_falloff"):
            value = getattr(self, name)
            if not (json_fits(value, "float") and 0 <= value < 0.5):
                raise ValueError(f"{name} must lie in [0, 0.5), got {value!r}")

    def fields(self, shape, medium: MediumParams, cam: CameraModel):
        """Per-pixel scattering amplitude grid, and the phase as a (rows, 1) column.

        The phase varies by row alone, so the column broadcasts to the grid.
        """
        rows, cols = shape
        if not (0 <= self.flip_row < rows):
            raise ValueError("profile flip_row outside the image")
        sat = scattering_phasor(medium.z_saturate, medium, cam)
        a_peak = abs(sat)
        p_peak = float(wrap_phase(np.angle(sat))) if a_peak > 0 else 0.0
        ru = max(self.flip_row, rows - 1 - self.flip_row, 1)
        rv = max((cols - 1) / 2.0, 1.0)
        u = (np.arange(rows, dtype=np.float64)[:, None] - self.flip_row) / ru
        v = (np.arange(cols, dtype=np.float64)[None, :] - (cols - 1) / 2.0) / rv
        # a_peak * (1 - falloff * (u*u + v*v)), in the one grid it fills
        amp = np.add(u * u, v * v)
        amp *= self.amplitude_falloff
        np.subtract(1.0, amp, out=amp)
        amp *= a_peak
        phase = p_peak * (1.0 - self.phase_falloff * (u * u))
        return amp, phase


class MeasuredScattering(PhasorImage):
    """Scattering field given as measured amplitude/phase grids, checked and wrapped as built."""

    def fields(self, shape, medium, cam):
        if self.shape != tuple(shape):
            raise ValueError(f"measured scattering field shape mismatch: "
                             f"{self.shape} for a {tuple(shape)} scene")
        return self.amplitude, self.phase


@dataclass
class SceneSpec:
    """Synthetic scene: geometry, reflectance, medium and scattering source.

    depth_map uses +inf (or NaN) for background pixels that contain no
    surface; reflectance_map is the per-pixel albedo-and-shading factor.
    """

    depth_map: np.ndarray
    reflectance_map: np.ndarray
    cam: CameraModel
    medium: MediumParams
    scattering: ScatterProfile | MeasuredScattering = field(default_factory=ScatterProfile)
    labels: np.ndarray | None = None   # optional per-object region ids
    # the files load_scene read the scene from, its JSON and each grid, to their sha256s
    sources: dict = field(default_factory=dict)

    def __post_init__(self):
        self.depth_map = np.asarray(self.depth_map, dtype=np.float64)
        self.reflectance_map = np.asarray(self.reflectance_map, dtype=np.float64)
        if self.depth_map.shape != self.reflectance_map.shape:
            raise ValueError("depth and reflectance shapes differ")
        if self.depth_map.shape != (self.cam.rows, self.cam.cols):
            raise ValueError("scene grids do not match the camera size")
        if self.labels is not None and np.shape(self.labels) != self.depth_map.shape:
            raise ValueError(f"labels shape {np.shape(self.labels)} differs from the scene's")
        lo, hi = bounds(self.reflectance_map)
        if not (0 <= lo and hi < np.inf):  # NaN fails both comparisons
            raise ValueError("reflectance must be non-negative and finite")
        z = self.depth_map[self.valid_depth()]
        if z.size and not (self.medium.z0 < z.min() and z.max() < self.cam.unambiguous_range_mm):
            raise ValueError(
                "valid depths must lie within (z0, unambiguous range)"
            )

    def valid_depth(self) -> np.ndarray:
        return np.isfinite(self.depth_map)


@dataclass
class SynthesisResult:
    foggy: PhasorImage
    clean_depth: DepthImage
    scattering_amplitude: ScatteringField
    scattering_phase: ScatteringField
    true_mask: ObjectMask


def synthesize(scene: SceneSpec, noise_sigma: float = 0.0,
               noise_seed: int = 0) -> SynthesisResult:
    """Build the foggy observation plus ground truth for a synthetic scene.

    Surface pixels get direct + scattering; background pixels carry the
    scattering component only.  Optional sensor noise is additive Gaussian
    on the rectangular components, seeded for reproducibility.  The seed
    must be an int >= 0 whether or not there is noise to draw.
    """
    # json_fits refuses a bool, a string, None, NaN and inf, which would pass as some noise or none
    if not (json_fits(noise_sigma, "float") and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    if not (json_fits(noise_seed, "int") and noise_seed >= 0):
        raise ValueError(f"noise_seed must be an int >= 0, got {noise_seed!r}")
    shape = scene.depth_map.shape
    # an amplitude >= 0 and a phase in [0, 2*pi) from either source: a measured
    # field is a PhasorImage, and the profile's phase lies in [0, p_peak]
    amp_s, phase_s = scene.scattering.fields(shape, scene.medium, scene.cam)
    total = rectangular(amp_s, phase_s)
    valid = scene.valid_depth()
    if valid.any():
        total[valid] += direct_phasor(
            scene.depth_map[valid], scene.reflectance_map[valid],
            scene.medium, scene.cam,
        )
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        total += rng.normal(0.0, noise_sigma, total.shape)
        total += 1j * rng.normal(0.0, noise_sigma, total.shape)

    foggy = PhasorImage.from_complex(total)
    del total  # the grids below reuse its memory
    if phase_s.shape != shape:  # the analytic profile's row column
        phase_s = np.broadcast_to(phase_s, shape).copy()
    return SynthesisResult(
        foggy=foggy,
        clean_depth=DepthImage(depth=scene.depth_map),
        scattering_amplitude=ScatteringField(values=amp_s),
        scattering_phase=ScatteringField(values=phase_s),
        true_mask=ObjectMask(mask=valid),
    )
