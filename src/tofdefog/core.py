"""Image types (PhasorImage, DepthImage, ScatteringField, ObjectMask) and phase/depth conversion.

A continuous-wave ToF observation at a pixel is a complex phasor
``amplitude * exp(j*phase)``.  Observables are kept in polar form
(amplitude, phase) because that is what the sensor reports; sums and
differences go through rectangular form internally.

Conventions used throughout the package:
  * distances are millimeters, phases are radians wrapped to [0, 2*pi),
  * grids are 2-D float64 numpy arrays, row-major, shape (rows, cols).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

# Speed of light in mm/s; all distances in this package are millimeters.
SPEED_OF_LIGHT_MM_S = 2.99792458e11

# Below this amplitude (sensor units) the phase of a phasor is numerically
# meaningless and is reported as 0 / flagged invalid downstream.
AMPLITUDE_EPSILON = 1e-9

TWO_PI = 2.0 * np.pi


class InputError(ValueError):
    """An input that is well formed but does not fit its role, such as a grid of another domain."""


def bounds(values) -> tuple[float, float]:
    """The least and greatest of `values` and 0, as floats; both NaN when a value is NaN.

    One read each, where a check through boolean grids reads a grid per
    comparison.  Every value check in this package accepts 0, so taking it
    in changes no outcome and lets an empty grid pass.
    """
    values = np.asarray(values)
    return float(values.min(initial=0.0)), float(values.max(initial=0.0))


def wrap_phase(phase):
    """Wrap phase values into [0, 2*pi), as a float64 array (0-d for a scalar).

    The bits are np.mod(phase, 2*pi)'s, but np.mod's exact 2*pi (for values
    in about [-4.4e-16, 0)) is 0.  Within (-2*pi, 2*pi), np.mod's remainder
    is the value plus 2*pi below 0 and plus 0.0 elsewhere (-0.0 becomes
    +0.0), which one addition gives without np.mod's division.
    """
    phase = np.asarray(phase, dtype=np.float64)
    wrapped = np.empty(phase.shape)
    lo, hi = bounds(phase)
    if -TWO_PI < lo and hi < TWO_PI:
        np.less(phase, 0.0, out=wrapped)
        wrapped *= TWO_PI
        wrapped += phase
    else:  # beyond one turn, and NaN or inf
        np.mod(phase, TWO_PI, out=wrapped)
    wrapped[wrapped >= TWO_PI] = 0.0
    return wrapped


def rectangular(amplitude, phase) -> np.ndarray:
    """amplitude * exp(j*phase), bit for bit, built in one complex grid.

    A phase smaller than the result, such as a (rows, 1) column, takes its
    exp at its own shape, and the product broadcasts it.
    """
    shape = np.broadcast_shapes(np.shape(amplitude), np.shape(phase))
    out = np.empty(shape, dtype=np.complex128)
    if np.shape(phase) == shape:
        np.multiply(phase, 1j, out=out)
        np.exp(out, out=out)
        out *= amplitude
    else:
        np.multiply(np.exp(np.multiply(phase, 1j)), amplitude, out=out)
    return out


def polar(values) -> tuple[np.ndarray, np.ndarray]:
    """(modulus, argument) grids of a complex grid, the argument in (-pi, pi].

    Pixels with modulus below AMPLITUDE_EPSILON get phase 0: the argument
    of a near-zero complex number carries no information.
    """
    values = np.asarray(values, dtype=np.complex128)
    amplitude = np.abs(values)
    phase = np.angle(values)
    phase[amplitude < AMPLITUDE_EPSILON] = 0.0
    return amplitude, phase


@dataclass(frozen=True)
class CameraModel:
    """Continuous-wave ToF camera: modulation frequency and sensor size."""

    modulation_frequency_hz: float
    rows: int = 424
    cols: int = 512

    def __post_init__(self):
        freq = self.modulation_frequency_hz
        if not (json_fits(freq, "float") and freq > 0):
            raise ValueError(f"modulation_frequency_hz must be finite and positive, got {freq!r}")
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if not (json_fits(value, "int") and value > 0):
                raise ValueError(f"sensor dimensions must be positive ints, got {name}={value!r}")

    @property
    def unambiguous_range_mm(self) -> float:
        """Largest depth representable without phase wrapping, c/(2f)."""
        return SPEED_OF_LIGHT_MM_S / (2.0 * self.modulation_frequency_hz)

    @property
    def phase_per_mm(self) -> float:
        """Phase shift accumulated per mm of depth, 4*pi*f/c."""
        return 4.0 * np.pi * self.modulation_frequency_hz / SPEED_OF_LIGHT_MM_S


@dataclass
class PhasorImage:
    """Paired amplitude and wrapped-phase grids of equal shape."""

    amplitude: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        self.amplitude = np.asarray(self.amplitude, dtype=np.float64)
        self.phase = np.asarray(self.phase, dtype=np.float64)
        if self.amplitude.shape != self.phase.shape:
            raise ValueError(
                f"amplitude shape {self.amplitude.shape} != phase shape {self.phase.shape}"
            )
        a_lo, a_hi = bounds(self.amplitude)
        p_lo, p_hi = bounds(self.phase)
        if not (0 <= a_lo and a_hi < math.inf and -math.inf < p_lo and p_hi < math.inf):
            if np.any(self.amplitude < 0):  # a NaN hides a negative value from bounds()
                raise ValueError("amplitude must be non-negative")
            raise ValueError("phasor grids must be finite")
        self.phase = wrap_phase(self.phase)

    @property
    def shape(self):
        return self.amplitude.shape

    def to_complex(self) -> np.ndarray:
        """Rectangular form, amplitude * exp(j*phase)."""
        return rectangular(self.amplitude, self.phase)

    @classmethod
    def from_complex(cls, values: np.ndarray) -> "PhasorImage":
        """Polar form of a complex grid, as `polar` gives it."""
        return cls(*polar(values))

    def valid(self) -> np.ndarray:
        """Pixels whose amplitude is large enough for the phase to be defined."""
        return self.amplitude >= AMPLITUDE_EPSILON


@dataclass
class DepthImage:
    """Metric depth grid (mm).

    +inf is the one encoding of "no depth" (NaN and -inf are stored as it),
    so depth grids round-trip through files that encode background as IEEE
    infinity; `valid` marks the pixels that have a depth.
    """

    depth: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=np.float64)
        self.depth = np.where(np.isfinite(depth), depth, np.inf)

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.depth)

    @property
    def shape(self):
        return self.depth.shape


@dataclass
class ScatteringField:
    """Per-pixel scattering component for one domain, synthesized or estimated."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        lo, hi = bounds(self.values)
        if not (-math.inf < lo and hi < math.inf):
            raise ValueError("scattering field must be finite")


@dataclass
class ObjectMask:
    """Boolean grid, true where a pixel belongs to the object region."""

    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)

    @property
    def shape(self):
        return self.mask.shape

    def count(self) -> int:
        return int(self.mask.sum())


def phase_to_depth(phase, cam: CameraModel):
    """Depth (mm) from phase shift: z = c*phi / (4*pi*f).

    Accepts scalars or arrays; phase must be finite and in [0, 2*pi).
    """
    phase = np.asarray(phase, dtype=np.float64)
    lo, hi = bounds(phase)
    if not (0 <= lo and hi < TWO_PI):
        if not np.all(np.isfinite(phase)):
            raise ValueError("phase must be finite")
        raise ValueError("phase must lie in [0, 2*pi)")
    depth = phase / cam.phase_per_mm
    return depth if depth.ndim else float(depth)


def depth_to_phase(depth_mm, cam: CameraModel):
    """Phase shift from depth; rejects depths at or beyond c/(2f).

    No wrapping is applied: a depth outside the unambiguous range is an
    input error, not a silently aliased measurement.
    """
    depth_mm = np.asarray(depth_mm, dtype=np.float64)
    if not np.all(np.isfinite(depth_mm)):
        raise ValueError("depth must be finite")
    if np.any(depth_mm < 0) or np.any(depth_mm >= cam.unambiguous_range_mm):
        raise ValueError(
            f"depth must lie in [0, {cam.unambiguous_range_mm:.3f}) mm"
        )
    phase = depth_mm * cam.phase_per_mm
    return phase if phase.ndim else float(phase)


def _check_same_shape(a: PhasorImage, b: PhasorImage):
    if a.shape != b.shape:
        raise ValueError(f"phasor image shapes differ: {a.shape} vs {b.shape}")


def phasor_add(a: PhasorImage, b: PhasorImage) -> PhasorImage:
    """Per-pixel complex sum of two phasor images."""
    _check_same_shape(a, b)
    return PhasorImage.from_complex(a.to_complex() + b.to_complex())


def phasor_subtract(a: PhasorImage, b: PhasorImage) -> PhasorImage:
    """Per-pixel complex difference a - b of two phasor images."""
    _check_same_shape(a, b)
    return PhasorImage.from_complex(a.to_complex() - b.to_complex())


def read_json(path) -> tuple:
    """The JSON document in file `path` and its bytes' sha256; a decode error names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from exc
    except UnicodeDecodeError as exc:  # a document that is not UTF-8
        raise ValueError(f"{path}: {exc}") from exc


def json_fits(value, kind: str) -> bool:
    """Whether a JSON value fits a field annotated `kind`: int, or finite float; never a bool."""
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


def json_keys(doc, what: str, required=(), optional=()) -> dict:
    """`doc`, which must be a JSON object with each `required` key and no others but `optional`.

    A ValueError names a non-object's type, else the unknown keys, else the missing ones.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc).difference(required, optional))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [name for name in required if name not in doc]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(missing)}")
    return doc


def json_kwargs(cls, doc, what: str, extra=()) -> dict:
    """A JSON object's entries for the fields of dataclass `cls`, as keyword arguments.

    json_keys requires the fields without a default and allows the others and
    `extra`, whose keys are left out.  The values pass as they are: each class
    built from a JSON object checks its own fields' types.
    """
    names = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    json_keys(doc, what, required, [*names, *extra])
    return {name: doc[name] for name in names if name in doc}
