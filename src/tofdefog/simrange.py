"""Measurement-range simulation: saturation and residual-direct curves.

Sweeping an object over depth z produces four curves: the backscatter
amplitude and phase accumulated up to z, and the residuals left after
subtracting that backscatter from the total observation, which show how
much direct component survives at each depth.  The usable measurement
range sits between the depth where the backscatter has saturated and the
depth where the residual direct component disappears into it.

Curve values are raw model units (reflectance / mm^2 for amplitudes,
radians for phases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CameraModel, json_fits, wrap_phase
from .forward import MediumParams, direct_phasor, scattering_phasor

DEFAULT_Z_GRID = (10.0, 10000.0, 10.0)  # start, stop, step (mm)
SAT_TOL = 0.01   # find_range's relative tolerances
BG_TOL = 0.01


@dataclass
class RangeSweep:
    """Depth-sweep curves; see module docstring for units."""

    z_mm: np.ndarray
    alpha_s: np.ndarray
    phi_s: np.ndarray
    residual_amp: np.ndarray
    residual_phase: np.ndarray


def sweep(medium: MediumParams, cam: CameraModel, reflectance: float = 1.0) -> RangeSweep:
    """Evaluate the saturation and residual curves over a depth grid.

    The grid is DEFAULT_Z_GRID's, started at the medium's z0 when that lies
    deeper and stopped below the unambiguous range c/(2f).
    """
    if not (json_fits(reflectance, "float") and reflectance >= 0):
        raise ValueError(f"reflectance must be finite and non-negative, got {reflectance!r}")
    start, stop, step = DEFAULT_Z_GRID
    end = min(stop + 0.5 * step, cam.unambiguous_range_mm)
    z_mm = np.arange(max(start, medium.z0), end, step)
    if z_mm.size == 0:
        raise ValueError(f"z0={medium.z0!r} leaves no depth below the grid's end, {end:.1f} mm")

    scat = scattering_phasor(z_mm, medium, cam)
    direct = direct_phasor(z_mm, reflectance, medium, cam)
    total = direct + scat

    alpha_s = np.abs(scat)
    # zero scattering carries no phase; report 0 by convention
    phi_s = np.where(alpha_s > 0, wrap_phase(np.angle(scat)), 0.0)
    residual_amp = np.abs(total) - alpha_s
    residual_phase = wrap_phase(np.angle(total) - np.where(alpha_s > 0, np.angle(scat), 0.0))

    return RangeSweep(
        z_mm=z_mm,
        alpha_s=alpha_s,
        phi_s=phi_s,
        residual_amp=residual_amp,
        residual_phase=residual_phase,
    )


def find_range(sweep_: RangeSweep) -> tuple[float, float]:
    """Usable measurement range (z_saturate, z_background) from the curves.

    z_saturate: smallest z whose backscatter amplitude is within SAT_TOL of
    the far-end value.  z_background: smallest z where the residual direct
    amplitude has dropped below BG_TOL of the saturated backscatter level
    (the signal it has to be distinguished from); math.inf when the direct
    component never becomes negligible, e.g. beta = 0.
    """
    alpha_max = float(sweep_.alpha_s[-1])
    if alpha_max <= 0.0:
        return float(sweep_.z_mm[0]), math.inf
    sat_ok = (1.0 - sweep_.alpha_s / alpha_max) < SAT_TOL
    z_sat = float(sweep_.z_mm[np.argmax(sat_ok)]) if sat_ok.any() else math.inf
    bg_ok = np.abs(sweep_.residual_amp) < BG_TOL * float(np.max(sweep_.alpha_s))
    z_bg = float(sweep_.z_mm[np.argmax(bg_ok)]) if bg_ok.any() else math.inf
    return z_sat, z_bg


def write_csv(sweep_: RangeSweep, path):
    """Emit the sweep as CSV: a header row of the field names, then one column per field.

    Depths are written %.6g and curves %.9e, comma-separated, each line
    ended by CRLF: np.savetxt's bytes for those settings, formatted as one
    string.
    """
    columns = vars(sweep_)
    row = ",".join(["%.6g"] + ["%.9e"] * 4) + "\r\n"
    values = np.column_stack(list(columns.values()))
    body = (row * len(values)) % tuple(values.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n" + body)


def write_gnuplot_script(csv_path, script_path):
    """Companion gnuplot script plotting the four curves from the CSV into `csv_path`.png."""
    csv_path = str(csv_path).replace("'", "''")  # gnuplot's escape inside '...'
    lines = [
        "set datafile separator ','",
        f"set output '{csv_path}.png'",
        "set terminal pngcairo size 1200,800",
        "set multiplot layout 2,2",
        "set xlabel 'z (mm)'",
        f"plot '{csv_path}' using 1:2 with lines title 'alpha_s'",
        f"plot '{csv_path}' using 1:3 with lines title 'phi_s'",
        f"plot '{csv_path}' using 1:4 with lines title 'residual amplitude'",
        f"plot '{csv_path}' using 1:5 with lines title 'residual phase'",
        "unset multiplot",
    ]
    with open(script_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
