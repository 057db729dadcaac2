import math
import re

import numpy as np
import pytest
from scipy.integrate import simpson

import tofdefog as td
from tofdefog.forward import direct_phasor, scattering_phasor
from tofdefog.simrange import RangeSweep, find_range, sweep, write_csv

CAM = td.CameraModel(16e6)
FOG_MEDIUM = td.MediumParams(beta=3.2e-4, g=0.9, z0=10.0, z_saturate=1000.0)


def reference_sweep():
    return sweep(FOG_MEDIUM, CAM, reflectance=1.0)


def test_sweep_without_medium():
    medium = td.MediumParams(beta=0.0)
    s = sweep(medium, CAM, reflectance=1.0)
    assert np.all(s.alpha_s == 0.0)
    assert np.allclose(s.residual_phase, td.depth_to_phase(s.z_mm, CAM), rtol=1e-12)
    z_sat, z_bg = find_range(s)
    assert math.isinf(z_bg)


@pytest.mark.parametrize("freq, z0, last", [
    (16e6, 10.0, 9360.0),    # c/(2f) = 9,368.5 mm
    (20e6, 50.0, 7490.0),    # c/(2f) = 7,494.8 mm
    (8e6, 10.0, 10000.0),    # c/(2f) = 18,737 mm lies past the 10 m stop
])
def test_default_grid_runs_from_z0_to_below_the_unambiguous_range(freq, z0, last):
    medium = td.MediumParams(beta=3.2e-4, g=0.9, z0=z0, z_saturate=1000.0)
    z = sweep(medium, td.CameraModel(freq)).z_mm
    assert z[0] == z0 and z[-1] == last
    assert np.allclose(np.diff(z), 10.0)


def test_sweep_saturation_ratio():
    s = reference_sweep()
    a = dict(zip(s.z_mm, s.alpha_s))
    assert a[1000.0] / a[8000.0] > 0.99


def test_sweep_residual_attenuation_matches_reference_point():
    s = reference_sweep()
    r = dict(zip(s.z_mm, s.residual_amp))
    assert abs(r[2500.0]) < 0.01 * abs(r[1000.0])
    # independent quadrature oracle for the 2500 mm residual
    zs = np.linspace(10.0, 2500.0, 400001)
    p_back = td.hg_phase(np.pi, 0.9)
    integrand = (3.2e-4 * p_back / zs ** 2) * np.exp(-2 * 3.2e-4 * zs) \
        * np.exp(1j * CAM.phase_per_mm * zs)
    scat = simpson(integrand, x=zs)
    direct = np.exp(-2 * 3.2e-4 * 2500.0) / 2500.0 ** 2 \
        * np.exp(1j * CAM.phase_per_mm * 2500.0)
    oracle = abs(direct + scat) - abs(scat)
    assert r[2500.0] == pytest.approx(oracle, rel=1e-3)


def test_sweep_residual_amp_decays():
    s = reference_sweep()
    near = np.abs(s.residual_amp[s.z_mm <= 500.0])
    far = np.abs(s.residual_amp[s.z_mm >= 5000.0])
    assert far.max() < 1e-3 * near.max()


def test_find_range_covers_reference_working_range():
    z_sat, z_bg = find_range(reference_sweep())
    assert z_sat <= 1000.0
    assert z_bg >= 2500.0
    assert z_sat < z_bg


def test_find_range_matches_linear_scan_on_monotone_curves():
    z = np.arange(10.0, 2000.0, 10.0)
    alpha = 1.0 - np.exp(-z / 300.0)
    resid = np.exp(-z / 250.0)
    s = RangeSweep(z_mm=z, alpha_s=alpha, phi_s=np.zeros_like(z),
                   residual_amp=resid, residual_phase=np.zeros_like(z))
    z_sat, z_bg = find_range(s)
    scan_sat = next(zz for zz, a in zip(z, alpha) if 1 - a / alpha[-1] < 0.01)
    scan_bg = next(zz for zz, r in zip(z, resid) if abs(r) < 0.01 * alpha.max())
    assert z_sat == scan_sat
    assert z_bg == scan_bg


def test_find_range_shrinks_with_beta():
    backgrounds = []
    for beta in (1.6e-4, 3.2e-4, 4.8e-4):
        medium = td.MediumParams(beta=beta, g=0.9, z0=10.0, z_saturate=1000.0)
        _, z_bg = find_range(sweep(medium, CAM))
        backgrounds.append(z_bg)
    assert backgrounds[0] > backgrounds[1] > backgrounds[2]


def test_find_range_stable_under_grid_refinement():
    # the default 10 mm grid against a 5 mm one over the same depths
    s = reference_sweep()
    z = np.arange(s.z_mm[0], s.z_mm[-1] + 1.0, 5.0)
    scat = scattering_phasor(z, FOG_MEDIUM, CAM)
    total = direct_phasor(z, 1.0, FOG_MEDIUM, CAM) + scat
    fine = RangeSweep(z_mm=z, alpha_s=np.abs(scat), phi_s=np.zeros_like(z),
                      residual_amp=np.abs(total) - np.abs(scat), residual_phase=np.zeros_like(z))
    sat_c, bg_c = find_range(s)
    sat_f, bg_f = find_range(fine)
    assert abs(sat_c - sat_f) <= 10.0
    assert abs(bg_c - bg_f) <= 10.0


def test_csv_columns(tmp_path):
    path = tmp_path / "sweep.csv"
    s = reference_sweep()
    write_csv(s, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "z_mm,alpha_s,phi_s,residual_amp,residual_phase"
    assert len(lines) == 1 + s.z_mm.size


def test_csv_bytes(tmp_path):
    # read as bytes: read_text() would fold the \r\n terminators
    path = tmp_path / "sweep.csv"
    s = reference_sweep()
    write_csv(s, path)
    lines = path.read_bytes().split(b"\r\n")
    assert lines.pop() == b"" and not any(b"\n" in line or b"\r" in line for line in lines)
    assert lines[0] == b"z_mm,alpha_s,phi_s,residual_amp,residual_phase"
    assert lines[1] == b"10,0.000000000e+00,0.000000000e+00,9.936204364e-03,6.706704070e-03"
    assert lines[2] == b"20,3.495825142e-08,9.294110117e-03,2.468203929e-03,4.119239681e-03"
    assert len(lines) == 1 + s.z_mm.size
    curve = rb"-?\d\.\d{9}e[+-]\d{2}"
    for z, line in zip(s.z_mm, lines[1:]):
        assert re.fullmatch(rb"%s(,%s){4}" % (b"%.6g" % z, curve), line)


@pytest.mark.parametrize("beta", [3.2e-4, 0.0])
def test_csv_is_np_savetxt_byte_for_byte(tmp_path, beta):
    s = sweep(td.MediumParams(beta=beta, g=0.9, z0=10.0, z_saturate=1000.0), CAM)
    write_csv(s, tmp_path / "sweep.csv")
    columns = vars(s)
    with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(list(columns.values())), fmt=["%.6g"] + ["%.9e"] * 4,
                   delimiter=",", newline="\r\n", header=",".join(columns), comments="")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
