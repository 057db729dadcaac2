import hashlib
import json
import re

import numpy as np
import pytest

from tofdefog.core import wrap_phase
from tofdefog.gridfile import GridFormatError, read_grid, write_grid


def test_round_trip_bit_identical_payload(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 5, (17, 23))
    path = tmp_path / "a.tofgrid"
    written = write_grid(path, values, "amplitude")
    grid = read_grid(path)
    # both digests are of the file's bytes, taken without reading it back
    assert written == grid.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert grid.domain == "amplitude"
    assert grid.units == "sensor"
    # payload is float32: reading back must reproduce those bytes exactly
    assert grid.values.astype("<f4").tobytes() == values.astype("<f4").tobytes()
    # a second write of the read values is byte-identical
    path2 = tmp_path / "b.tofgrid"
    write_grid(path2, grid.values, "amplitude")
    assert path.read_bytes() == path2.read_bytes()
    assert grid.modulation_frequency_hz is None


def test_capture_frequency_round_trips_through_the_header(tmp_path):
    values = np.full((3, 4), 0.5)
    plain, capture = tmp_path / "plain.tofgrid", tmp_path / "capture.tofgrid"
    write_grid(plain, values, "phase")
    write_grid(capture, values, "phase", modulation_frequency_hz=20e6)
    assert read_grid(capture).modulation_frequency_hz == 20e6
    header = json.loads(capture.read_bytes().split(b"\x00", 1)[0])
    assert header["modulation_frequency_hz"] == 20e6
    # the key changes the header only
    assert capture.read_bytes().split(b"\x00", 1)[1] == plain.read_bytes().split(b"\x00", 1)[1]


def test_payload_size_424x512(tmp_path):
    path = tmp_path / "kinect.tofgrid"
    write_grid(path, np.zeros((424, 512)), "weight")
    raw = path.read_bytes()
    sep = raw.find(b"\x00")
    assert len(raw) - sep - 1 == 424 * 512 * 4 == 868352


def test_truncated_payload_reports_byte_counts(tmp_path):
    path = tmp_path / "t.tofgrid"
    write_grid(path, np.zeros((10, 10)), "amplitude")
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(GridFormatError) as err:
        read_grid(path)
    assert "400" in str(err.value) and "393" in str(err.value)


def test_header_only_file_rejected(tmp_path):
    # a header without the NUL separator is not a grid, even when a payload
    # named by a "payload_file" entry sits next to it
    (tmp_path / "side.tofgrid.bin").write_bytes(np.zeros(9, dtype="<f4").tobytes())
    header = {"magic": "TOFGRID", "version": 1, "rows": 3, "cols": 3, "dtype": "f32",
              "units": "1", "domain": "weight", "payload_file": "side.tofgrid.bin"}
    path = tmp_path / "side.tofgrid"
    path.write_text(json.dumps(header))
    with pytest.raises(GridFormatError):
        read_grid(path)


def test_phase_domain_range_enforced(tmp_path):
    path = tmp_path / "p.tofgrid"
    with pytest.raises(GridFormatError):
        write_grid(path, np.full((2, 2), 7.0), "phase")
    write_grid(path, np.full((2, 2), 6.28), "phase")
    assert read_grid(path).domain == "phase"


def test_phase_float32_rounding_near_two_pi(tmp_path):
    # value just below 2*pi in float64 rounds up past it in float32
    path = tmp_path / "p.tofgrid"
    tricky = np.full((2, 2), np.nextafter(2 * np.pi, 0.0))
    write_grid(path, tricky, "phase")
    grid = read_grid(path)
    assert np.all(grid.values < 2 * np.pi)


def test_wrapped_tiny_negative_phases_write_as_zero(tmp_path):
    # a solved phase field can dip a hair below 0; wrapped, it is the angle 0
    path = tmp_path / "p.tofgrid"
    write_grid(path, wrap_phase(np.full((2, 2), -2e-16)), "phase")
    assert np.all(read_grid(path).values == 0.0)


def test_depth_domain_allows_infinity(tmp_path):
    path = tmp_path / "d.tofgrid"
    values = np.array([[1000.0, np.inf], [2000.0, 3000.0]])
    write_grid(path, values, "depth")
    grid = read_grid(path)
    assert np.isinf(grid.values[0, 1])
    with pytest.raises(GridFormatError):
        write_grid(path, -values, "depth")


def test_weight_domain_range(tmp_path):
    path = tmp_path / "w.tofgrid"
    with pytest.raises(GridFormatError):
        write_grid(path, np.full((2, 2), 1.5), "weight")


def test_unknown_domain_rejected(tmp_path):
    with pytest.raises(GridFormatError):
        write_grid(tmp_path / "x.tofgrid", np.zeros((2, 2)), "voltage")


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.tofgrid"
    header = {"magic": "NOPE", "version": 1, "rows": 1, "cols": 1,
              "dtype": "f32", "units": "1", "domain": "weight"}
    path.write_bytes(json.dumps(header).encode() + b"\x00" + b"\x00" * 4)
    with pytest.raises(GridFormatError):
        read_grid(path)
    header["magic"] = "TOFGRID"
    header["version"] = 9
    path.write_bytes(json.dumps(header).encode() + b"\x00" + b"\x00" * 4)
    with pytest.raises(GridFormatError):
        read_grid(path)


def test_malformed_header_json(tmp_path):
    path = tmp_path / "junk.tofgrid"
    path.write_bytes(b"{not json" + b"\x00" + b"\x00" * 4)
    with pytest.raises(GridFormatError):
        read_grid(path)


@pytest.mark.parametrize("change", [
    {"units": None}, {"units": 1}, {"rows": True}, {"cols": True},
    {"modulation_frequency_hz": True}, {"modulation_frequency_hz": "16e6"},
    {"modulation_frequency_hz": float("nan")}, {"modulation_frequency_hz": float("inf")},
    {"modulation_frequency_hz": 0}, {"modulation_frequency_hz": -16e6}, {"dtype": "f64"},
], ids=["no-units", "int-units", "bool-rows", "bool-cols", "bool-frequency",
        "string-frequency", "nan-frequency", "inf-frequency", "zero-frequency",
        "negative-frequency", "f64-dtype"])
def test_malformed_header_field_is_a_format_error(tmp_path, change):
    header = {"magic": "TOFGRID", "version": 1, "rows": 1, "cols": 1,
              "dtype": "f32", "units": "1", "domain": "weight", **change}
    header = {key: value for key, value in header.items() if value is not None}
    path = tmp_path / "bad.tofgrid"
    path.write_bytes(json.dumps(header).encode() + b"\x00" + b"\x00" * 4)
    with pytest.raises(GridFormatError, match=re.escape(str(path))):
        read_grid(path)


@pytest.mark.parametrize("change", [
    {"modulation_frequency_hz": float("nan")}, {"modulation_frequency_hz": float("inf")},
    {"modulation_frequency_hz": 0}, {"modulation_frequency_hz": True},
    {"modulation_frequency_hz": "16e6"}, {"units": 5}, {"domain": "voltage"},
    {"values": np.ones(4)}, {"values": -np.ones((2, 2))}, {"values": np.full((2, 2), np.nan)},
], ids=["nan-frequency", "inf-frequency", "zero-frequency", "bool-frequency",
        "string-frequency", "int-units", "unknown-domain", "one-d", "negative-amplitude",
        "nan-amplitude"])
def test_write_grid_refuses_a_header_read_grid_would_reject(tmp_path, change):
    path = tmp_path / "bad.tofgrid"
    kwargs = {"values": np.ones((2, 2)), "domain": "amplitude", **change}
    with pytest.raises(GridFormatError, match=re.escape(str(path))):
        write_grid(path, **kwargs)
    assert not path.exists()


def test_label_grid_must_be_finite(tmp_path):
    # rounding an infinite label to an int64 region id gives garbage
    with pytest.raises(GridFormatError):
        write_grid(tmp_path / "l.tofgrid", np.array([[0.0, np.inf]]), "label")


NAN, INF = np.nan, np.inf
DOMAIN_MESSAGES = {
    "phase": "phase values must lie in [0, 2*pi)",
    "depth": "depth values must be non-negative (inf = background)",
    "amplitude": "amplitude values must be finite and non-negative",
    "weight": "weights must lie in [0, 1]",
    "label": "labels must lie in [-2**63, 2**63)",
}


# min() propagates NaN, so each domain has a grid holding a NaN beside a
# negative value
@pytest.mark.parametrize("domain, bad", [
    ("phase", NAN), ("phase", INF), ("phase", -INF), ("phase", -0.1), ("phase", 2 * np.pi),
    ("depth", NAN), ("depth", -INF), ("depth", -1.0), ("amplitude", NAN),
    ("amplitude", INF), ("amplitude", -INF), ("amplitude", -1.0), ("weight", NAN),
    ("weight", INF), ("weight", -INF), ("weight", -0.1), ("weight", 1.5), ("label", NAN),
    ("label", INF), ("label", -INF), ("label", 1e30), ("label", -1e30),
])
@pytest.mark.parametrize("beside", [0.5, NAN])
def test_a_value_outside_its_domain_is_rejected_on_write_and_on_read(tmp_path, domain, bad,
                                                                      beside):
    values = np.array([[0.5, beside], [bad, 0.25]])
    if np.isnan(beside):
        values[0, 0] = -1.0 if domain != "label" else 0.5

    def message(path):
        return f"^{re.escape(f'{path}: {DOMAIN_MESSAGES[domain]}')}$"

    written = tmp_path / "w.tofgrid"
    with pytest.raises(GridFormatError, match=message(written)):
        write_grid(written, values, domain)
    assert not written.exists()
    # the same payload, stored by hand, is rejected on read
    header = {"magic": "TOFGRID", "version": 1, "rows": 2, "cols": 2, "dtype": "f32",
              "units": "1", "domain": domain}
    stored = tmp_path / "r.tofgrid"
    stored.write_bytes(json.dumps(header).encode() + b"\x00" + values.astype("<f4").tobytes())
    with pytest.raises(GridFormatError, match=message(stored)):
        read_grid(stored)


@pytest.mark.parametrize("domain, values", [
    ("phase", [[0.0, 6.28], [np.nextafter(2 * np.pi, 0.0), 1e-300]]),
    ("depth", [[0.0, INF], [1e39, 1500.0]]),       # 1e39 is stored as inf: background
    ("amplitude", [[0.0, 3.0e38], [1e-300, 1.0]]),
    ("weight", [[0.0, 1.0], [0.5, 1e-300]]),
    ("label", [[-2.0 ** 63, 0.0], [9.0e18, 7.0]]),    # the int64 range
])
def test_a_value_inside_its_domain_round_trips(tmp_path, domain, values):
    path = tmp_path / "g.tofgrid"
    write_grid(path, values, domain)
    assert read_grid(path).domain == domain


def test_a_label_that_float32_rounds_up_to_2_63_is_refused_before_writing(tmp_path):
    path = tmp_path / "l.tofgrid"
    below = np.nextafter(2.0 ** 63, 0.0)   # an int64 as float64, 2**63 as float32
    with pytest.raises(GridFormatError, match=re.escape(DOMAIN_MESSAGES["label"])):
        write_grid(path, np.array([[0.0, below]]), "label")
    assert not path.exists()


@pytest.mark.parametrize("domain", ["amplitude", "label"])
def test_a_finite_value_that_float32_stores_as_inf_is_refused_before_writing(tmp_path, domain):
    path = tmp_path / "big.tofgrid"
    values = np.full((4, 4), 0.5)
    values[1, 2] = 1e39
    with pytest.raises(GridFormatError, match=re.escape(DOMAIN_MESSAGES[domain])):
        write_grid(path, values, domain)
    assert not path.exists()
