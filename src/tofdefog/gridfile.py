"""TOFGRID container: a JSON header plus raw float32 payload.

Canonical form is a single file: UTF-8 JSON header, one NUL byte, then
rows*cols little-endian float32 values in row-major order.

Domains carry their value contracts: phase grids hold radians in
[0, 2*pi); depth grids use +inf for background; weights lie in [0, 1];
labels lie in [-2**63, 2**63), so that they round to int64 region ids.
A capture's amplitude and phase grids carry its modulation_frequency_hz.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, InputError, bounds, json_fits

MAGIC = "TOFGRID"
VERSION = 1
DOMAINS = ("amplitude", "phase", "depth", "weight", "label")

DEFAULT_UNITS = {
    "amplitude": "sensor",
    "phase": "rad",
    "depth": "mm",
    "weight": "1",
    "label": "id",
}


class GridFormatError(ValueError):
    """Malformed TOFGRID header or payload."""


@dataclass
class GridFile:
    values: np.ndarray          # float64 copy of the stored float32 payload
    domain: str
    units: str
    sha256: str                 # hex digest of the file's bytes as read
    modulation_frequency_hz: float | None = None   # a capture grid's, from its header


def _validate_domain_values(values: np.ndarray, domain: str, where: str):
    lo, hi = bounds(values)   # NaN in both when a value is NaN, so every check below fails
    if domain == "phase":
        if not (0 <= lo and hi < TWO_PI):
            raise GridFormatError(f"{where}: phase values must lie in [0, 2*pi)")
    elif domain == "depth":
        if not 0 <= lo:
            raise GridFormatError(f"{where}: depth values must be non-negative (inf = background)")
    elif domain == "amplitude":
        if not (0 <= lo and hi < math.inf):
            raise GridFormatError(f"{where}: amplitude values must be finite and non-negative")
    elif domain == "weight":
        if not (0 <= lo and hi <= 1):
            raise GridFormatError(f"{where}: weights must lie in [0, 1]")
    elif domain == "label":
        if not (-2.0 ** 63 <= lo and hi < 2.0 ** 63):
            raise GridFormatError(f"{where}: labels must lie in [-2**63, 2**63)")


def write_grid(path, values, domain: str, units: str | None = None,
               modulation_frequency_hz: float | None = None) -> str:
    """Write a grid; float64 input is cast to the stored float32, a frequency to the header.

    Values that read_grid would reject, as given or as stored (a finite
    value can round to float32's inf), and a header that it would reject
    raise GridFormatError before any byte is written.  Returns the hex
    sha256 of the bytes written: header, NUL and payload.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise GridFormatError(f"{path}: grids must be 2-D, got {values.ndim}-D")
    _validate_domain_values(values, domain, str(path))
    with np.errstate(over="ignore"):  # an overflow is the stored check's to report
        payload = np.ascontiguousarray(values, dtype="<f4")
    if domain == "phase":
        # float32 rounding can push valid values just past 2*pi; those are
        # the angle 0 up to storage precision
        payload[payload >= np.float32(TWO_PI)] = 0.0
    _validate_domain_values(payload, domain, str(path))
    header = {
        "magic": MAGIC,
        "version": VERSION,
        "rows": int(values.shape[0]),
        "cols": int(values.shape[1]),
        "dtype": "f32",
        "units": units if units is not None else DEFAULT_UNITS.get(domain),
        "domain": domain,
    }
    if modulation_frequency_hz is not None:
        header["modulation_frequency_hz"] = modulation_frequency_hz
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    _parse_header(raw, str(path))
    raw += b"\x00"
    with open(path, "wb") as fh:
        fh.write(raw)
        fh.write(payload.data)
    digest = hashlib.sha256(raw)
    digest.update(payload.data)
    return digest.hexdigest()


def _parse_header(raw: bytes, where: str) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GridFormatError(f"{where}: malformed header JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise GridFormatError(f"{where}: missing TOFGRID magic")
    if header.get("version") != VERSION:
        raise GridFormatError(f"{where}: unsupported version {header.get('version')!r}")
    if header.get("dtype") != "f32":
        raise GridFormatError(f"{where}: unsupported dtype {header.get('dtype')!r}")
    if header.get("domain") not in DOMAINS:
        raise GridFormatError(f"{where}: unknown domain {header.get('domain')!r}")
    for key in ("rows", "cols"):
        value = header.get(key)
        if not (json_fits(value, "int") and value > 0):
            raise GridFormatError(f"{where}: bad {key} in header")
    if not isinstance(header.get("units"), str):
        raise GridFormatError(f"{where}: units must be a string, got {header.get('units')!r}")
    freq = header.get("modulation_frequency_hz")
    if "modulation_frequency_hz" in header and not (json_fits(freq, "float") and freq > 0):
        raise GridFormatError(f"{where}: modulation_frequency_hz must be finite and > 0, "
                              f"got {freq!r}")
    return header


def read_grid(path, domain: str | None = None) -> GridFile:
    """Read a grid; validates payload size and domain values, and hashes the bytes read.

    InputError, naming the file, when `domain` is given and the grid holds another.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sep = data.find(b"\x00")
    if sep < 0:
        raise GridFormatError(f"{path}: no NUL byte ends the header")
    header = _parse_header(data[:sep], str(path))
    payload = memoryview(data)[sep + 1:]  # a view: slicing the bytes would copy the payload
    expected = header["rows"] * header["cols"] * 4
    if len(payload) != expected:
        raise GridFormatError(
            f"{path}: payload size mismatch: expected {expected} bytes, "
            f"got {len(payload)} bytes"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(header["rows"], header["cols"])
    values = values.astype(np.float64)
    _validate_domain_values(values, header["domain"], str(path))
    if domain is not None and header["domain"] != domain:
        article = "an" if domain[0] in "aeiou" else "a"
        raise InputError(f"{path}: expected {article} {domain} grid, got {header['domain']}")
    return GridFile(values=values, domain=header["domain"], units=header["units"],
                    sha256=hashlib.sha256(data).hexdigest(),
                    modulation_frequency_hz=header.get("modulation_frequency_hz"))
