"""File formats: binary field pairs, line CSV, homography text, VP JSON, PGM.

All binary layouts are little-endian regardless of platform. Readers
validate eagerly and report byte offsets (binary) or line numbers (text)
in their error messages; writers produce canonical bytes so equal inputs
always serialize identically.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .fields import FieldPair, ScalarField
from .geometry import Homography, LineSegment
from .vp import VanishingPoint

__all__ = [
    "read_field_file",
    "write_field_file",
    "read_lines",
    "write_lines",
    "read_homography",
    "write_homography",
    "read_vp_file",
    "write_vp_file",
    "read_pgm",
    "write_pgm",
]

_FIELD_MAGIC = b"DLSF"
_FIELD_VERSION = 1
_HEADER_SIZE = 20  # magic + version + height + width + r
_FLOAT32_PI = np.float32(np.pi)


def _field_error(path: Path | str, message: str, offset: int) -> ValueError:
    return ValueError(f"{path}: {message} (byte offset {offset})")


def read_field_file(path: str | Path) -> FieldPair:
    """Parse a binary field pair.

    Raises:
        ValueError: on bad magic, unsupported version, zero dimensions,
            invalid r, wrong payload size, or out-of-range values; the
            message carries the byte offset of the problem.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER_SIZE:
        raise _field_error(path, "truncated header", len(blob))
    magic, version, height, width = struct.unpack_from("<4sIII", blob, 0)
    if magic != _FIELD_MAGIC:
        raise _field_error(path, f"bad magic {magic!r}", 0)
    if version != _FIELD_VERSION:
        raise _field_error(path, f"unsupported version {version}", 4)
    if height == 0:
        raise _field_error(path, "zero height", 8)
    if width == 0:
        raise _field_error(path, "zero width", 12)
    (r,) = struct.unpack_from("<f", blob, 16)
    if not (math.isfinite(r) and r > 0.0):
        raise _field_error(path, f"invalid r {r}", 16)
    count = height * width
    expected = _HEADER_SIZE + 8 * count
    if len(blob) < expected:
        raise _field_error(path, f"truncated payload, need {expected} bytes", len(blob))
    if len(blob) > expected:
        raise _field_error(path, "trailing data", expected)
    df = np.frombuffer(blob, dtype="<f4", count=count, offset=_HEADER_SIZE)
    af = np.frombuffer(blob, dtype="<f4", count=count, offset=_HEADER_SIZE + 4 * count)
    bad_df = ~np.isfinite(df)
    if bad_df.any():
        idx = int(np.argmax(bad_df))
        raise _field_error(path, "non-finite distance value", _HEADER_SIZE + 4 * idx)
    bad_af = ~(np.isfinite(af) & (af >= 0.0) & (af.astype(np.float64) < math.pi))
    if bad_af.any():
        idx = int(np.argmax(bad_af))
        raise _field_error(
            path, "angle value outside [0, pi)", _HEADER_SIZE + 4 * (count + idx)
        )
    shape = (height, width)
    return FieldPair(
        df=ScalarField(df.astype(np.float64).reshape(shape)),
        af=ScalarField(af.astype(np.float64).reshape(shape)),
        r=float(r),
    )


def _stored_r(r: float) -> float:
    """The band radius r as a field file stores it, at 32-bit precision.

    Raises:
        ValueError: when r is not positive and finite at 32-bit precision,
            which read_field_file would refuse.
    """
    with np.errstate(over="ignore"):
        stored = float(np.float32(r))
    if not (math.isfinite(stored) and stored > 0.0):
        raise ValueError(f"band radius r {r!r} is not positive and finite at 32-bit precision")
    return stored


def write_field_file(path: str | Path, fields: FieldPair) -> None:
    """Serialize a field pair at 32-bit precision.

    Angle values that round up to float32 pi are wrapped back to 0.0 so the
    stored range stays inside [0, pi).

    Raises:
        ValueError: when r is not positive and finite at 32-bit precision
            (_stored_r).
    """
    r = _stored_r(fields.r)
    df = fields.df.data.astype("<f4")
    af = fields.af.data.astype("<f4")
    af[af >= _FLOAT32_PI] = np.float32(0.0)
    header = struct.pack(
        "<4sIIIf",
        _FIELD_MAGIC,
        _FIELD_VERSION,
        fields.df.height,
        fields.df.width,
        r,
    )
    Path(path).write_bytes(header + df.tobytes() + af.tobytes())


def read_lines(path: str | Path) -> tuple[list[LineSegment], str | None]:
    """Parse a CSV of segments, returning (segments, header text or None).

    A first line starting with '#' is treated as a header and returned
    without the marker. Blank lines are ignored.

    Raises:
        ValueError: naming the 1-based line number of any malformed record.
    """
    path = Path(path)
    text = path.read_text()
    header: str | None = None
    segments: list[LineSegment] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if lineno == 1 and raw.startswith("#"):
            header = raw[1:]
            continue
        if raw.strip() == "":
            continue
        parts = raw.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 comma-separated values")
        try:
            x1, y1, x2, y2 = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from None
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        try:
            segments.append(LineSegment((x1, y1), (x2, y2)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return segments, header


def write_lines(
    path: str | Path, lines: Sequence[LineSegment], header: str | None = None
) -> None:
    """Write segments as CSV records with full decimal precision.

    Raises:
        ValueError: when ``header`` holds a line break, which would leave
            part of it where read_lines expects records.
    """
    rows = []
    if header is not None:
        if header.splitlines() not in ([], [header]):
            raise ValueError("header must be a single line")
        rows.append(f"#{header}")
    for seg in lines:
        rows.append(
            f"{seg.p1.x!r},{seg.p1.y!r},{seg.p2.x!r},{seg.p2.y!r}"
        )
    Path(path).write_text("\n".join(rows) + ("\n" if rows else ""))


def read_homography(path: str | Path) -> Homography:
    """Parse nine whitespace-separated reals as a row-major 3x3 matrix."""
    path = Path(path)
    tokens = path.read_text().split()
    if len(tokens) != 9:
        raise ValueError(f"{path}: expected 9 values, found {len(tokens)}")
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        raise ValueError(f"{path}: non-numeric value") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{path}: non-finite value")
    try:
        return Homography(np.array(values).reshape(3, 3))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_homography(path: str | Path, h: Homography) -> None:
    rows = [" ".join(repr(float(v)) for v in row) for row in h.m]
    Path(path).write_text("\n".join(rows) + "\n")


def read_vp_file(path: str | Path) -> tuple[list[VanishingPoint], list]:
    """Parse a VP document: {"vps": [[x, y, w], ...], "assignment": [...]}.

    Assignment entries are model indices or null. Round trips through
    write_vp_file reproduce the values exactly.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}") from None
    if not isinstance(doc, dict) or "vps" not in doc or "assignment" not in doc:
        raise ValueError(f"{path}: document must contain 'vps' and 'assignment'")
    raw_vps = doc["vps"]
    raw_assignment = doc["assignment"]
    if not isinstance(raw_vps, list) or not isinstance(raw_assignment, list):
        raise ValueError(f"{path}: 'vps' and 'assignment' must be lists")
    vps = []
    for i, triple in enumerate(raw_vps):
        if (
            not isinstance(triple, list)
            or len(triple) != 3
            or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in triple
            )
        ):
            raise ValueError(f"{path}: vps[{i}] is not a numeric triple")
        try:
            vps.append(VanishingPoint(np.array(triple, dtype=float)))
        except ValueError as exc:
            raise ValueError(f"{path}: vps[{i}]: {exc}") from None
    assignment: list = []
    for i, entry in enumerate(raw_assignment):
        if entry is None:
            assignment.append(None)
        elif isinstance(entry, int) and not isinstance(entry, bool):
            if not 0 <= entry < len(vps):
                raise ValueError(f"{path}: assignment[{i}] out of range")
            assignment.append(entry)
        else:
            raise ValueError(f"{path}: assignment[{i}] must be an index or null")
    return vps, assignment


def write_vp_file(
    path: str | Path, vps: Sequence[VanishingPoint], assignment: Sequence
) -> None:
    for i, entry in enumerate(assignment):
        if entry is not None and not 0 <= int(entry) < len(vps):
            raise ValueError(f"assignment[{i}] out of range")
    doc = {
        "vps": [[float(c) for c in vp.v] for vp in vps],
        "assignment": [None if e is None else int(e) for e in assignment],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _pgm_tokens(blob: bytes, path: Path, n: int) -> tuple[list[int], int]:
    """Read n header integers, skipping whitespace and '#' comments."""
    tokens: list[int] = []
    pos = 0
    while len(tokens) < n:
        if pos >= len(blob):
            raise ValueError(f"{path}: truncated header (byte offset {pos})")
        c = blob[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            end = blob.find(b"\n", pos)
            pos = len(blob) if end == -1 else end + 1
        elif c.isdigit():
            start = pos
            while pos < len(blob) and blob[pos : pos + 1].isdigit():
                pos += 1
            tokens.append(int(blob[start:pos]))
        else:
            raise ValueError(f"{path}: unexpected byte {c!r} (byte offset {pos})")
    return tokens, pos


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary 8-bit PGM ("P5") image as a (height, width) uint8 array."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM, bad magic (byte offset 0)")
    (width, height, maxval), pos = _pgm_tokens(blob[2:], path, 3)
    pos += 2
    if width < 1 or height < 1:
        raise ValueError(f"{path}: zero image dimension")
    if not 0 < maxval < 256:
        raise ValueError(f"{path}: unsupported maxval {maxval}, need 8-bit")
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise ValueError(f"{path}: missing raster separator (byte offset {pos})")
    pos += 1
    expected = width * height
    raster = blob[pos : pos + expected]
    if len(raster) < expected:
        raise ValueError(
            f"{path}: truncated raster, need {expected} bytes (byte offset {len(blob)})"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a grayscale image as binary 8-bit PGM, rounding to [0, 255]."""
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("image must be a non-empty 2-D array")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img.astype(np.float64)), 0, 255).astype(np.uint8)
    h, w = img.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + img.tobytes())
