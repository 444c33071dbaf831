"""Unit tests for the file formats and their validation diagnostics."""

from __future__ import annotations

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefields import (
    FieldPair,
    Homography,
    LineSegment,
    ScalarField,
    VanishingPoint,
    read_field_file,
    read_homography,
    read_lines,
    read_pgm,
    read_vp_file,
    render_fields,
    write_field_file,
    write_lines,
    write_pgm,
    write_vp_file,
)


def write_homography(path, h: Homography) -> None:
    """The nine entries of ``h``, row major, three per line."""
    rows = [" ".join(repr(float(v)) for v in row) for row in h.m]
    Path(path).write_text("\n".join(rows) + "\n")


def small_fields() -> FieldPair:
    return render_fields([LineSegment((2.0, 3.0), (14.0, 5.0))], 16, 12)


def valid_field_bytes() -> bytearray:
    df = np.array([[0.5, 1.0], [2.0, 0.25]])
    af = np.array([[0.0, 1.0], [2.0, 3.0]])
    fp = FieldPair(df=ScalarField(df), af=ScalarField(af), r=5.0)
    header = struct.pack("<4sIIIf", b"DLSF", 1, 2, 2, 5.0)
    payload = df.astype("<f4").tobytes() + af.astype("<f4").tobytes()
    assert len(header + payload) == 52
    return bytearray(header + payload)


class TestFieldFile:
    def test_round_trip_values(self, tmp_path) -> None:
        fp = small_fields()
        path = tmp_path / "f.dlsf"
        write_field_file(path, fp)
        back = read_field_file(path)
        assert back.r == fp.r
        assert np.array_equal(
            back.df.data, fp.df.data.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(
            back.af.data, fp.af.data.astype(np.float32).astype(np.float64)
        )

    def test_writes_canonical_bytes(self, tmp_path) -> None:
        fp = small_fields()
        p1 = tmp_path / "a.dlsf"
        p2 = tmp_path / "b.dlsf"
        write_field_file(p1, fp)
        write_field_file(p2, read_field_file(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_two_by_two_layout(self, tmp_path) -> None:
        blob = bytes(valid_field_bytes())
        path = tmp_path / "f.dlsf"
        path.write_bytes(blob)
        fp = read_field_file(path)
        assert len(blob) == 52
        assert blob[:4] == b"DLSF"
        assert struct.unpack_from("<III", blob, 4) == (1, 2, 2)
        assert struct.unpack_from("<f", blob, 16) == (5.0,)
        assert fp.df.data[1, 0] == 2.0
        assert fp.af.data[1, 1] == 3.0

    def test_angle_rounding_to_float32_pi_wraps_to_zero(self, tmp_path) -> None:
        df = np.zeros((1, 2))
        af = np.array([[math.pi - 1e-9, 1.0]])
        assert np.float32(af[0, 0]) >= np.float32(np.pi)
        path = tmp_path / "f.dlsf"
        write_field_file(path, FieldPair(df=ScalarField(df), af=ScalarField(af), r=5.0))
        back = read_field_file(path)
        assert back.af.data[0, 0] == 0.0
        assert back.af.data[0, 1] == 1.0

    @pytest.mark.parametrize("r", [1e40, 3.5e38, 1e-50, 5e-324])
    def test_refuses_r_outside_float32(self, tmp_path, r: float) -> None:
        # float32(r) overflows to inf or rounds to 0.0: the writer used to
        # die in struct.pack or store an r that read_field_file refuses.
        path = tmp_path / "f.dlsf"
        fp = FieldPair(
            df=ScalarField(np.zeros((1, 2))), af=ScalarField(np.zeros((1, 2))), r=r
        )
        with pytest.raises(ValueError, match="32-bit precision"):
            write_field_file(path, fp)
        assert not path.exists()

    @pytest.mark.parametrize(
        "r",
        [float(np.finfo(np.float32).max), float(np.finfo(np.float32).smallest_subnormal)],
    )
    def test_float32_extremes_of_r_round_trip(self, tmp_path, r: float) -> None:
        path = tmp_path / "f.dlsf"
        fp = FieldPair(
            df=ScalarField(np.zeros((1, 2))), af=ScalarField(np.zeros((1, 2))), r=r
        )
        write_field_file(path, fp)
        assert read_field_file(path).r == r

    def write_and_expect(self, tmp_path, blob: bytes, message: str) -> None:
        path = tmp_path / "bad.dlsf"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as err:
            read_field_file(path)
        assert message in str(err.value)

    def test_truncated_header(self, tmp_path) -> None:
        self.write_and_expect(
            tmp_path, bytes(valid_field_bytes())[:10], "truncated header (byte offset 10)"
        )

    def test_bad_magic(self, tmp_path) -> None:
        blob = valid_field_bytes()
        blob[0:4] = b"XXXX"
        self.write_and_expect(tmp_path, bytes(blob), "(byte offset 0)")

    def test_unsupported_version(self, tmp_path) -> None:
        blob = valid_field_bytes()
        struct.pack_into("<I", blob, 4, 2)
        self.write_and_expect(tmp_path, bytes(blob), "unsupported version 2 (byte offset 4)")

    def test_zero_height(self, tmp_path) -> None:
        blob = valid_field_bytes()
        struct.pack_into("<I", blob, 8, 0)
        self.write_and_expect(tmp_path, bytes(blob), "zero height (byte offset 8)")

    def test_zero_width(self, tmp_path) -> None:
        blob = valid_field_bytes()
        struct.pack_into("<I", blob, 12, 0)
        self.write_and_expect(tmp_path, bytes(blob), "zero width (byte offset 12)")

    def test_invalid_r(self, tmp_path) -> None:
        blob = valid_field_bytes()
        struct.pack_into("<f", blob, 16, -1.0)
        self.write_and_expect(tmp_path, bytes(blob), "invalid r -1.0 (byte offset 16)")

    def test_truncated_payload(self, tmp_path) -> None:
        self.write_and_expect(
            tmp_path,
            bytes(valid_field_bytes())[:40],
            "truncated payload, need 52 bytes (byte offset 40)",
        )

    def test_trailing_data(self, tmp_path) -> None:
        self.write_and_expect(
            tmp_path, bytes(valid_field_bytes()) + b"\x00", "trailing data (byte offset 52)"
        )

    def test_non_finite_distance_offset(self, tmp_path) -> None:
        blob = valid_field_bytes()
        struct.pack_into("<f", blob, 20 + 4 * 3, math.inf)
        self.write_and_expect(
            tmp_path, bytes(blob), "non-finite distance value (byte offset 32)"
        )

    def test_angle_out_of_range_offset(self, tmp_path) -> None:
        blob = valid_field_bytes()
        struct.pack_into("<f", blob, 20 + 16 + 4 * 2, 3.5)
        self.write_and_expect(
            tmp_path, bytes(blob), "angle value outside [0, pi) (byte offset 44)"
        )
        blob = valid_field_bytes()
        struct.pack_into("<f", blob, 20 + 16, -0.1)
        self.write_and_expect(
            tmp_path, bytes(blob), "angle value outside [0, pi) (byte offset 36)"
        )


# Any finite float, with the edges of the format written out: subnormals,
# the smallest normal, +-1e300 and -0.0.
coords = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, -0.0, 0.0]
)


def float_bits(lines) -> list[str]:
    return [v.hex() for s in lines for v in (*s.p1, *s.p2)]


class TestLinesFile:
    def test_round_trip_preserves_exact_floats(self, tmp_path) -> None:
        segs = [
            LineSegment((0.1 + 0.2, 2.0), (14.0, 5.0)),
            LineSegment((1.0 / 3.0, -7.25), (0.0, 1e-17)),
        ]
        path = tmp_path / "l.csv"
        write_lines(path, segs)
        back = read_lines(path)
        assert len(back) == 2
        for a, b in zip(back, segs):
            assert a.p1 == b.p1 and a.p2 == b.p2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(coords, coords, coords, coords), max_size=6))
    @example([(5e-324, -0.0, 1e300, -1e300), (-0.0, 0.0, 0.0, -0.0)])
    def test_round_trip_is_bitwise(self, rows) -> None:
        """write -> read gives the same float bits, and write -> read ->
        write the same bytes."""
        # LineSegment refuses equal endpoints, and there -0.0 == 0.0.
        rows = [r for r in rows if (r[0], r[1]) != (r[2], r[3])]
        segs = [LineSegment(r[:2], r[2:]) for r in rows]
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_lines(first, segs)
            back = read_lines(first)
            assert float_bits(back) == float_bits(segs)
            write_lines(second, back)
            assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("header", ["a\nb", "a\n", "\n", "a\r\nb", "a\rb", "a\x0bb", "a\u2028b"])
    def test_multi_line_header_rejected(self, tmp_path, header) -> None:
        """write_lines takes no header, so no line break of one can reach
        the records; the call fails before the file is made."""
        path = tmp_path / "l.csv"
        with pytest.raises(TypeError):
            write_lines(path, [LineSegment((0.0, 0.0), (1.0, 1.0))], header=header)
        assert not path.exists()

    @pytest.mark.parametrize("header", ["", " ", "a b,c\td", "#x"])
    def test_single_line_header_rereads(self, tmp_path, header) -> None:
        """A leading '#' line of any content is a comment: reading skips
        it, and writing the records back drops it."""
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text(f"#{header}\n0.0,0.0,1.0,1.0\n")
        back = read_lines(first)
        assert float_bits(back) == float_bits([LineSegment((0.0, 0.0), (1.0, 1.0))])
        write_lines(second, back)
        assert second.read_text() == "0.0,0.0,1.0,1.0\n"

    @pytest.mark.parametrize("text", ["1.0,2.0,3.0,4.0\n#c\n", "\n#c\n1.0,2.0,3.0,4.0\n"])
    def test_later_comment_names_line(self, tmp_path, text) -> None:
        """Only line 1 may be a comment, even after a blank line 1."""
        path = tmp_path / "l.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"l\.csv:2: expected 4 comma-separated"):
            read_lines(path)

    def test_empty(self, tmp_path) -> None:
        path = tmp_path / "l.csv"
        write_lines(path, [])
        assert path.read_text() == ""
        assert read_lines(path) == []

    def test_blank_lines_ignored(self, tmp_path) -> None:
        path = tmp_path / "l.csv"
        path.write_text("1.0,2.0,3.0,4.0\n\n  \n5.0,6.0,7.0,8.0\n")
        assert len(read_lines(path)) == 2

    def test_wrong_field_count_names_line(self, tmp_path) -> None:
        path = tmp_path / "l.csv"
        path.write_text("#header\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match=r"l\.csv:2: expected 4 comma-separated"):
            read_lines(path)

    def test_non_numeric_value(self, tmp_path) -> None:
        path = tmp_path / "l.csv"
        path.write_text("1.0,2.0,x,4.0\n")
        with pytest.raises(ValueError, match=r"l\.csv:1: non-numeric value"):
            read_lines(path)

    def test_non_finite_value(self, tmp_path) -> None:
        path = tmp_path / "l.csv"
        path.write_text("1.0,2.0,nan,4.0\n")
        with pytest.raises(ValueError, match=r"l\.csv:1: non-finite value"):
            read_lines(path)

    def test_degenerate_segment_names_line(self, tmp_path) -> None:
        path = tmp_path / "l.csv"
        path.write_text("1.0,2.0,3.0,4.0\n2.0,2.0,2.0,2.0\n")
        with pytest.raises(ValueError, match=r"l\.csv:2: "):
            read_lines(path)


class TestHomographyFile:
    def test_round_trip(self, tmp_path) -> None:
        h = Homography(
            np.array([[1.02, 0.01, 3.0], [-0.008, 0.98, -2.0], [1e-4, -5e-5, 1.0]])
        )
        path = tmp_path / "h.txt"
        write_homography(path, h)
        back = read_homography(path)
        assert np.array_equal(back.m, h.m)

    def test_canonical_bytes(self, tmp_path) -> None:
        h = Homography(np.array([[2.0, 0.0, 1.0], [0.0, 2.0, -1.0], [0.0, 0.0, 2.0]]))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_homography(p1, h)
        write_homography(p2, read_homography(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_any_whitespace_layout(self, tmp_path) -> None:
        path = tmp_path / "h.txt"
        path.write_text("1 0 0   0\n1\t0\n0 0 1\n")
        back = read_homography(path)
        assert np.allclose(back.m, np.eye(3))

    def test_wrong_token_count(self, tmp_path) -> None:
        path = tmp_path / "h.txt"
        path.write_text("1 0 0 0 1 0 0 0\n")
        with pytest.raises(ValueError, match="expected 9 values, found 8"):
            read_homography(path)

    def test_non_numeric(self, tmp_path) -> None:
        path = tmp_path / "h.txt"
        path.write_text("1 0 0 0 one 0 0 0 1\n")
        with pytest.raises(ValueError, match="non-numeric value"):
            read_homography(path)

    def test_non_finite(self, tmp_path) -> None:
        path = tmp_path / "h.txt"
        path.write_text("1 0 0 0 inf 0 0 0 1\n")
        with pytest.raises(ValueError, match="non-finite value"):
            read_homography(path)

    def test_singular_matrix_reported_with_path(self, tmp_path) -> None:
        path = tmp_path / "h.txt"
        path.write_text("1 0 0 2 0 0 0 0 1\n")
        with pytest.raises(ValueError, match=r"h\.txt: "):
            read_homography(path)


class TestVpFile:
    def test_round_trip_exact(self, tmp_path) -> None:
        vps = [
            VanishingPoint(np.array([600.0, 128.0, 1.0])),
            VanishingPoint(np.array([1.0, 0.0, 0.0])),
        ]
        assignment = [0, None, 1, 0]
        path = tmp_path / "v.json"
        write_vp_file(path, vps, assignment)
        back_vps, back_assignment = read_vp_file(path)
        assert back_assignment == assignment
        assert len(back_vps) == 2
        for a, b in zip(back_vps, vps):
            assert np.array_equal(a.v, b.v)

    def test_document_shape(self, tmp_path) -> None:
        path = tmp_path / "v.json"
        write_vp_file(path, [VanishingPoint(np.array([0.0, 0.0, 1.0]))], [0])
        doc = json.loads(path.read_text())
        assert set(doc) == {"vps", "assignment"}
        assert doc["vps"] == [[0.0, 0.0, 1.0]]
        assert doc["assignment"] == [0]
        assert path.read_text().endswith("\n")

    def test_write_rejects_out_of_range_assignment(self, tmp_path) -> None:
        with pytest.raises(ValueError, match=r"assignment\[0\] out of range"):
            write_vp_file(
                tmp_path / "v.json", [VanishingPoint(np.array([0.0, 0.0, 1.0]))], [1]
            )

    def expect_error(self, tmp_path, text: str, message: str) -> None:
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_vp_file(path)
        assert message in str(err.value)

    def test_invalid_json_names_line(self, tmp_path) -> None:
        self.expect_error(tmp_path, '{\n  "vps": [\n', "invalid JSON at line 3")

    def test_missing_keys(self, tmp_path) -> None:
        self.expect_error(tmp_path, '{"vps": []}', "must contain 'vps' and 'assignment'")

    def test_wrong_container_types(self, tmp_path) -> None:
        self.expect_error(
            tmp_path, '{"vps": {}, "assignment": []}', "must be lists"
        )

    def test_bad_triple(self, tmp_path) -> None:
        self.expect_error(
            tmp_path,
            '{"vps": [[1.0, 0.0]], "assignment": []}',
            "vps[0] is not a numeric triple",
        )
        self.expect_error(
            tmp_path,
            '{"vps": [[1.0, "x", 0.0]], "assignment": []}',
            "vps[0] is not a numeric triple",
        )

    def test_boolean_coordinates_rejected(self, tmp_path) -> None:
        self.expect_error(
            tmp_path,
            '{"vps": [[true, false, 1]], "assignment": [0]}',
            "vps[0] is not a numeric triple",
        )

    def test_zero_vector_rejected(self, tmp_path) -> None:
        self.expect_error(
            tmp_path,
            '{"vps": [[0.0, 0.0, 0.0]], "assignment": []}',
            "vps[0]:",
        )

    def test_assignment_entry_validation(self, tmp_path) -> None:
        self.expect_error(
            tmp_path,
            '{"vps": [[0.0, 0.0, 1.0]], "assignment": [1]}',
            "assignment[0] out of range",
        )
        self.expect_error(
            tmp_path,
            '{"vps": [[0.0, 0.0, 1.0]], "assignment": [-1]}',
            "assignment[0] out of range",
        )
        self.expect_error(
            tmp_path,
            '{"vps": [[0.0, 0.0, 1.0]], "assignment": [true]}',
            "assignment[0] must be an index or null",
        )
        self.expect_error(
            tmp_path,
            '{"vps": [[0.0, 0.0, 1.0]], "assignment": ["0"]}',
            "assignment[0] must be an index or null",
        )


class TestPgm:
    def test_round_trip(self, tmp_path) -> None:
        rng = np.random.default_rng(70)
        img = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
        path = tmp_path / "i.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_written_header(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_comment_tolerant_header(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(range(6)))
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[1, 2] == 5

    def test_float_input_rounded_and_clipped(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        write_pgm(path, np.array([[-3.2, 99.6], [270.0, 12.0]]))
        assert np.array_equal(read_pgm(path), [[0, 100], [255, 12]])

    def test_bad_magic(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="bad magic"):
            read_pgm(path)

    def test_zero_dimension(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(ValueError, match="zero image dimension"):
            read_pgm(path)

    def test_wide_maxval_rejected(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="unsupported maxval 65535"):
            read_pgm(path)

    def test_sample_above_maxval_rejected(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n4 4\n15\n" + bytes([15] * 5 + [200] * 11))
        with pytest.raises(ValueError, match=r"sample value above maxval 15 \(byte offset 15\)"):
            read_pgm(path)

    def test_samples_up_to_maxval_read_as_stored(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n4 4\n15\n" + bytes(range(16)))
        assert np.array_equal(read_pgm(path), np.arange(16, dtype=np.uint8).reshape(4, 4))

    def test_truncated_raster(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated raster, need 16 bytes"):
            read_pgm(path)

    def test_truncated_header(self, tmp_path) -> None:
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n4")
        with pytest.raises(ValueError, match="truncated header"):
            read_pgm(path)

    def test_write_rejects_bad_shape(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "i.pgm", np.zeros(5))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "i.pgm", np.zeros((0, 4)))
