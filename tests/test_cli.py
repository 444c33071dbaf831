"""End-to-end tests of the command-line interface (in-process)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from linefields import (
    LineSegment,
    VanishingPoint,
    generate_pseudo_gt,
    orthogonal_distance,
    read_field_file,
    read_lines,
    read_vp_file,
    render_fields,
    write_field_file,
    write_lines,
    write_pgm,
    write_vp_file,
)
from linefields.cli import main

from util_synth import pencil_segments, perturb_segment, square_image

GT_SEG = LineSegment((40.0, 40.0), (200.0, 60.0))

IDENTITY_H = "1 0 0\n0 1 0\n0 0 1\n"


def write_gt_inputs(tmp_path):
    lines_path = tmp_path / "gt.csv"
    write_lines(lines_path, [GT_SEG])
    fields_path = tmp_path / "gt.dlsf"
    write_field_file(fields_path, render_fields([GT_SEG], 256, 256))
    return lines_path, fields_path


class TestGenFields:
    def test_matches_direct_rendering(self, tmp_path) -> None:
        lines_path, fields_path = write_gt_inputs(tmp_path)
        out = tmp_path / "out.dlsf"
        rc = main(
            [
                "gen-fields",
                "--lines", str(lines_path),
                "--width", "256",
                "--height", "256",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == fields_path.read_bytes()

    def test_custom_r_recorded(self, tmp_path) -> None:
        lines_path, _ = write_gt_inputs(tmp_path)
        out = tmp_path / "out.dlsf"
        rc = main(
            [
                "gen-fields",
                "--lines", str(lines_path),
                "--width", "64",
                "--height", "64",
                "--r", "2.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert read_field_file(out).r == 2.5


class TestGenGt:
    def test_matches_direct_generation(self, tmp_path) -> None:
        img = square_image()
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, img)
        out = tmp_path / "gt.dlsf"
        rc = main(
            [
                "gen-gt",
                "--image", str(img_path),
                "--num-homographies", "3",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        direct = generate_pseudo_gt(img.astype(np.float64), 3, seed=7)
        expected = tmp_path / "direct.dlsf"
        write_field_file(expected, direct)
        assert out.read_bytes() == expected.read_bytes()

    def test_step_below_rho_is_insufficient_signal(self, tmp_path, capsys) -> None:
        """A step of 4 grey levels has a 2x2 gradient of at most 4: above
        field mode's threshold (3.0) but below LSD's rho (5.23), so no warp has a
        detection. Seeding at 3.0 found the step in the identity warp."""
        img = np.full((64, 64), 100.0)
        img[:, 32:] = 104.0
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, img)
        out = tmp_path / "gt.dlsf"
        rc = main(["gen-gt", "--image", str(img_path), "--num-homographies", "4", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "insufficient signal: 4 of 4 warps had no detections" in err[0]
        assert not out.exists()


class TestDetect:
    def test_from_fields(self, tmp_path) -> None:
        _, fields_path = write_gt_inputs(tmp_path)
        out = tmp_path / "det.csv"
        rc = main(["detect", "--fields", str(fields_path), "--out", str(out)])
        assert rc == 0
        detected = read_lines(out)
        assert len(detected) == 1
        assert orthogonal_distance(detected[0], GT_SEG) < 1.0

    def test_no_filter_flag(self, tmp_path) -> None:
        _, fields_path = write_gt_inputs(tmp_path)
        out = tmp_path / "det.csv"
        rc = main(
            ["detect", "--fields", str(fields_path), "--no-filter", "--out", str(out)]
        )
        assert rc == 0
        detected = read_lines(out)
        assert len(detected) >= 1

    def test_from_image(self, tmp_path) -> None:
        img = np.full((64, 64), 30.0)
        img[:, 32:] = 220.0
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, img)
        out = tmp_path / "det.csv"
        rc = main(["detect", "--image", str(img_path), "--out", str(out)])
        assert rc == 0
        detected = read_lines(out)
        assert len(detected) == 1
        assert orthogonal_distance(detected[0], LineSegment((32.0, 1.0), (32.0, 63.0))) < 1.0

    def test_requires_some_input(self, tmp_path, capsys) -> None:
        rc = main(["detect", "--out", str(tmp_path / "det.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--fields" in err


class TestRefine:
    def test_pulls_line_back_to_field(self, tmp_path) -> None:
        _, fields_path = write_gt_inputs(tmp_path)
        rng = np.random.default_rng(80)
        pert = perturb_segment(GT_SEG, rng, max_lateral=1.0, max_rotation_deg=2.0)
        lines_path = tmp_path / "pert.csv"
        write_lines(lines_path, [pert])
        out = tmp_path / "ref.csv"
        rc = main(
            [
                "refine",
                "--lines", str(lines_path),
                "--fields", str(fields_path),
                "--out", str(out),
            ]
        )
        assert rc == 0
        refined = read_lines(out)
        assert len(refined) == 1
        assert orthogonal_distance(refined[0], GT_SEG) < orthogonal_distance(pert, GT_SEG)

    def test_vp_mode_writes_vp_file(self, tmp_path) -> None:
        rng = np.random.default_rng(81)
        gt = pencil_segments(rng, vp_xy=(1800.0, 128.0), size=256, n=8, half_range=(8.0, 12.0))
        fields_path = tmp_path / "gt.dlsf"
        write_field_file(fields_path, render_fields(gt, 256, 256))
        lines_path = tmp_path / "pert.csv"
        write_lines(lines_path, [perturb_segment(s, rng) for s in gt])
        out = tmp_path / "ref.csv"
        vps_out = tmp_path / "vps.json"
        rc = main(
            [
                "refine",
                "--lines", str(lines_path),
                "--fields", str(fields_path),
                "--vp",
                "--out", str(out),
                "--vps-out", str(vps_out),
            ]
        )
        assert rc == 0
        refined = read_lines(out)
        assert len(refined) == 8
        vps, assignment = read_vp_file(vps_out)
        assert len(vps) == 1
        assert assignment == [0] * 8

    def test_vps_out_requires_vp_flag(self, tmp_path, capsys) -> None:
        lines_path, fields_path = write_gt_inputs(tmp_path)
        rc = main(
            [
                "refine",
                "--lines", str(lines_path),
                "--fields", str(fields_path),
                "--out", str(tmp_path / "ref.csv"),
                "--vps-out", str(tmp_path / "vps.json"),
            ]
        )
        assert rc == 1
        assert "error: --vps-out requires --vp" in capsys.readouterr().err


class TestVps:
    def test_finds_pencil_point(self, tmp_path) -> None:
        rng = np.random.default_rng(82)
        lines = pencil_segments(rng, vp_xy=(600.0, 128.0), size=256, n=8)
        lines_path = tmp_path / "l.csv"
        write_lines(lines_path, lines)
        out = tmp_path / "vps.json"
        rc = main(
            [
                "vps",
                "--lines", str(lines_path),
                "--width", "256",
                "--height", "256",
                "--out", str(out),
            ]
        )
        assert rc == 0
        vps, assignment = read_vp_file(out)
        assert len(vps) == 1
        assert assignment == [0] * 8
        euc = vps[0].v[:2] / vps[0].v[2]
        assert math.hypot(euc[0] - 600.0, euc[1] - 128.0) < 1.0

    def test_same_seed_same_bytes(self, tmp_path) -> None:
        rng = np.random.default_rng(83)
        lines = pencil_segments(rng, vp_xy=(-400.0, 30.0), size=256, n=8)
        lines_path = tmp_path / "l.csv"
        write_lines(lines_path, lines)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = [
            "vps",
            "--lines", str(lines_path),
            "--width", "256",
            "--height", "256",
            "--seed", "3",
        ]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rejects_bad_dimensions(self, tmp_path, capsys) -> None:
        lines_path, _ = write_gt_inputs(tmp_path)
        rc = main(
            [
                "vps",
                "--lines", str(lines_path),
                "--width", "0",
                "--height", "256",
                "--out", str(tmp_path / "v.json"),
            ]
        )
        assert rc == 1
        assert "error: image dimensions must be positive" in capsys.readouterr().err

    def test_rejects_negative_seed(self, tmp_path, capsys) -> None:
        # numpy's own message ("expected non-negative integer") named no flag.
        lines_path, _ = write_gt_inputs(tmp_path)
        out = tmp_path / "v.json"
        rc = main(
            [
                "vps",
                "--lines", str(lines_path),
                "--width", "256",
                "--height", "256",
                "--seed", "-1",
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert "error: seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def write_pair(self, tmp_path):
        # Scattered segments, not a pencil: concurrent lines are degenerate
        # for line-based homography fitting, which hest exercises.
        rng = np.random.default_rng(84)
        lines = []
        for _ in range(20):
            mid = rng.uniform(5.0, 250.0, size=2)
            angle = rng.uniform(0.0, math.pi)
            half = 0.5 * rng.uniform(15.0, 40.0)
            d = np.array([math.cos(angle), math.sin(angle)])
            lines.append(LineSegment(mid - half * d, mid + half * d))
        a = tmp_path / "a.csv"
        write_lines(a, lines)
        h = tmp_path / "h.txt"
        h.write_text(IDENTITY_H)
        return a, h

    def test_rep_identity(self, tmp_path, capsys) -> None:
        a, h = self.write_pair(tmp_path)
        rc = main(
            [
                "eval", "rep",
                "--lines-a", str(a),
                "--lines-b", str(a),
                "--homography", str(h),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "repeatability 1.0\n"

    def test_le_identity(self, tmp_path, capsys) -> None:
        a, h = self.write_pair(tmp_path)
        rc = main(
            [
                "eval", "le",
                "--lines-a", str(a),
                "--lines-b", str(a),
                "--homography", str(h),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == "localization_error 0.0\n"

    def test_hest_identity(self, tmp_path, capsys) -> None:
        a, h = self.write_pair(tmp_path)
        rc = main(
            [
                "eval", "hest",
                "--lines-a", str(a),
                "--lines-b", str(a),
                "--homography", str(h),
                "--width", "256",
                "--height", "256",
            ]
        )
        assert rc == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("corner_error ")
        assert float(out_lines[0].split()[1]) < 0.5
        assert out_lines[1] == "num_inliers 20"

    def test_far_line_evaluates_without_warnings(self, tmp_path, capsys) -> None:
        # Squared distances and Hartley spreads of a line near +-1e300
        # overflow to inf: it never matches and no model fits it, silently.
        a = tmp_path / "a.csv"
        a.write_text("1e300,1,-1e300,2\n10,10,50,12\n20,40,60,80\n5,90,90,95\n")
        h = tmp_path / "h.txt"
        h.write_text(IDENTITY_H)
        pair = ["--lines-a", str(a), "--lines-b", str(a), "--homography", str(h)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "rep", *pair]) == 0
            assert main(["eval", "le", *pair]) == 0
            assert main(["eval", "hest", *pair, "--width", "100", "--height", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "repeatability 1.0\nlocalization_error 0.0\n"
        assert captured.err == "error: no homography model found consensus\n"

    def test_le_leaves_out_a_line_that_matches_at_no_finite_distance(
        self, tmp_path, capsys
    ) -> None:
        a = tmp_path / "a.csv"
        a.write_text("1e300,1,-1e300,2\n" + "".join(f"10,{y},50,{y}\n" for y in (10, 20, 30)))
        b = tmp_path / "b.csv"
        b.write_text("".join(f"10,{y},50,{y}\n" for y in (11, 21, 31, 41)))
        h = tmp_path / "h.txt"
        h.write_text(IDENTITY_H)
        pair = ["--lines-a", str(a), "--lines-b", str(b), "--homography", str(h)]
        assert main(["eval", "le", *pair]) == 0
        assert main(["eval", "le", *pair, "--distance", "orthogonal"]) == 0
        assert capsys.readouterr().out == "localization_error 1.0\nlocalization_error 10.625\n"
        a.write_text("1e300,1,-1e300,2\n")
        assert main(["eval", "le", *pair]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: localization error needs a match at a finite distance\n"

    @pytest.mark.parametrize("width, height", [("0", "64"), ("-5", "-5"), ("64", "0")])
    def test_hest_rejects_bad_dimensions(self, tmp_path, capsys, width, height) -> None:
        a, h = self.write_pair(tmp_path)
        rc = main(
            [
                "eval", "hest",
                "--lines-a", str(a),
                "--lines-b", str(a),
                "--homography", str(h),
                "--width", width,
                "--height", height,
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: image dimensions must be positive" in captured.err

    def test_vp_self_match(self, tmp_path, capsys) -> None:
        vps_path = tmp_path / "v.json"
        rng = np.random.default_rng(85)
        lines = pencil_segments(rng, vp_xy=(600.0, 128.0), size=256, n=8)
        lines_path = tmp_path / "l.csv"
        write_lines(lines_path, lines)
        assert main(
            [
                "vps",
                "--lines", str(lines_path),
                "--width", "256",
                "--height", "256",
                "--out", str(vps_path),
            ]
        ) == 0
        capsys.readouterr()
        rc = main(
            [
                "eval", "vp",
                "--vps", str(vps_path),
                "--gt-vps", str(vps_path),
                "--fx", "256", "--fy", "256", "--cx", "128", "--cy", "128",
            ]
        )
        assert rc == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("median_error_deg ")
        assert out_lines[1].startswith("auc ")
        # arccos of a near-1 dot product turns last-bit noise into ~1e-6
        # degrees, so self-comparison is only near-exact.
        assert float(out_lines[0].split()[1]) < 1e-4
        assert float(out_lines[1].split()[1]) > 1.0 - 1e-6

    def test_vp_consistency_exact(self, tmp_path, capsys) -> None:
        rng = np.random.default_rng(86)
        lines = pencil_segments(rng, vp_xy=(600.0, 128.0), size=256, n=8)
        lines_path = tmp_path / "l.csv"
        write_lines(lines_path, lines)
        vps_path = tmp_path / "v.json"
        assert main(
            [
                "vps",
                "--lines", str(lines_path),
                "--width", "256",
                "--height", "256",
                "--out", str(vps_path),
            ]
        ) == 0
        rc = main(
            [
                "eval", "vp-consistency",
                "--lines", str(lines_path),
                "--gt-vps", str(vps_path),
                "--vps", str(vps_path),
                "--thresholds", "1,2.5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "consistency@1 1.0\nconsistency@2.5 1.0\n"

    def test_vp_consistency_length_mismatch(self, tmp_path, capsys) -> None:
        rng = np.random.default_rng(86)
        lines = pencil_segments(rng, vp_xy=(600.0, 128.0), size=256, n=8)
        lines_path = tmp_path / "l.csv"
        write_lines(lines_path, lines)
        vps_path = tmp_path / "v.json"
        assert main(
            [
                "vps",
                "--lines", str(lines_path),
                "--width", "256",
                "--height", "256",
                "--out", str(vps_path),
            ]
        ) == 0
        short_path = tmp_path / "short.csv"
        write_lines(short_path, lines[:4])
        rc = main(
            [
                "eval", "vp-consistency",
                "--lines", str(short_path),
                "--gt-vps", str(vps_path),
                "--vps", str(vps_path),
            ]
        )
        assert rc == 1
        assert "error: assignment length" in capsys.readouterr().err

    def test_vp_file_with_tiny_entries(self, tmp_path, capsys) -> None:
        # [1e-13, 0, 1e-13] is the point (1, 0); an absolute norm test
        # rejected it and eval vp exited 1.
        tiny_path, gt_path = tmp_path / "tiny.json", tmp_path / "gt.json"
        tiny_path.write_text('{"vps": [[1e-13, 0.0, 1e-13]], "assignment": []}\n')
        gt_path.write_text('{"vps": [[1.0, 0.0, 1.0]], "assignment": []}\n')
        rc = main(
            [
                "eval", "vp",
                "--vps", str(tiny_path),
                "--gt-vps", str(gt_path),
                "--fx", "256", "--fy", "256", "--cx", "128", "--cy", "128",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out == "median_error_deg 0.0\nauc 1.0\n"

    def test_vp_file_with_huge_entries(self, tmp_path, capsys) -> None:
        # [1e300, 1e300, 1] overflowed its norm and was stored as the zero
        # vector: eval vp failed and eval vp-consistency printed 0.0.
        vps_path = tmp_path / "v.json"
        vps_path.write_text('{"vps": [[1e300, 1e300, 1.0]], "assignment": [0, 0, 0]}\n')
        lines_path = tmp_path / "l.csv"
        write_lines(lines_path, [LineSegment((10.0 + k, 20.0), (60.0 + k, 70.0)) for k in (0.0, 5.0, 9.0)])
        rc = main(
            [
                "eval", "vp",
                "--vps", str(vps_path),
                "--gt-vps", str(vps_path),
                "--fx", "256", "--fy", "256", "--cx", "128", "--cy", "128",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out == "median_error_deg 0.0\nauc 1.0\n"
        rc = main(
            [
                "eval", "vp-consistency",
                "--lines", str(lines_path),
                "--gt-vps", str(vps_path),
                "--vps", str(vps_path),
                "--thresholds", "1",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out == "consistency@1 1.0\n"

    def test_vp_rejects_non_finite_max_angle(self, tmp_path, capsys) -> None:
        vps_path = tmp_path / "v.json"
        write_vp_file(vps_path, [VanishingPoint(np.array([600.0, 128.0, 1.0]))], [])
        for bad in ("nan", "inf"):
            rc = main(
                [
                    "eval", "vp",
                    "--vps", str(vps_path),
                    "--gt-vps", str(vps_path),
                    "--fx", "256", "--fy", "256", "--cx", "128", "--cy", "128",
                    "--max-angle", bad,
                ]
            )
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: max_angle_deg must be positive and finite" in captured.err

    def test_vp_consistency_rejects_nan_threshold(self, tmp_path, capsys) -> None:
        rng = np.random.default_rng(86)
        lines = pencil_segments(rng, vp_xy=(600.0, 128.0), size=256, n=8)
        lines_path = tmp_path / "l.csv"
        write_lines(lines_path, lines)
        vps_path = tmp_path / "v.json"
        write_vp_file(vps_path, [VanishingPoint(np.array([600.0, 128.0, 1.0]))], [0] * 8)
        rc = main(
            [
                "eval", "vp-consistency",
                "--lines", str(lines_path),
                "--gt-vps", str(vps_path),
                "--vps", str(vps_path),
                "--thresholds", "1,nan",
            ]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: thresholds must not be NaN" in captured.err


class TestErrorReporting:
    def test_malformed_field_file_diagnostic(self, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.dlsf"
        bad.write_bytes(b"XXXXXXXXXXXXXXXXXXXXXXXX")
        rc = main(["detect", "--fields", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "byte offset" in err

    def test_missing_input_file(self, tmp_path, capsys) -> None:
        rc = main(
            [
                "gen-fields",
                "--lines", str(tmp_path / "nope.csv"),
                "--width", "64",
                "--height", "64",
                "--out", str(tmp_path / "o.dlsf"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_lines_file_diagnostic(self, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n")
        rc = main(
            [
                "gen-fields",
                "--lines", str(bad),
                "--width", "64",
                "--height", "64",
                "--out", str(tmp_path / "o.dlsf"),
            ]
        )
        assert rc == 1
        assert "expected 4 comma-separated" in capsys.readouterr().err


    @pytest.mark.parametrize("r", ["1e40", "3.5e38", "1e-50"])
    def test_gen_fields_refuses_r_outside_float32(self, tmp_path, capsys, r) -> None:
        lines_path, _ = write_gt_inputs(tmp_path)
        out = tmp_path / "o.dlsf"
        rc = main(
            [
                "gen-fields",
                "--lines", str(lines_path),
                "--width", "32",
                "--height", "32",
                "--r", r,
                "--out", str(out),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: band radius r ")
        assert not out.exists()

    @pytest.mark.parametrize("r", ["1e40", "1e-50"])
    def test_gen_gt_refuses_r_outside_float32(self, tmp_path, capsys, r) -> None:
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, square_image(32))
        rc = main(
            [
                "gen-gt",
                "--image", str(img_path),
                "--num-homographies", "1",
                "--r", r,
                "--out", str(tmp_path / "o.dlsf"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: band radius r ")

    def test_gen_gt_refuses_r_before_detecting(self, tmp_path, capsys, monkeypatch) -> None:
        from linefields import pseudo_gt

        def no_detect(*args, **kwargs):
            raise AssertionError("detect ran before r was checked")

        monkeypatch.setattr(pseudo_gt, "detect", no_detect)
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, square_image(32))
        gen = ["gen-gt", "--image", str(img_path), "--num-homographies", "8"]
        rc = main(gen + ["--r", "1e40", "--out", str(tmp_path / "o.dlsf")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: band radius r ") and err.count("\n") == 1

    def test_gen_fields_refuses_r_before_rendering(self, tmp_path, capsys, monkeypatch) -> None:
        from linefields import cli

        def no_render(*args, **kwargs):
            raise AssertionError("render_fields ran before r was checked")

        monkeypatch.setattr(cli, "render_fields", no_render)
        lines_path, _ = write_gt_inputs(tmp_path)
        gen = ["gen-fields", "--lines", str(lines_path), "--width", "32", "--height", "32"]
        assert main(gen + ["--r", "1e-50", "--out", str(tmp_path / "o.dlsf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: band radius r ") and err.count("\n") == 1

    def test_gen_fields_refuses_overflowing_segment(self, tmp_path, capsys) -> None:
        # It crosses the frame, so every pixel is within the frame's diagonal
        # of it, but its squared length and projections overflow. Warnings
        # are errors here, so this also checks that none is raised.
        lines_path = tmp_path / "huge.csv"
        lines_path.write_text("-1e200,1,1e200,2\n")
        out = tmp_path / "o.dlsf"
        gen = ["gen-fields", "--lines", str(lines_path), "--width", "16", "--height", "16"]
        assert main(gen + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: segment coordinates are too large to render\n"
        assert not out.exists()

    def test_gen_fields_refuses_nan_distances_beside_a_finite_segment(
        self, tmp_path, capsys
    ) -> None:
        # The second segment keeps every pixel finite, but the crossing
        # one's distances overflow to NaN, so no pixel's closest distance
        # is known.
        lines_path = tmp_path / "huge.csv"
        lines_path.write_text("-1e200,1,1e200,2\n5,5,10,10\n")
        out = tmp_path / "o.dlsf"
        gen = ["gen-fields", "--lines", str(lines_path), "--width", "16", "--height", "16"]
        assert main(gen + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: segment coordinates are too large to render\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "message", ["Unable to allocate 74.5 GiB for an array", ""]
    )
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, message) -> None:
        # A huge grid fails to allocate with numpy's MemoryError subclass;
        # the test raises one instead of allocating.
        from linefields import cli

        def huge(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "render_fields", huge)
        lines_path, _ = write_gt_inputs(tmp_path)
        gen = ["gen-fields", "--lines", str(lines_path), "--width", "100000", "--height", "100000"]
        assert main(gen + ["--out", str(tmp_path / "o.dlsf")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message or 'out of memory'}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"vps": [[1%s, 0, 1]], "assignment": []}' % ("0" * 400), "vps[0]: int too large"),
            ("[" * 200_000, "JSON nested too deeply"),
        ],
        ids=["huge_int", "deep_nesting"],
    )
    def test_eval_vp_refuses_hostile_json(self, tmp_path, capsys, text, message) -> None:
        # A 401-digit integer raised OverflowError and deep nesting raised
        # RecursionError, each as a traceback.
        bad_path, gt_path = tmp_path / "bad.json", tmp_path / "gt.json"
        bad_path.write_text(text)
        write_vp_file(gt_path, [VanishingPoint(np.array([600.0, 128.0, 1.0]))], [])
        rc = main(
            [
                "eval", "vp",
                "--vps", str(bad_path),
                "--gt-vps", str(gt_path),
                "--fx", "256", "--fy", "256", "--cx", "128", "--cy", "128",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {bad_path}: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "intrinsics",
        [["1e-320", "256", "128", "128"], ["1e300", "1e300", "1e300", "128"]],
    )
    def test_eval_vp_refuses_overflowing_intrinsics(
        self, tmp_path, capsys, intrinsics
    ) -> None:
        # These used to warn in matmul or divide and then fail inside the
        # assignment solver with "matrix contains invalid numeric entries".
        vps_path = tmp_path / "v.json"
        vps = [
            VanishingPoint(np.array([600.0, 128.0, 1.0])),
            VanishingPoint(np.array([1.0, 0.2, 0.0])),
        ]
        write_vp_file(vps_path, vps, [])
        fx, fy, cx, cy = intrinsics
        rc = main(
            [
                "eval", "vp",
                "--vps", str(vps_path),
                "--gt-vps", str(vps_path),
                "--fx", fx, "--fy", fy, "--cx", cx, "--cy", cy,
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vanishing point directions")
        assert "intrinsics" in err


class TestParserReuse:
    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys, monkeypatch) -> None:
        """gen-fields, eval rep, vps, a bad argument, then gen-fields again
        in one process: every call parses into a new Namespace that holds
        only its own subcommand's options, and writes what it always did."""
        from linefields import cli

        parsed = []
        parse_args = cli.build_parser().parse_args

        def recording_parse_args(argv):
            parsed.append(parse_args(argv))
            return parsed[-1]

        monkeypatch.setattr(cli.build_parser(), "parse_args", recording_parse_args)
        lines_path, fields_path = write_gt_inputs(tmp_path)
        gen = ["gen-fields", "--lines", str(lines_path), "--width", "256", "--height", "256"]
        h = tmp_path / "h.txt"
        h.write_text(IDENTITY_H)
        rep = ["eval", "rep", "--lines-a", str(lines_path), "--lines-b", str(lines_path)]
        pencil = tmp_path / "pencil.csv"
        write_lines(pencil, pencil_segments(np.random.default_rng(82), (600.0, 128.0), 256, 8))
        vps = ["vps", "--lines", str(pencil), "--width", "256", "--height", "256"]

        assert main(gen + ["--out", str(tmp_path / "a.dlsf")]) == 0
        assert main(rep + ["--homography", str(h)]) == 0
        assert capsys.readouterr().out == "repeatability 1.0\n"
        assert main(vps + ["--out", str(tmp_path / "v.json")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["vps", "--lines", str(pencil), "--width", "wide"])
        assert exc.value.code == 2
        assert "invalid int value: 'wide'" in capsys.readouterr().err
        assert main(gen + ["--r", "3.0", "--out", str(tmp_path / "b.dlsf")]) == 0

        assert (tmp_path / "a.dlsf").read_bytes() == fields_path.read_bytes()
        assert read_field_file(tmp_path / "b.dlsf").r == 3.0
        assert len(read_vp_file(tmp_path / "v.json")[0]) == 1
        assert len({id(ns) for ns in parsed}) == len(parsed) == 4
        first, second, third, last = (vars(ns) for ns in parsed)
        assert first["r"] == 5.0 and last["r"] == 3.0
        assert "width" not in second and "lines_a" not in third
        assert set(first) == set(last)
