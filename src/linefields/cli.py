"""Command-line surface.

Subcommands wrap the library one-to-one: gen-fields, gen-gt, detect,
refine, vps, and the eval family. Every command exits 0 on success and
nonzero with a diagnostic on stderr otherwise; outputs are byte-identical
across runs given the same seed. A bad flag value is refused before any
input is read, by the check of the library function that takes it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

import numpy as np

from .detector import detect
from .evaluate import (
    corner_error,
    estimate_homography,
    localization_error,
    match_one_to_one,
    repeatability,
    vp_consistency,
    vp_error_auc,
)
from .fields import render_fields
from .geometry import CameraIntrinsics, _require_int, _require_positive, _rows, _segments
from .io import (
    _stored_r,
    read_field_file,
    read_homography,
    read_lines,
    read_pgm,
    read_vp_file,
    write_field_file,
    write_lines,
    write_vp_file,
)
from .pseudo_gt import generate_pseudo_gt
# refine_line stays a name of this module: perfbench's tracer hooks it here.
from .refine import RefineParams, _refine_lines, refine_joint, refine_line  # noqa: F401
from .vp import fit_vps

__all__ = ["main", "build_parser"]


def _cmd_gen_fields(args: argparse.Namespace) -> int:
    _stored_r(args.r)
    lines = read_lines(args.lines)
    fields = render_fields(lines, args.width, args.height, r=args.r)
    write_field_file(args.out, fields)
    return 0


def _cmd_gen_gt(args: argparse.Namespace) -> int:
    _stored_r(args.r)
    image = read_pgm(args.image).astype(np.float64)
    fields = generate_pseudo_gt(image, args.num_homographies, r=args.r, seed=args.seed)
    write_field_file(args.out, fields)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    if args.fields is None and args.image is None:
        raise ValueError("detect needs --fields, --image, or both")
    fields = None if args.fields is None else read_field_file(args.fields)
    image = None if args.image is None else read_pgm(args.image).astype(np.float64)
    if fields is None:
        lines = detect(image)
    else:
        lines = detect(fields, image=image, apply_filter=not args.no_filter)
    write_lines(args.out, lines)
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    if args.vps_out is not None and not args.vp:
        raise ValueError("--vps-out requires --vp")
    lines = read_lines(args.lines)
    fields = read_field_file(args.fields)
    params = RefineParams()
    if args.vp:
        refined, vps, assignment = refine_joint(lines, fields, params)
    else:
        refined = _segments(_refine_lines(_rows(lines), fields, [None] * len(lines), params)[0])
        vps, assignment = [], [None] * len(lines)
    write_lines(args.out, refined)
    if args.vps_out is not None:
        write_vp_file(args.vps_out, vps, assignment)
    return 0


def _cmd_vps(args: argparse.Namespace) -> int:
    if args.width < 1 or args.height < 1:
        raise ValueError("image dimensions must be positive")
    _require_int("seed", args.seed, minimum=0)
    lines = read_lines(args.lines)
    vps, assignment = fit_vps(lines, seed=args.seed)
    write_vp_file(args.out, vps, assignment)
    return 0


def _matched_pairs(args: argparse.Namespace):
    lines_a = read_lines(args.lines_a)
    lines_b = read_lines(args.lines_b)
    h_gt = read_homography(args.homography)
    return lines_a, lines_b, h_gt


def _cmd_eval_rep(args: argparse.Namespace) -> int:
    _require_positive("threshold", args.threshold)
    lines_a, lines_b, h_gt = _matched_pairs(args)
    matches = match_one_to_one(lines_a, lines_b, h_gt, distance=args.distance)
    value = repeatability(matches, (len(lines_a), len(lines_b)), threshold=args.threshold)
    print(f"repeatability {value!r}")
    return 0


def _cmd_eval_le(args: argparse.Namespace) -> int:
    _require_int("top_k", args.top_k, minimum=1)
    lines_a, lines_b, h_gt = _matched_pairs(args)
    matches = match_one_to_one(lines_a, lines_b, h_gt, distance=args.distance)
    value = localization_error(matches, top_k=args.top_k)
    print(f"localization_error {value!r}")
    return 0


def _cmd_eval_hest(args: argparse.Namespace) -> int:
    _require_positive("inlier_threshold", args.inlier_threshold)
    _require_int("seed", args.seed, minimum=0)
    lines_a, lines_b, h_gt = _matched_pairs(args)
    matches = match_one_to_one(lines_a, lines_b, h_gt, distance=args.distance)
    pairs = [(lines_a[m.index_a], lines_b[m.index_b]) for m in matches]
    h_est, inliers = estimate_homography(pairs, inlier_threshold=args.inlier_threshold, seed=args.seed)
    print(f"corner_error {corner_error(h_est, h_gt, args.width, args.height)!r}")
    print(f"num_inliers {int(inliers.sum())}")
    return 0


def _cmd_eval_vp(args: argparse.Namespace) -> int:
    gt_vps, _ = read_vp_file(args.gt_vps)
    pred_vps, _ = read_vp_file(args.vps)
    intrinsics = CameraIntrinsics(args.fx, args.fy, args.cx, args.cy)
    median, auc = vp_error_auc(gt_vps, pred_vps, intrinsics, args.max_angle)
    print(f"median_error_deg {median!r}")
    print(f"auc {auc!r}")
    return 0


def _cmd_eval_vp_consistency(args: argparse.Namespace) -> int:
    lines = read_lines(args.lines)
    gt_vps, assignment = read_vp_file(args.gt_vps)
    if len(assignment) != len(lines):
        raise ValueError("assignment length does not match the number of lines")
    pred_vps, _ = read_vp_file(args.vps)
    clusters = [[seg for seg, a in zip(lines, assignment) if a == i] for i in range(len(gt_vps))]
    thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    values = vp_consistency(clusters, pred_vps, thresholds)
    for t, v in zip(thresholds, values):
        print(f"consistency@{t:g} {v!r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call.

    Parsing leaves it unchanged: each ``parse_args`` fills a new Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="linefields",
        description="Attraction-field line detection, refinement, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fields", help="render fields from a segment CSV")
    p.add_argument("--lines", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--r", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_fields)

    p = sub.add_parser("gen-gt", help="pseudo ground truth from an image")
    p.add_argument("--image", required=True)
    p.add_argument("--num-homographies", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=float, default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_gt)

    p = sub.add_parser("detect", help="detect segments in fields or an image")
    p.add_argument("--fields")
    p.add_argument("--image")
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("refine", help="refine segments against fields")
    p.add_argument("--lines", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--vp", action="store_true", help="joint line + VP refinement")
    p.add_argument("--out", required=True)
    p.add_argument("--vps-out")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("vps", help="fit vanishing points to segments")
    p.add_argument("--lines", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_vps)

    ev = sub.add_parser("eval", help="metrics").add_subparsers(
        dest="metric", required=True
    )

    def matched_args(q: argparse.ArgumentParser) -> None:
        q.add_argument("--lines-a", required=True)
        q.add_argument("--lines-b", required=True)
        q.add_argument("--homography", required=True)
        q.add_argument(
            "--distance", choices=("structural", "orthogonal"), default="structural"
        )

    p = ev.add_parser("rep", help="repeatability")
    matched_args(p)
    p.add_argument("--threshold", type=float, default=3.0)
    p.set_defaults(func=_cmd_eval_rep)

    p = ev.add_parser("le", help="localization error")
    matched_args(p)
    p.add_argument("--top-k", type=int, default=50)
    p.set_defaults(func=_cmd_eval_le)

    p = ev.add_parser("hest", help="homography re-estimation corner error")
    matched_args(p)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--inlier-threshold", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval_hest)

    p = ev.add_parser("vp", help="vanishing point angular error")
    p.add_argument("--vps", required=True)
    p.add_argument("--gt-vps", required=True)
    p.add_argument("--fx", type=float, required=True)
    p.add_argument("--fy", type=float, required=True)
    p.add_argument("--cx", type=float, required=True)
    p.add_argument("--cy", type=float, required=True)
    p.add_argument("--max-angle", type=float, default=10.0)
    p.set_defaults(func=_cmd_eval_vp)

    p = ev.add_parser("vp-consistency", help="line/VP consistency fractions")
    p.add_argument("--lines", required=True)
    p.add_argument("--gt-vps", required=True, help="VP file whose assignment defines clusters")
    p.add_argument("--vps", required=True)
    p.add_argument("--thresholds", default="1,2,3,5")
    p.set_defaults(func=_cmd_eval_vp_consistency)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
