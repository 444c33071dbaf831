"""Line attraction fields, detection, refinement, and evaluation.

The pipeline: render or aggregate distance/angle fields for line segments
(fields, pseudo_gt), extract segments from them or from raw images with an
a-contrario region-growing detector (detector), fit vanishing points (vp),
jointly refine lines and vanishing points against the fields (refine), and
score detections (evaluate). File formats and the CLI live in io and cli.
"""

from .detector import (
    DetectorParams,
    FilterParams,
    detect,
    filter_lines,
    image_gradient,
    lsd_extract,
)
from .evaluate import (
    EvalParams,
    LineMatch,
    corner_error,
    estimate_homography,
    homography_from_lines,
    localization_error,
    match_one_to_one,
    repeatability,
    vp_consistency,
    vp_error_auc,
)
from .fields import (
    FieldPair,
    ScalarField,
    bilinear_sample,
    df_normalize,
    orient_angles,
    render_fields,
    surrogate_gradient,
)
from .geometry import (
    CameraIntrinsics,
    Homography,
    LineSegment,
    Point2,
    apply_homography,
    circular_distance,
    clip_segment_to_rect,
    d_vp,
    orthogonal_distance,
    point_segment_distance,
    wrap_angle,
)
from .io import (
    read_field_file,
    read_homography,
    read_lines,
    read_pgm,
    read_vp_file,
    write_field_file,
    write_homography,
    write_lines,
    write_pgm,
    write_vp_file,
)
from .pseudo_gt import (
    HomographySamplerParams,
    aggregate_median,
    generate_pseudo_gt,
    sample_homography,
    warp_image,
    warp_lines,
)
from .refine import RefineParams, line_cost, refine_joint, refine_line
from .vp import VanishingPoint, VpParams, fit_vps, refine_vp, vp_from_two_lines

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "DetectorParams",
    "EvalParams",
    "FieldPair",
    "FilterParams",
    "Homography",
    "HomographySamplerParams",
    "LineMatch",
    "LineSegment",
    "Point2",
    "RefineParams",
    "ScalarField",
    "VanishingPoint",
    "VpParams",
    "aggregate_median",
    "apply_homography",
    "bilinear_sample",
    "circular_distance",
    "clip_segment_to_rect",
    "corner_error",
    "d_vp",
    "detect",
    "filter_lines",
    "df_normalize",
    "estimate_homography",
    "fit_vps",
    "generate_pseudo_gt",
    "homography_from_lines",
    "image_gradient",
    "line_cost",
    "localization_error",
    "lsd_extract",
    "match_one_to_one",
    "orient_angles",
    "orthogonal_distance",
    "point_segment_distance",
    "read_field_file",
    "read_homography",
    "read_lines",
    "read_pgm",
    "read_vp_file",
    "refine_joint",
    "refine_line",
    "refine_vp",
    "render_fields",
    "repeatability",
    "sample_homography",
    "surrogate_gradient",
    "vp_consistency",
    "vp_error_auc",
    "vp_from_two_lines",
    "warp_image",
    "warp_lines",
    "wrap_angle",
    "write_field_file",
    "write_homography",
    "write_lines",
    "write_pgm",
    "write_vp_file",
]
