"""Deterministic scene generators for the three benchmark workloads.

Each generator takes a numpy Generator and a directory, writes the input
files the CLI reads (segment CSVs, a PGM image, VP and homography files)
and returns a ``Scene`` describing the commands to run and the ground
truth the checks compare against. Only these files reach the program; the
ground truth arrays stay in the benchmark. Same seed, same bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

R_BAND = 5.0  # field band radius passed to gen-fields / gen-gt

VP_SIZE = 256
VP_LINES_PER_VP = 15
VP_CLUTTER = 10
VP_FOCAL = 256.0

PGT_SIZE = 256
PGT_BARS = 8
PGT_BAR_WIDTH = 4.0
PGT_NOISE = 8.0
PGT_WARPS = 8

TV_SIZE = 384
TV_SHARED = 100
TV_UNIQUE = 70

BATCH = 256  # line candidates proposed at a time


@dataclass
class Scene:
    """One scene: its CLI calls in order and what the checks need."""

    directory: Path
    commands: list[list[str]]
    outputs: list[str]  # files hashed after the scene, relative to directory
    truth: dict = field(default_factory=dict)  # ground truth for the checks


# ---------------------------------------------------------------- writers


def write_segments(path: Path, segs: np.ndarray) -> None:
    path.write_text("".join(f"{a!r},{b!r},{c!r},{d!r}\n" for a, b, c, d in segs.tolist()))


def read_segments(path: Path) -> np.ndarray:
    rows = [
        [float(v) for v in line.split(",")]
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return np.asarray(rows, dtype=float).reshape(-1, 4)


def write_homography(path: Path, h: np.ndarray) -> None:
    path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in h) + "\n")


def write_pgm(path: Path, image: np.ndarray) -> None:
    img = np.clip(np.rint(image), 0, 255).astype(np.uint8)
    path.write_bytes(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode() + img.tobytes())


def read_field_df(path: Path) -> np.ndarray:
    """DF plane of a .dlsf file (20-byte header, then float32 DF and AF)."""
    blob = path.read_bytes()
    height, width = np.frombuffer(blob, dtype="<u4", count=2, offset=8)
    return np.frombuffer(blob, dtype="<f4", count=int(height * width), offset=20).reshape(
        int(height), int(width)
    )


# --------------------------------------------------------------- geometry


def segment_distance_field(segs: np.ndarray, width: int, height: int) -> np.ndarray:
    """Brute-force distance from every pixel center to the closest segment."""
    px = np.arange(width, dtype=float) + 0.5
    py = (np.arange(height, dtype=float) + 0.5)[:, None]
    best = np.full((height, width), np.inf)
    for x1, y1, x2, y2 in segs:
        dx, dy = x2 - x1, y2 - y1
        t = np.clip(((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        best = np.minimum(best, np.hypot(px - x1 - t * dx, py - y1 - t * dy))
    return best


def band_scores(df: np.ndarray, df_gt: np.ndarray, r: float = R_BAND) -> tuple[float, float]:
    """(coverage, mae) of a distance field over the pixels within r of a reference segment.

    ``coverage`` is the share of those pixels that the field reaches
    (DF < r); ``mae`` is the mean |DF - DF_gt| over the reached ones. A
    missed edge lowers coverage and leaves the error of the found ones alone.
    """
    band = df_gt <= r
    reached = df[band] < r
    if not reached.any():
        return 0.0, math.inf
    return float(reached.mean()), float(np.abs(df[band][reached] - df_gt[band][reached]).mean())


def structural_errors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise mean endpoint distance, minimized over the two pairings."""
    d11 = np.hypot(*(a[:, 0:2] - b[:, 0:2]).T)
    d22 = np.hypot(*(a[:, 2:4] - b[:, 2:4]).T)
    d12 = np.hypot(*(a[:, 0:2] - b[:, 2:4]).T)
    d21 = np.hypot(*(a[:, 2:4] - b[:, 0:2]).T)
    return np.minimum(d11 + d22, d12 + d21) * 0.5


def _point_seg_distance(p: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Row-wise distance from points (n, 2) to segments (n, 4)."""
    a, d = segs[:, 0:2], segs[:, 2:4] - segs[:, 0:2]
    t = np.clip(np.sum((p - a) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
    off = p - a - t[:, None] * d
    return np.hypot(off[:, 0], off[:, 1])


def _orient(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (v[:, 0] - u[:, 0]) * (w[:, 1] - u[:, 1]) - (v[:, 1] - u[:, 1]) * (w[:, 0] - u[:, 0])


def _segment_distance(s: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Row-wise exact distance between segments (n, 4), 0 when they cross."""
    p, q, a, b = s[:, 0:2], s[:, 2:4], o[:, 0:2], o[:, 2:4]
    crossing = ((_orient(a, b, p) > 0) != (_orient(a, b, q) > 0)) & (
        (_orient(p, q, a) > 0) != (_orient(p, q, b) > 0)
    )
    ends = np.minimum.reduce(
        [_point_seg_distance(p, o), _point_seg_distance(q, o), _point_seg_distance(a, s), _point_seg_distance(b, s)]
    )
    return np.where(crossing, 0.0, ends)


def clashes(s: np.ndarray, o: np.ndarray, sep: float) -> np.ndarray:
    """(len(s), len(o)) mask of segment pairs closer than ``sep``."""
    half_s = 0.5 * np.hypot(s[:, 2] - s[:, 0], s[:, 3] - s[:, 1])
    half_o = 0.5 * np.hypot(o[:, 2] - o[:, 0], o[:, 3] - o[:, 1])
    mid_s = 0.5 * (s[:, 0:2] + s[:, 2:4])
    mid_o = 0.5 * (o[:, 0:2] + o[:, 2:4])
    gap = np.hypot(mid_s[:, None, 0] - mid_o[None, :, 0], mid_s[:, None, 1] - mid_o[None, :, 1])
    si, oi = np.nonzero(gap < half_s[:, None] + half_o[None, :] + sep)
    out = np.zeros((len(s), len(o)), dtype=bool)
    out[si, oi] = _segment_distance(s[si], o[oi]) < sep
    return out


def _fill(segs: list, count: int, propose, size: float, margin: float, sep: float) -> None:
    """Append ``count`` proposals that stay inside the margin and ``sep`` apart.

    ``propose()`` returns a batch of candidate rows, already filtered for
    any workload-specific condition; candidates are accepted in order.
    """
    target = len(segs) + count
    for _ in range(1000):
        if len(segs) == target:
            return
        cand = propose()
        cand = cand[(cand.min(axis=1) >= margin) & (cand.max(axis=1) <= size - margin)]
        if segs:
            cand = cand[~clashes(cand, np.asarray(segs), sep).any(axis=1)]
        inner = clashes(cand, cand, sep)
        chosen: list[int] = []
        for i in range(len(cand)):
            if len(segs) + len(chosen) == target:
                break
            if not inner[i, chosen].any():
                chosen.append(i)
        segs.extend(cand[chosen])
    if len(segs) < target:
        raise RuntimeError(f"could not place {count} segments {sep} px apart")


def _centered(mids: np.ndarray, dirs: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Segments from midpoints, unit directions and half-lengths."""
    return np.hstack([mids - dirs * half[:, None], mids + dirs * half[:, None]])


def _unit(angles: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _d_vp(segs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mean endpoint distance to the line joining each midpoint and v."""
    mids = np.hstack([0.5 * (segs[:, 0:2] + segs[:, 2:4]), np.ones((len(segs), 1))])
    lines = np.cross(mids, v)
    norm = np.maximum(np.hypot(lines[:, 0], lines[:, 1]), 1e-12)
    d1 = np.abs(lines[:, 0] * segs[:, 0] + lines[:, 1] * segs[:, 1] + lines[:, 2])
    d2 = np.abs(lines[:, 0] * segs[:, 2] + lines[:, 1] * segs[:, 3] + lines[:, 2])
    return 0.5 * (d1 + d2) / norm


def _perturb(seg: np.ndarray, rng, lateral: float = 1.5, rot_deg: float = 3.0) -> np.ndarray:
    """Rotate about the midpoint and shift along the normal, length kept."""
    dx, dy = seg[2] - seg[0], seg[3] - seg[1]
    ang = math.atan2(dy, dx)
    theta = ang + rng.uniform(-math.radians(rot_deg), math.radians(rot_deg))
    off = rng.uniform(-lateral, lateral)
    mx = 0.5 * (seg[0] + seg[2]) - math.sin(ang) * off
    my = 0.5 * (seg[1] + seg[3]) + math.cos(ang) * off
    half = 0.5 * math.hypot(dx, dy)
    ux, uy = math.cos(theta) * half, math.sin(theta) * half
    return np.array([mx - ux, my - uy, mx + ux, my + uy])


IDENTITY = np.eye(3)


# --------------------------------------------------------------- vp_refine


def vp_refine_scene(rng: np.random.Generator, directory: Path, seed: int) -> Scene:
    """Three pencils (two finite VPs, one at infinity) of 15 lines, 10 clutter."""
    size = VP_SIZE
    c = 0.5 * size
    vps = [
        np.array([rng.uniform(-500.0, -250.0), c + rng.uniform(-80.0, 80.0), 1.0]),
        np.array([size + rng.uniform(250.0, 500.0), c + rng.uniform(-80.0, 80.0), 1.0]),
    ]
    a = math.pi / 2 + rng.uniform(-0.25, 0.25)
    vps.append(np.array([math.cos(a), math.sin(a), 0.0]))

    segs: list[np.ndarray] = []
    assignment: list[int | None] = []
    for k, v in enumerate(vps):

        def pencil(v=v):
            mids = rng.uniform(24.0, size - 24.0, (BATCH, 2))
            d = v[:2] - mids * v[2]
            return _centered(mids, d / np.hypot(d[:, 0:1], d[:, 1:2]), rng.uniform(12.0, 24.0, BATCH))

        _fill(segs, VP_LINES_PER_VP, pencil, size, 8.0, 6.0)
        assignment += [k] * VP_LINES_PER_VP

    def clutter():
        c = _centered(
            rng.uniform(24.0, size - 24.0, (BATCH, 2)),
            _unit(rng.uniform(0.0, math.pi, BATCH)),
            rng.uniform(12.0, 24.0, BATCH),
        )
        return c[np.all([_d_vp(c, v) > 3.0 for v in vps], axis=0)]

    _fill(segs, VP_CLUTTER, clutter, size, 8.0, 6.0)
    assignment += [None] * VP_CLUTTER
    gt = np.asarray(segs)
    pert = np.asarray([_perturb(s, rng) for s in gt])

    directory.mkdir(parents=True, exist_ok=True)
    write_segments(directory / "gt.csv", gt)
    write_segments(directory / "pert.csv", pert)
    write_homography(directory / "identity.txt", IDENTITY)
    doc = {"vps": [[float(x) for x in v] for v in vps], "assignment": assignment}
    (directory / "gt_vps.json").write_text(json.dumps(doc, indent=2) + "\n")

    s, f, cc = str(size), repr(VP_FOCAL), repr(c)
    commands = [
        ["gen-fields", "--lines", "gt.csv", "--width", s, "--height", s, "--r", repr(R_BAND), "--out", "fields.dlsf"],
        ["detect", "--fields", "fields.dlsf", "--out", "det.csv"],
        ["refine", "--lines", "pert.csv", "--fields", "fields.dlsf", "--vp", "--out", "refined.csv", "--vps-out", "refined_vps.json"],
        ["vps", "--lines", "refined.csv", "--width", s, "--height", s, "--seed", str(seed), "--out", "vps.json"],
        ["eval", "vp", "--vps", "vps.json", "--gt-vps", "gt_vps.json", "--fx", f, "--fy", f, "--cx", cc, "--cy", cc],
        ["eval", "rep", "--lines-a", "gt.csv", "--lines-b", "det.csv", "--homography", "identity.txt"],
        ["eval", "le", "--lines-a", "gt.csv", "--lines-b", "det.csv", "--homography", "identity.txt"],
    ]
    outputs = ["fields.dlsf", "det.csv", "refined.csv", "refined_vps.json", "vps.json"]
    return Scene(directory, commands, outputs, {"gt": gt, "pert": pert})


# --------------------------------------------------------------- pseudo_gt


def _bar_image(bars: np.ndarray, size: int, rng, lo: float = 40.0, hi: float = 200.0) -> np.ndarray:
    """Bright bars of width PGT_BAR_WIDTH, 4x4 supersampled, plus noise."""
    sub = (np.arange(4) + 0.5) / 4.0
    xs = (np.arange(size)[:, None] + sub[None, :]).ravel()
    gx, gy = np.meshgrid(xs, xs)
    cover = np.zeros_like(gx, dtype=bool)
    pad = PGT_BAR_WIDTH
    for x1, y1, x2, y2 in bars:
        dx, dy = x2 - x1, y2 - y1
        length = math.hypot(dx, dy)
        ux, uy = dx / length, dy / length
        # Only the samples in the bar's padded bounding box can be covered.
        c0, c1 = np.searchsorted(xs, [min(x1, x2) - pad, max(x1, x2) + pad])
        r0, r1 = np.searchsorted(xs, [min(y1, y2) - pad, max(y1, y2) + pad])
        bx, by = gx[r0:r1, c0:c1], gy[r0:r1, c0:c1]
        along = (bx - x1) * ux + (by - y1) * uy
        across = -(bx - x1) * uy + (by - y1) * ux
        cover[r0:r1, c0:c1] |= (along >= 0.0) & (along <= length) & (np.abs(across) <= 0.5 * PGT_BAR_WIDTH)
    frac = cover.reshape(size, 4, size, 4).mean(axis=(1, 3))
    img = lo + (hi - lo) * frac + rng.normal(0.0, PGT_NOISE, (size, size))
    return img


def pseudo_gt_scene(rng: np.random.Generator, directory: Path, seed: int) -> Scene:
    """Noisy image of 4 px bars; the reference lines are the bars' long edges."""
    size = PGT_SIZE
    bars: list[np.ndarray] = []

    def bar():
        return _centered(
            rng.uniform(40.0, size - 40.0, (BATCH, 2)),
            _unit(rng.uniform(0.0, math.pi, BATCH)),
            rng.uniform(40.0, 80.0, BATCH),
        )

    _fill(bars, PGT_BARS, bar, size, 16.0, 16.0)
    bars_arr = np.asarray(bars)
    edges = []
    for x1, y1, x2, y2 in bars_arr:
        length = math.hypot(x2 - x1, y2 - y1)
        nx, ny = -(y2 - y1) / length, (x2 - x1) / length
        for side in (-0.5, 0.5):
            o = side * PGT_BAR_WIDTH
            edges.append([x1 + nx * o, y1 + ny * o, x2 + nx * o, y2 + ny * o])
    gt = np.asarray(edges)
    image = _bar_image(bars_arr, size, rng)

    directory.mkdir(parents=True, exist_ok=True)
    write_pgm(directory / "image.pgm", image)
    write_segments(directory / "gt.csv", gt)
    write_homography(directory / "identity.txt", IDENTITY)
    df_gt = segment_distance_field(gt, size, size)
    # Detections are fragments of the long bar edges: match by supporting line.
    pair = ["--lines-a", "gt.csv", "--lines-b", "det.csv", "--homography", "identity.txt", "--distance", "orthogonal"]
    commands = [
        ["gen-gt", "--image", "image.pgm", "--num-homographies", str(PGT_WARPS), "--seed", str(seed), "--r", repr(R_BAND), "--out", "pgt.dlsf"],
        ["detect", "--fields", "pgt.dlsf", "--out", "det.csv"],
        ["eval", "rep", *pair],
        ["eval", "le", *pair],
    ]
    return Scene(directory, commands, ["pgt.dlsf", "det.csv"], {"df_gt": df_gt})


# ---------------------------------------------------------------- two_view


def _mild_homography(rng, size: int) -> np.ndarray:
    c = 0.5 * size
    rot = rng.uniform(-0.12, 0.12)
    scale = rng.uniform(0.92, 1.08)
    tx, ty = rng.uniform(-0.04, 0.04, 2) * size
    px, py = rng.uniform(-0.03, 0.03, 2) * 2.0 / size
    cos, sin = math.cos(rot) * scale, math.sin(rot) * scale
    core = np.array([[cos, -sin, tx], [sin, cos, ty], [px, py, 1.0]])
    center = np.array([[1.0, 0.0, c], [0.0, 1.0, c], [0.0, 0.0, 1.0]])
    uncenter = np.array([[1.0, 0.0, -c], [0.0, 1.0, -c], [0.0, 0.0, 1.0]])
    h = center @ core @ uncenter
    return h / h[2, 2]


def _warp_segs(h: np.ndarray, segs: np.ndarray) -> np.ndarray:
    pts = segs.reshape(-1, 2)
    hom = np.hstack([pts, np.ones((len(pts), 1))]) @ h.T
    return (hom[:, :2] / hom[:, 2:3]).reshape(-1, 4)


def _random_lines(rng, accept=None):
    def propose():
        c = _centered(
            rng.uniform(16.0, TV_SIZE - 16.0, (BATCH, 2)),
            _unit(rng.uniform(0.0, math.pi, BATCH)),
            rng.uniform(12.0, 30.0, BATCH),
        )
        return c if accept is None else c[accept(c)]

    return propose


def two_view_scene(rng: np.random.Generator, directory: Path, seed: int) -> Scene:
    """Two views under a mild homography: shared lines plus lines of one view only."""
    size = TV_SIZE
    h = _mild_homography(rng, size)

    def inside(c):
        w = _warp_segs(h, c)
        return (w.min(axis=1) >= 12.0) & (w.max(axis=1) <= size - 12.0)

    a_segs: list[np.ndarray] = []
    _fill(a_segs, TV_SHARED, _random_lines(rng, inside), size, 12.0, 5.0)
    b_segs = list(_warp_segs(h, np.asarray(a_segs)))
    _fill(a_segs, TV_UNIQUE, _random_lines(rng), size, 12.0, 5.0)
    _fill(b_segs, TV_UNIQUE, _random_lines(rng), size, 12.0, 5.0)
    a_arr, b_arr = np.asarray(a_segs), np.asarray(b_segs)

    directory.mkdir(parents=True, exist_ok=True)
    write_segments(directory / "a.csv", a_arr)
    write_segments(directory / "b.csv", b_arr)
    write_homography(directory / "h.txt", h)
    s = str(size)
    pair = ["--lines-a", "det_a.csv", "--lines-b", "det_b.csv", "--homography", "h.txt"]
    commands = [
        ["gen-fields", "--lines", "a.csv", "--width", s, "--height", s, "--r", repr(R_BAND), "--out", "fa.dlsf"],
        ["gen-fields", "--lines", "b.csv", "--width", s, "--height", s, "--r", repr(R_BAND), "--out", "fb.dlsf"],
        ["detect", "--fields", "fa.dlsf", "--out", "det_a.csv"],
        ["detect", "--fields", "fb.dlsf", "--out", "det_b.csv"],
        ["eval", "rep", *pair],
        ["eval", "le", *pair],
        # Detections on rendered fields are sub-pixel: a 1 px gate keeps
        # chance matches out of the refit.
        ["eval", "hest", *pair, "--width", s, "--height", s, "--inlier-threshold", "1", "--seed", str(seed)],
    ]
    return Scene(directory, commands, ["fa.dlsf", "fb.dlsf", "det_a.csv", "det_b.csv"])


def warmup_scene(directory: Path) -> Scene:
    """A 64x64 scene that runs every subcommand once, for set-up warm-up."""
    rng = np.random.default_rng(0)
    lines = np.array(
        [
            [8.0, 10.0, 30.0, 14.0],
            [8.0, 30.0, 30.0, 31.0],
            [8.0, 50.0, 30.0, 47.0],
            [10.0, 20.0, 12.0, 44.0],
            [40.0, 8.0, 56.0, 24.0],
            [40.0, 56.0, 56.0, 40.0],
            [48.0, 28.0, 52.0, 36.0],
        ]
    )
    directory.mkdir(parents=True, exist_ok=True)
    write_segments(directory / "lines.csv", lines)
    write_homography(directory / "identity.txt", IDENTITY)
    write_pgm(directory / "image.pgm", _bar_image(lines[:2], 64, rng))
    (directory / "gt_vps.json").write_text('{"vps": [[1.0, 0.0, 0.0]], "assignment": [0, 0, 0, null, null, null, null]}\n')
    pair = ["--lines-a", "lines.csv", "--lines-b", "det.csv", "--homography", "identity.txt"]
    commands = [
        ["gen-fields", "--lines", "lines.csv", "--width", "64", "--height", "64", "--out", "fields.dlsf"],
        ["detect", "--fields", "fields.dlsf", "--out", "det.csv"],
        ["refine", "--lines", "lines.csv", "--fields", "fields.dlsf", "--vp", "--out", "refined.csv"],
        ["vps", "--lines", "lines.csv", "--width", "64", "--height", "64", "--out", "vps.json"],
        ["eval", "vp", "--vps", "gt_vps.json", "--gt-vps", "gt_vps.json", "--fx", "64", "--fy", "64", "--cx", "32", "--cy", "32"],
        ["eval", "rep", *pair],
        ["eval", "le", *pair],
        ["eval", "hest", *pair, "--width", "64", "--height", "64"],
        ["gen-gt", "--image", "image.pgm", "--num-homographies", "2", "--out", "pgt.dlsf"],
    ]
    return Scene(directory, commands, ["fields.dlsf", "det.csv", "refined.csv", "vps.json", "pgt.dlsf"])


GENERATORS = {
    "vp_refine": vp_refine_scene,
    "pseudo_gt": pseudo_gt_scene,
    "two_view": two_view_scene,
}


def make_scenes(workload: str, seed: int, count: int, root: Path) -> list[Scene]:
    """``count`` scenes of one workload under ``root``, all drawn from ``seed``.

    Each scene also gets its own ``--seed`` for the program's random draws
    (warps, RANSAC). With one shared value every scene of a pool saw the
    same warps, and the pool's accuracy moved with the seed as one sample.
    """
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    made = []
    for i in range(count):
        scene_seed = int(rng.integers(2**31))
        made.append(GENERATORS[workload](rng, root / f"scene{i:02d}", scene_seed))
    return made
