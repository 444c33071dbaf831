"""Line segment extraction from gradient-like inputs.

The extractor follows the classic a-contrario recipe: pixels are seeded in
decreasing magnitude order (bucket pseudo-sort), regions grow through
8-connected neighbors whose angle stays within a circular tolerance of the
running region direction, a magnitude-weighted rectangle is fitted to each
region, low-density rectangles trigger tolerance and radius reductions,
and a candidate survives only when the number of angle-aligned pixels
inside its rectangle is too large to happen by accident (binomial tail
test against (width * height)^(5/2) hypothetical tests).

Region growing is pure Python, so its per-pixel work is kept small. It
runs on the grid padded by one always-taken pixel, where the 8 neighbours
of any pixel are fixed flat offsets scanned in row-major order. A seed is
"lonely" when no usable neighbour lies within the tolerance of its own
angle; such a seed can only grow to itself, which no region size accepts,
so its turn just marks it taken. A lonely pixel is not taken in advance:
a region whose running angle has drifted may still absorb it. Neither
shortcut changes a bit of the output.

Each padded per-pixel grid (line direction, cos and sin of k times it) is
allocated once, as the array("d") buffer that region growing indexes per
pixel. numpy fills it and reads it (lonely seeds, local tolerance, NFA
count) through views of that same memory, and the direction is computed
at the usable pixels only. Besides those three grids, a call holds arrays
over the usable pixels (seed order) and fixed-size chunks of the
lonely-seed test and the NFA count.

Two input flavors are supported: classical image gradients, and surrogate
magnitude/angle grids derived from attraction fields. Both feed the same
extractor; only the grid placement differs (a 2x2 gradient estimate sits
at the block center, a field value at the pixel center) and so does the
magnitude threshold. Field mode seeds at 3.0 on the surrogate magnitude;
image mode at LSD's rho = q / sin(tau) with q = 2, the gradient error that
8-bit quantization can cause, so pixels whose angle that error could swing
by more than the tolerance neither seed nor join a region.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as np

from .fields import (
    FieldPair,
    ScalarField,
    _bilinear_many,
    orient_angles,
    surrogate_gradient,
)
from .geometry import (
    TWO_PI,
    LineSegment,
    _angles,
    _circular,
    _clip_segments,
    _rows,
    _segments,
    _signed_circular,
    circular_distance,
)

__all__ = [
    "image_gradient",
    "lsd_extract",
    "filter_lines",
    "detect",
]

_NFA_ELEMENTS = 1 << 13  # candidate pixels the NFA count tests at once
_LONELY_ELEMENTS = 1 << 13  # usable pixels the lonely-seed test takes at once
# LSD's fixed seed-order bins, rectangle density, log10 epsilon and angle
# tolerance tau, 22.5 deg (von Gioi et al., IPOL 2012).
_N_BINS = 1024
_DENSITY = 0.7
_LOG_EPS = 0.0
_TAU = math.pi / 8.0
# LSD's bound on the gradient error of 8-bit quantization (ibid.), and
# image mode's threshold rho = q / sin(tau), 5.23.
_LSD_Q = 2.0
_RHO = _LSD_Q / math.sin(_TAU)
# filter_lines samples each candidate at _FILTER_SAMPLES points; a sample
# agrees when the DF stays below _ETA_DF and the AF within _ETA_THETA
# (20 deg) of the line, and a line is kept when _MIN_INLIER_FRAC agree.
_FILTER_SAMPLES = 50
_ETA_DF = 1.5
_ETA_THETA = math.pi / 9.0
_MIN_INLIER_FRAC = 0.5


def image_gradient(image: np.ndarray) -> tuple[ScalarField, ScalarField]:
    """2x2 finite-difference gradient of a grayscale image.

    gx(x, y) averages the horizontal differences of the 2x2 block whose
    top-left pixel is (x, y); gy the vertical ones. The returned angle is
    atan2(gy, gx). The last row and column have no full block and get
    magnitude zero. Pixel values so large that a magnitude overflows raise
    ValueError.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.shape[0] < 2 or img.shape[1] < 2:
        raise ValueError("image must be a 2-D array of at least 2x2 pixels")
    if not np.all(np.isfinite(img)):
        raise ValueError("image must be finite")
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    a = img[:-1, :-1]
    b = img[:-1, 1:]
    c = img[1:, :-1]
    d = img[1:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        gx[:-1, :-1] = ((b + d) - (a + c)) * 0.5
        gy[:-1, :-1] = ((c + d) - (a + b)) * 0.5
        mag = np.sqrt(gx * gx + gy * gy)
        ang = np.arctan2(gy, gx)
    if not np.all(np.isfinite(mag)):
        raise ValueError("image gradient overflows: pixel values too large")
    return ScalarField(mag), ScalarField(ang)


_LOG_GAMMA = np.array([math.inf])  # log Gamma at 0, 1, 2, ...; grown on demand


def _log_gamma_upto(n: int) -> np.ndarray:
    """The process's table of log Gamma at the integers 0..m for some
    m >= n (entry 0 is the pole, +inf), grown geometrically. Entries are
    math.lgamma's, within 1e-15 relative of scipy.special.gammaln."""
    global _LOG_GAMMA
    m = len(_LOG_GAMMA)
    if n >= m:
        grown = [math.lgamma(x) for x in range(m, max(n + 1, 2 * m))]
        _LOG_GAMMA = np.concatenate([_LOG_GAMMA, grown])
    return _LOG_GAMMA


def _log10_binomial_tail(n: int, k: int, p: float) -> float:
    """log10 of P[Bin(n, p) >= k]."""
    if k <= 0:
        return 0.0
    if k > n:
        return -math.inf
    lg = _log_gamma_upto(n + 1)
    j = np.arange(k, n + 1)
    log_terms = (
        lg[n + 1]
        - lg[k + 1 : n + 2]  # log Gamma(j + 1)
        - lg[n - k + 1 : 0 : -1]  # log Gamma(n - j + 1)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
    )
    a_max = log_terms.max()
    return float(a_max + np.log(np.sum(np.exp(log_terms - a_max)))) / math.log(10.0)


def _fit_rect(
    xs: np.ndarray,
    ys: np.ndarray,
    weights: np.ndarray,
    reg_angle: float,
    period: float,
) -> tuple[float, ...] | None:
    """Magnitude-weighted rectangle of a pixel region: the row
    (cx, cy, theta, ux, uy, lmin, lmax, wmin, wmax) of its center, axis
    angle and direction, and the extents of the pixels along and across
    that axis; None when the extent along it is below 1e-12."""
    # Row sums of a contiguous stack add up like the 1-D sums of each row.
    total, sum_x, sum_y = np.array([weights, weights * xs, weights * ys]).sum(axis=1)
    cx = float(sum_x / total)
    cy = float(sum_y / total)
    dx = xs - cx
    dy = ys - cy
    wdx = weights * dx
    wdy = weights * dy
    # weights * dy * dy etc., multiplied left to right.
    sum_yy, sum_xx, sum_xy = np.array([wdy * dy, wdx * dx, wdx * dy]).sum(axis=1)
    ixx = float(sum_yy / total)
    iyy = float(sum_xx / total)
    ixy = -float(sum_xy / total)
    lam = 0.5 * ((ixx + iyy) - math.sqrt((ixx - iyy) ** 2 + 4.0 * ixy * ixy))
    if abs(ixx) > abs(iyy):
        theta = math.atan2(lam - ixx, ixy)
    else:
        theta = math.atan2(ixy, lam - iyy)
    # The principal axis has no preferred sign; align it with the region
    # direction when orientation matters.
    if period > 1.5 * math.pi and circular_distance(theta, reg_angle, TWO_PI) > 0.5 * math.pi:
        theta += math.pi
    ux = math.cos(theta)
    uy = math.sin(theta)
    proj = np.array([dx * ux + dy * uy, dy * ux - dx * uy])  # q - p is q + (-p)
    (lmin, wmin), (lmax, wmax) = proj.min(axis=1).tolist(), proj.max(axis=1).tolist()
    if lmax - lmin < 1e-12:
        return None
    return cx, cy, theta, ux, uy, lmin, lmax, wmin, wmax


def _width(rect: tuple[float, ...]) -> float:
    """Width of a _fit_rect row, at least one pixel."""
    return max(rect[8] - rect[7], 1.0)


def _dense(n: int, rect: tuple[float, ...]) -> bool:
    """Whether n region pixels fill at least _DENSITY of the rectangle."""
    return n / ((rect[6] - rect[5]) * _width(rect)) >= _DENSITY


def _count_in_rects(
    rects: np.ndarray,
    ldir: np.ndarray,
    usable: np.ndarray,
    tol: float,
    period: float,
    offset: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Pixels whose center lies in each rectangle, and the aligned subset.

    ``rects`` holds one _fit_rect row per rectangle, shape (n, 9), and
    ``ldir`` and ``usable`` the (h, w) direction and usability grids, which
    may be views into padded grids. Every rectangle is tested over the grid
    pixels of its corners' bounding box. The boxes of all rectangles are
    laid end to end and scanned in chunks of at most _NFA_ELEMENTS pixels,
    each pixel with the arithmetic of its own rectangle, so the counts do
    not depend on the chunking.
    """
    h, w = ldir.shape
    cx, cy, theta, ux, uy, lmin, lmax, wmin, wmax = rects.T
    corner_l = np.stack([lmin, lmin, lmax, lmax], axis=1)
    corner_w = np.stack([wmin, wmax, wmin, wmax], axis=1)
    cxs = cx[:, None] + corner_l * ux[:, None] - corner_w * uy[:, None]
    cys = cy[:, None] + corner_l * uy[:, None] + corner_w * ux[:, None]
    x_lo = np.maximum(np.floor(cxs.min(axis=1) - offset), 0).astype(np.intp)
    x_hi = np.minimum(np.ceil(cxs.max(axis=1) - offset), w - 1).astype(np.intp)
    y_lo = np.maximum(np.floor(cys.min(axis=1) - offset), 0).astype(np.intp)
    y_hi = np.minimum(np.ceil(cys.max(axis=1) - offset), h - 1).astype(np.intp)
    box_w = np.maximum(x_hi - x_lo + 1, 0)
    sizes = box_w * np.maximum(y_hi - y_lo + 1, 0)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    n_in = np.zeros(len(rects), dtype=np.intp)
    k_in = np.zeros(len(rects), dtype=np.intp)
    total = int(sizes.sum())
    for start in range(0, total, _NFA_ELEMENTS):
        pos = np.arange(start, min(start + _NFA_ELEMENTS, total))
        rid = np.searchsorted(ends, pos, side="right")  # the box holding pos
        iy, ix = np.divmod(pos - starts[rid], box_w[rid])
        ix += x_lo[rid]
        iy += y_lo[rid]
        # _fit_rect's operations in its order: a region's extreme pixels
        # project exactly onto the rectangle's edges and count as inside.
        gx = ix + offset - cx[rid]
        gy = iy + offset - cy[rid]
        pl = gx * ux[rid] + gy * uy[rid]
        pw = -gx * uy[rid] + gy * ux[rid]
        inside = (pl >= lmin[rid]) & (pl <= lmax[rid]) & (pw >= wmin[rid]) & (pw <= wmax[rid])
        rid = rid[inside]
        n_in += np.bincount(rid, minlength=len(rects))
        iy, ix = iy[inside], ix[inside]
        circ = _circular(ldir[iy, ix] - theta[rid], period)
        aligned = (circ <= tol) & usable[iy, ix]
        k_in += np.bincount(rid[aligned], minlength=len(rects))
    return n_in, k_in


def _offsets(wp: int) -> tuple[int, ...]:
    """Flat offsets of the 8 neighbours on a grid of width ``wp``, row-major."""
    return (-wp - 1, -wp, -wp + 1, -1, 1, wp - 1, wp, wp + 1)


def _padded(shape: tuple[int, int], usable_idx: np.ndarray):
    """The usable pixels (flat indices, row-major) of an (h, w) grid on the
    grid padded by one unusable pixel.

    Returns the padded width, the padded flat index of every usable pixel,
    and the padded flat usability grid. Every pixel of the image then has
    its 8 neighbours at ``_offsets(wp)``, none of them usable outside the
    image.
    """
    h, w = shape
    wp = w + 2
    pidx = usable_idx + 2 * (usable_idx // w) + wp + 1
    pusable = np.zeros((h + 2) * wp, dtype=bool)
    pusable[pidx] = True
    return wp, pidx, pusable


def _lonely(
    wp: int,
    pidx: np.ndarray,
    pldir: np.ndarray,
    pusable: np.ndarray,
    tol: float,
    period: float,
) -> np.ndarray:
    """Which of the padded pixels ``pidx`` have no usable 8-neighbour
    within ``tol`` of their own angle.

    The test is the one region growing applies to a seed's neighbours, so
    such a seed grows to a region of one pixel whatever is already taken.
    """
    half = 0.5 * period
    alone = np.ones(len(pidx), dtype=bool)
    offsets = _offsets(wp)
    for lo in range(0, len(pidx), _LONELY_ELEMENTS):
        p = pidx[lo : lo + _LONELY_ELEMENTS]
        own = pldir[p]
        part = alone[lo : lo + _LONELY_ELEMENTS]
        for off in offsets:
            q = p + off
            d = pldir[q] - own
            # Directions lie in [0, period], so grow's (x % period) is x or
            # x + period, the same float: d + 1.0 * period below 0, d + 0.0
            # above.
            d += period * (d < 0.0)
            # period - d is below d exactly when d > half, as grow tests.
            np.minimum(d, period - d, out=d)
            part &= ~(pusable[q] & (d <= tol))
    return alone


def lsd_extract(
    magnitude: ScalarField,
    angle: ScalarField,
    *,
    threshold: float = 3.0,
    period: float = TWO_PI,
    grid_offset: float = 0.5,
) -> list[LineSegment]:
    """Extract line segments from a magnitude/angle grid.

    Pixels whose magnitude is below ``threshold`` neither seed nor join a
    region. ``angle`` uses the gradient convention: the local line
    direction is the given angle plus pi/2. Comparisons are circular with
    period ``period`` (2*pi keeps orientation, pi ignores it), which must
    exceed twice the tolerance tau. ``grid_offset`` places grid entry
    (ix, iy) at image point (ix + offset, iy + offset); emitted segments
    are in image coordinates. Output is deterministic: no randomness is
    involved.
    """
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and non-negative, got {threshold!r}")
    if not (math.isfinite(period) and period > 2.0 * _TAU):
        raise ValueError(f"period must be finite and above 2 tau (pi/4), got {period!r}")
    if magnitude.data.shape != angle.data.shape:
        raise ValueError("magnitude and angle grids must share a shape")
    h, w = magnitude.data.shape
    tol = _TAU
    half = 0.5 * period
    # Circular angle statistics need unit vectors of k*angle where k wraps
    # the native period onto the full circle.
    k = TWO_PI / period

    mag = magnitude.data
    usable_idx = np.flatnonzero(mag >= threshold)
    max_mag = float(mag.max(initial=0.0))
    if max_mag <= 0.0 or len(usable_idx) == 0:
        return []

    p_align = 2.0 * tol / period
    log_nt = 2.5 * math.log10(float(w) * float(h))
    min_region_size = max(int(-log_nt / math.log10(p_align)), 2)

    flat_mag = mag.ravel()
    bins = np.minimum((flat_mag[usable_idx] / max_mag * _N_BINS).astype(int), _N_BINS - 1)
    # Strongest bin first, ties in pixel order; numpy radix-sorts 16-bit keys.
    order = np.argsort((_N_BINS - 1 - bins).astype(np.int16), kind="stable")

    # Region growing runs on a grid padded by one always-taken pixel, so the
    # 8 neighbours of any pixel p are p + offsets, in row-major order.
    wp, pidx, pusable = _padded((h, w), usable_idx)
    n_pad = len(pusable)
    offsets = _offsets(wp)

    # Each padded grid (line direction, cos and sin of k times it; 0.0 off
    # the usable pixels) exists once, as the array("d") that region growing
    # reads per pixel as Python floats; a list would need a float object
    # per pixel. numpy fills and reads the same memory through views.
    ldir, cos_k, sin_k = (array("d", [0.0]) * n_pad for _ in range(3))
    pldir, pcos, psin = (np.frombuffer(grid) for grid in (ldir, cos_k, sin_k))
    pldir[pidx] = np.mod(angle.data.ravel()[usable_idx] + 0.5 * math.pi, period)
    k_dir = k * pldir[pidx]
    pcos[pidx] = np.cos(k_dir)
    psin[pidx] = np.sin(k_dir)
    # status: 0 free, 1 taken (in a region, below the threshold or padding)
    status = bytearray(b"\x01") * n_pad
    np.frombuffer(status, dtype=np.uint8)[pidx] = 0
    # Seeds in turn order; a lonely seed p is stored as ~p, which is < 0.
    seeds = pidx[order]
    seeds = np.where(_lonely(wp, pidx, pldir, pusable, tol, period)[order], ~seeds, seeds)

    def grow(seed: int, grow_tol: float) -> tuple[list[int], float]:
        region = [seed]
        status[seed] = 1
        sx = cos_k[seed]
        sy = sin_k[seed]
        ang = ldir[seed]
        for p in region:  # also visits the pixels appended below
            for off in offsets:
                q = p + off
                if status[q]:
                    continue
                d = (ldir[q] - ang) % period
                if d > half:
                    d = period - d
                if d <= grow_tol:
                    status[q] = 1
                    region.append(q)
                    sx += cos_k[q]
                    sy += sin_k[q]
                    ang = math.atan2(sy, sx) / k
        return region, ang

    def release(pixels: Sequence[int]) -> None:
        for q in pixels:
            status[q] = 0

    def center(p: int) -> tuple[float, float]:
        py, px = divmod(p, wp)
        return px - 1 + grid_offset, py - 1 + grid_offset

    def fit(region: list[int], reg_angle: float):
        iy, ix = np.divmod(np.asarray(region), wp)
        iy -= 1
        ix -= 1
        xs = ix.astype(float) + grid_offset
        ys = iy.astype(float) + grid_offset
        weights = flat_mag[iy * w + ix]
        return _fit_rect(xs, ys, weights, reg_angle, period), xs, ys, weights

    def local_tolerance(region, xs, ys, seed, width) -> float:
        sxc, syc = center(seed)
        near = (xs - sxc) ** 2 + (ys - syc) ** 2 <= width * width
        if not near.any():
            return tol
        # np.mod is Python's float %, element by element.
        d = _signed_circular(pldir[np.asarray(region)[near]] - ldir[seed], period)
        two_std = 2.0 * math.sqrt(float(np.mean(d * d)))
        return max(min(two_std, 0.5 * period - 1e-9), 1e-6)

    rects: list[tuple[float, ...]] = []

    # A memoryview yields each seed as a Python int as the loop reaches it;
    # a list would hold one int object per usable pixel for the whole loop.
    for seed in memoryview(seeds):
        if seed < 0:
            # grow() would stop at the lonely seed, smaller than
            # min_region_size; taken or not, it is taken after its turn.
            status[~seed] = 1
            continue
        if status[seed]:
            continue
        region, reg_angle = grow(seed, tol)
        if len(region) < min_region_size:
            continue
        rect, xs, ys, weights = fit(region, reg_angle)
        if rect is None:
            continue

        if not _dense(len(region), rect):
            # First retry: re-grow with a tolerance taken from the local
            # angle spread around the seed.
            tol2 = local_tolerance(region, xs, ys, seed, _width(rect))
            release(region)
            region, reg_angle = grow(seed, tol2)
            if len(region) < min_region_size:
                continue
            rect, xs, ys, weights = fit(region, reg_angle)
            if rect is None:
                continue
            if not _dense(len(region), rect):
                # Then shrink the region around the seed, 75% radius
                # steps, until a fit is dense enough.
                sxc, syc = center(seed)
                d2 = (xs - sxc) ** 2 + (ys - syc) ** 2
                radius = math.sqrt(float(d2.max()))
                arr_region = np.asarray(region)
                cols = np.stack([xs, ys, weights, d2])
                rect = None
                for _ in range(5):
                    radius *= 0.75
                    keep = cols[3] <= radius * radius
                    release(arr_region[~keep].tolist())
                    arr_region = arr_region[keep]
                    cols = cols[:, keep]
                    if len(arr_region) < min_region_size:
                        break
                    fitted = _fit_rect(cols[0], cols[1], cols[2], reg_angle, period)
                    if fitted is not None and _dense(len(arr_region), fitted):
                        rect = fitted
                        break
                if rect is None:
                    continue
        rects.append(rect)

    # The NFA test reads only the static grids and takes no pixel, so all
    # rectangles are counted after growing, on the image part of the padded
    # grids. Alignment counting ignores sub-threshold pixels.
    rows = np.array(rects).reshape(-1, 9)
    image_dir, image_usable = (g.reshape(h + 2, wp)[1:-1, 1:-1] for g in (pldir, pusable))
    counts = _count_in_rects(rows, image_dir, image_usable, tol, period, grid_offset)
    kept = [
        n_in > 0 and not log_nt + _log10_binomial_tail(n_in, k_in, p_align) > _LOG_EPS
        for n_in, k_in in zip(*(c.tolist() for c in counts))
    ]
    cx, cy, _, ux, uy, lmin, lmax = rows[np.array(kept, dtype=bool), :7].T
    ends = np.stack([cx + lmin * ux, cy + lmin * uy, cx + lmax * ux, cy + lmax * uy], axis=1)
    return _segments(ends)


def filter_lines(lines: Sequence[LineSegment], fp: FieldPair) -> list[LineSegment]:
    """Keep lines that a field pair supports.

    Each candidate is sampled at _FILTER_SAMPLES equally spaced points
    (endpoints included, after clipping to the sampleable area); a sample
    agrees when the interpolated distance stays below _ETA_DF and the
    interpolated angle stays within _ETA_THETA of the line orientation,
    and the line is kept when at least _MIN_INLIER_FRAC of its samples
    agree. Deterministic and idempotent.
    """
    h, head_w = fp.height, fp.width
    xmin, ymin = 0.5, 0.5
    xmax, ymax = head_w - 0.5, h - 0.5
    ts = np.linspace(0.0, 1.0, _FILTER_SAMPLES)
    ends = _rows(lines)
    rows, kept = _clip_segments(ends, xmin, ymin, xmax, ymax)
    inside = np.flatnonzero(kept)
    if len(inside) == 0:
        return []
    # All survivors are sampled in one (lines, _FILTER_SAMPLES) pass.
    x1, y1, x2, y2 = (col[:, None] for col in rows[inside].T)
    angle = _angles(ends[inside])[:, None]
    xs = x1 + ts * (x2 - x1)
    ys = y1 + ts * (y2 - y1)
    df_s = _bilinear_many(fp.df.data, xs - 0.5, ys - 0.5, circular=False)
    af_s = _bilinear_many(fp.af.data, xs - 0.5, ys - 0.5, circular=True)
    circ = _circular(np.abs(af_s - angle), math.pi)
    agrees = (df_s < _ETA_DF) & (circ < _ETA_THETA)
    keep = agrees.mean(axis=1) >= _MIN_INLIER_FRAC
    return [lines[i] for i in inside[keep].tolist()]


def detect(
    source: FieldPair | np.ndarray,
    *,
    image: np.ndarray | None = None,
    apply_filter: bool = True,
) -> list[LineSegment]:
    """Detect line segments in an image or an attraction field pair.

    Field mode (``source`` is a FieldPair) converts the fields into a
    surrogate magnitude/angle grid and seeds at magnitude 3.0; when a
    companion ``image`` of the same size is given, its gradient directions
    orient the angles and the full 2*pi period applies, otherwise matching
    falls back to period pi. Detections are then checked against the
    fields unless ``apply_filter=False``. Image mode runs the classical
    gradient path with LSD's own gradient threshold, rho = 2 / sin(tau),
    5.23 at tau = 22.5 deg, and period 2*pi; it takes no companion image.
    """
    if isinstance(source, FieldPair):
        mag, theta = surrogate_gradient(source)
        period = math.pi
        if image is not None:
            img = np.asarray(image, dtype=float)
            if img.shape != mag.data.shape:
                raise ValueError("companion image must match the field size")
            _, grad_angle = image_gradient(img)
            theta = orient_angles(theta, grad_angle)
            period = TWO_PI
        lines = lsd_extract(mag, theta, threshold=3.0, period=period, grid_offset=0.5)
        if apply_filter:
            lines = filter_lines(lines, source)
        return lines

    if image is not None:
        raise ValueError("image mode takes no companion image")
    img = np.asarray(source, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be a 2-D grayscale array")
    mag, ang = image_gradient(img)
    return lsd_extract(mag, ang, threshold=_RHO, period=TWO_PI, grid_offset=1.0)
