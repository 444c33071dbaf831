"""Line attraction fields, detection, refinement, and evaluation.

The pipeline: render or aggregate distance/angle fields for line segments
(fields, pseudo_gt), extract segments from them or from raw images with an
a-contrario region-growing detector (detector), fit vanishing points (vp),
jointly refine lines and vanishing points against the fields (refine), and
score detections (evaluate). File formats and the CLI live in io and cli.

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import detector, evaluate, fields, geometry, io, pseudo_gt, refine, vp
from .detector import *  # noqa: F401
from .evaluate import *  # noqa: F401
from .fields import *  # noqa: F401
from .geometry import *  # noqa: F401
from .io import *  # noqa: F401
from .pseudo_gt import *  # noqa: F401
from .refine import *  # noqa: F401
from .vp import *  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    name
    for module in (geometry, fields, pseudo_gt, detector, vp, refine, evaluate, io)
    for name in module.__all__
]
