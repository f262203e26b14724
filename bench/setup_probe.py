"""Set-up probe, run in a fresh process: import rsfq and build the rings.

    python3 bench/setup_probe.py <src dir> <p,e> [<p,e> ...]

The parent times this process from spawn to exit, so the figure covers
interpreter start, ``import rsfq`` (numpy included) and FieldCtx/PolyRing
construction, which for e > 1 includes the modulus search.
"""

import sys

sys.path.insert(0, sys.argv[1])

from rsfq import FieldCtx, PolyRing  # noqa: E402

for spec in sys.argv[2:]:
    p, e = (int(part) for part in spec.split(","))
    PolyRing(FieldCtx(p, e))
