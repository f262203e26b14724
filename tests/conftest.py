import os

import pytest
from hypothesis import settings

import rsfq.dist
from rsfq import FieldCtx, PolyRing

# Property tests draw the same examples on every run and never fail on a
# slow example, so the suite stays deterministic on a loaded host.
settings.register_profile(
    "rsfq", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("rsfq")


@pytest.fixture(scope="session", autouse=True)
def package_path_for_subprocesses():
    """Let `python -m rsfq` subprocesses import the package this session
    imports, also when it is found through pytest's `pythonpath` setting
    rather than an installed copy or PYTHONPATH."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(rsfq.__file__)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (root, os.environ.get("PYTHONPATH")))))
        yield


@pytest.fixture(scope="session")
def f3():
    return PolyRing(FieldCtx(3))


@pytest.fixture(scope="session")
def f5():
    return PolyRing(FieldCtx(5))


@pytest.fixture(scope="session")
def f9():
    return PolyRing(FieldCtx(3, 2))


@pytest.fixture
def dropped_irreducible(monkeypatch):
    """Make distribution's sieve mask lose its first irreducible."""
    real_mask = rsfq.dist.composite_mask

    def drop_one(ring, n):
        mask = real_mask(ring, n)
        mask[mask.argmin()] = True
        return mask

    monkeypatch.setattr(rsfq.dist, "composite_mask", drop_one)
