"""No rsfq function that takes a ring takes a cap of its own.

A PolyRing holds the one enumeration cap, and every scan over its
polynomials charges what it enumerates to ring.check_cap.  A cap argument
beside a ring would be a second source that can silently disagree with
the ring's.  This inspects every function and method of the rsfq modules;
a callable takes a ring when it has a parameter named ring or annotated
PolyRing, and every PolyRing method but the constructor, which sets the
cap, takes one as self.
"""

import importlib
import inspect
import pkgutil

import rsfq
from rsfq.poly import PolyRing


def callables():
    """(qualified name, callable) of every function and method defined in
    an rsfq module but __main__, which runs the CLI when imported."""
    for info in pkgutil.iter_modules(rsfq.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"rsfq.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def takes_ring(qualname: str, params) -> bool:
    if any(p.name == "ring" or p.annotation in (PolyRing, "PolyRing")
           for p in params.values()):
        return True
    owner, _, attr = qualname.rpartition(".")
    return owner == "rsfq.poly.PolyRing" and attr != "__init__"


def test_the_scan_sees_functions_and_methods():
    names = dict(callables())
    assert "rsfq.poly.PolyRing.check_cap" in names
    assert "rsfq.vaughan.VaughanContext.__init__" in names
    assert "rsfq.charsum.scan_gauss_bound" in names


def test_no_function_with_a_ring_takes_a_cap():
    both = [name for name, fn in callables()
            if "cap" in (params := inspect.signature(fn).parameters)
            and takes_ring(name, params)]
    assert both == []
