"""One gate for every bulk scan over the q^n monics of one degree.

sieve.SIEVE_CAP bounds q^n for the sieve, the convolution kernel and the
sigma aggregates alike, and sieve.check_sieve_cap is the one place that
compares q^n with it.  A module that bound the constant itself could
compare against a copy that a change to the cap, or a test that lowers
it, never reaches.
"""

import importlib
import inspect
import pkgutil

import pytest

import rsfq
from rsfq import sieve
from rsfq.errors import EnumerationCapError


def modules():
    """The rsfq package and every module in it but __main__, which runs
    the CLI when imported."""
    yield rsfq
    for info in pkgutil.iter_modules(rsfq.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"rsfq.{info.name}")


def test_no_module_but_sieve_binds_the_sieve_cap():
    binds = [module.__name__ for module in modules()
             if "SIEVE_CAP" in vars(module)]
    assert binds == ["rsfq.sieve"]


def test_only_the_gate_and_the_factor_base_read_the_sieve_cap():
    """check_sieve_cap compares q^n with the cap; _factor_base reads it for
    the top degree of its join maps, and no other sieve function reads
    it."""
    readers = sorted(name for name, obj in vars(sieve).items()
                     if inspect.isfunction(fn := inspect.unwrap(obj))
                     and fn.__module__ == "rsfq.sieve"
                     and "SIEVE_CAP" in fn.__code__.co_names)
    assert readers == ["_factor_base", "check_sieve_cap"]


def test_the_gate_returns_q_to_the_n_or_refuses(monkeypatch):
    monkeypatch.setattr(sieve, "SIEVE_CAP", 3**6)
    assert sieve.check_sieve_cap(3, 6) == 729
    with pytest.raises(EnumerationCapError) as err:
        sieve.check_sieve_cap(3, 7)
    assert str(err.value) == "q^n = 2187 exceeds the sieve cap 729"
