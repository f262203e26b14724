"""No module of rsfq decides anything with a float tolerance.

Every bound the verifier checks has an exact integer form, so a tolerance
is a defect to remove, not a setting.  This scans the code tokens of
src/rsfq/*.py (prose in docstrings and comments, such as w^(2e-2), is not
code) for isclose/allclose, a tol=, rtol= or atol= keyword and a float
literal with a negative exponent such as 1e-6.
"""

import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsfq"


def tolerances(source: str) -> list:
    """(line, token) of every float-tolerance pattern in the code."""
    found = []
    lines = io.StringIO(source).readline
    tokens = [tok for tok in tokenize.generate_tokens(lines)
              if tok.type not in (tokenize.NL, tokenize.NEWLINE)]
    for tok, nxt in zip(tokens, tokens[1:] + [None]):
        if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
            found.append((tok.start[0], tok.string))
        elif tok.type == tokenize.NAME and tok.string in ("isclose", "allclose"):
            found.append((tok.start[0], tok.string))
        elif (tok.type == tokenize.NAME and tok.string.endswith("tol")
              and nxt is not None and nxt.string == "="):
            found.append((tok.start[0], tok.string + "="))
    return found


def test_the_scan_finds_each_pattern():
    source = ("def f(x, b, tol=1e-6):\n"
              "    '''w^(2e-2) in prose is fine'''  # so is 1e-9 here\n"
              "    return abs(x) <= b + 5E-7 or math.isclose(x, b)"
              " or np.allclose(x, b, atol=0)\n")
    assert [tok for _, tok in tolerances(source)] == [
        "tol=", "1e-6", "5E-7", "isclose", "allclose", "atol="]


def test_no_float_tolerance_under_src():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}: {tok}" for path in paths
             for line, tok in tolerances(path.read_text())]
    assert found == []
