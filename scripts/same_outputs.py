#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees.

Runs every command of COMMANDS as ``python -m rsfq ...`` once with
PYTHONPATH set to each tree's source directory (the directory that holds
the ``rsfq`` package) and reports any difference in stdout, stderr or exit
code.  ``"elapsed_seconds": <number>`` is blanked first, with the pattern
of tests/test_acceptance.py's criterion 9, because it is the one field of
a verify report that may change from run to run.  RSFQ_JOBS is removed
from the environment, so only an explicit --jobs starts workers.

Usage:
    python scripts/same_outputs.py SRC_A SRC_B

Exit status 0 when every output agrees, 1 otherwise.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys

ELAPSED = re.compile(r'"elapsed_seconds": [0-9.eE+-]+')

# The CLI runs whose outputs a change that claims "same outputs" keeps.
COMMANDS = [
    *(["--p", str(p), "--e", str(e), "verify", "all"]
      for p, e in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3))),
    ["--p", "3", "--e", "2", "--jobs", "2", "verify", "all"],
    ["--p", "5", "--e", "2", "--n-max", "3", "verify", "all"],
    ["--p", "3", "--e", "3", "--n-max", "3", "verify", "all"],
    # A per-field table keyed without the basis would hand this run the
    # default modulus's lags.
    ["--p", "3", "--e", "2", "--modulus", "2,1,1", "verify", "all"],
    # The cap refuses the 27 monic multipliers of degree 3 (exit 2).
    ["--cap", "20", "verify", "rank-qa"],
    ["verify", "vaughan", "--seed", "7", "--weights", "5"],
    ["verify", "tau"],
    ["verify", "tau-moment"],
    ["distribution", "-n", "9"],
    ["distribution", "-n", "1"],
    ["--p", "3", "--e", "2", "distribution", "-n", "5"],
    ["--p", "3", "--e", "2", "--format", "csv", "distribution", "-n", "4"],
    ["--p", "5", "--e", "2", "distribution", "-n", "4"],
    ["trend"],
    ["--p", "3", "--e", "2", "trend"],
    ["--p", "3", "--e", "2", "--modulus", "2,1,1", "distribution", "-n", "5"],
    ["--p", "3", "--e", "2", "--modulus", "2,1,1", "trend"],
    ["sigma", "sigma1", "-n", "6", "-u", "1", "-v", "2"],
    ["sigma", "sigma2", "-n", "6", "-u", "1", "-v", "2"],
    ["--p", "5", "sigma", "sigma1", "-n", "4", "-u", "1", "-v", "2"],
    ["--p", "3", "--e", "2", "sigma", "sigma2", "-n", "4", "-u", "1", "-v",
     "1", "--beta", "1+2"],
    # At p = 3 energy_abs_sq forms only A_0 and A_1: these reach its test
    # that A_d is the same for every d != 0.
    ["--p", "7", "sigma", "sigma1", "-n", "5", "-u", "1", "-v", "2"],
    ["--p", "7", "sigma", "sigma2", "-n", "5", "-u", "1", "-v", "2"],
    ["--p", "5", "--e", "2", "sigma", "sigma1", "-n", "3", "-u", "1", "-v",
     "1", "--beta", "1+1"],
    ["nf-count", "-n", "3"],
    ["nf-count", "-n", "3", "--poly", "1,0,2,0,0,0,1"],
    ["--p", "5", "nf-count", "-n", "2"],
    ["--format", "csv", "trend"],
    # The key-value CSV forms of both reversal reports.
    ["--format", "csv", "nf-count", "-n", "3"],
    ["--format", "csv", "nf-count", "-n", "2", "--poly", "1,0,1"],
    ["--format", "csv", "verify", "all"],
    ["--format", "csv", "sigma", "sigma1", "-n", "5", "-u", "1", "-v", "2"],
    ["--p", "31", "--e", "2", "distribution", "-n", "2"],
    # R over F_(p^e) reads no field table: at q = 729 (q^2 > sieve.BLOCK)
    # its Horner products are formed per piece, at q = 289 (above
    # field.TABLE_Q) read off the whole q x q grid, and at q = 27 and 25
    # across many sieve.blocks.
    ["--p", "3", "--e", "6", "distribution", "-n", "2"],
    ["--p", "17", "--e", "2", "distribution", "-n", "2"],
    ["--p", "3", "--e", "3", "distribution", "-n", "5"],
    ["--p", "5", "--e", "2", "distribution", "-n", "5"],
    ["--p", "3", "--e", "4", "verify", "star"],
    # Across sieve.BLOCK at its default: R over 3^12 monics in 3 blocks,
    # and product marking and joins in several blocks and slabs.
    ["sigma", "sigma1", "-n", "12", "-u", "2", "-v", "6"],
    ["distribution", "-n", "12"],
    # Above sieve.BLOCK sigma streams the product_indices blocks: sigma2's
    # trace matrices, and sigma1 over an extension field.
    ["sigma", "sigma2", "-n", "12", "-u", "3", "-v", "6"],
    ["--p", "3", "--e", "2", "sigma", "sigma1", "-n", "6", "-u", "1", "-v",
     "3"],
    # Above sieve.BLOCK the kernel streams: d_6 = 1_6 * 1_6 sums over
    # product_indices blocks.
    ["nf-count", "-n", "6"],
]


def run(src: str, args: list) -> tuple:
    """(exit code, stdout with elapsed_seconds blanked, stderr) of one CLI
    run on the tree whose source directory is src."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RSFQ_JOBS", None)
    out = subprocess.run([sys.executable, "-m", "rsfq", *args],
                         capture_output=True, text=True, env=env)
    return (out.returncode,
            ELAPSED.sub('"elapsed_seconds": _', out.stdout), out.stderr)


def differences(args: list, a: tuple, b: tuple) -> list:
    """One line per differing part of two run results, then a few lines of
    unified diff for stdout and stderr."""
    lines = []
    for name, x, y in zip(("exit code", "stdout", "stderr"), a, b):
        if x == y:
            continue
        lines.append(f"{' '.join(args)}: {name} differs")
        if name == "exit code":
            lines.append(f"  {x} != {y}")
        else:
            diff = difflib.unified_diff(x.splitlines(), y.splitlines(),
                                        "a", "b", lineterm="", n=1)
            lines += ["  " + line for line in list(diff)[:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", help="source directory of the first tree")
    parser.add_argument("src_b", help="source directory of the second tree")
    args = parser.parse_args(argv)
    found = []
    for command in COMMANDS:
        found += differences(command, run(args.src_a, command),
                             run(args.src_b, command))
    print("\n".join(found) if found
          else f"no difference in {len(COMMANDS)} commands")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
