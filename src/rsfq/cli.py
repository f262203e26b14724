"""Command-line front end.

Subcommands: distribution, trend, verify, sigma, nf-count.  Global flags
select the field (--p, --e, --modulus), output format, verify parallelism, caps
and seeds; RSFQ_JOBS overrides the default parallelism and a key=value
--config file supplies defaults, with explicit flags taking precedence.

Exit codes: 0 all checks passed, 1 a mathematical assertion failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .arith import count_reversal_solutions, scan_reversal_counts
from .charsum import CharSpec
from .dist import deviation_trend, distribution
from .errors import ConfigError, ExactIdentityError, RsfqError
from .poly import DEFAULT_CAP
from .vaughan import sigma1, sigma2, validate_cutoffs
from .verify import CHECK_CHOICES, CHECKS, RunConfig, verify_all

FORMATS = ("json", "csv")


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps unset occurrences from clobbering values parsed at the
    # other position; flags work both before and after the subcommand.
    sup = argparse.SUPPRESS
    parser.add_argument("--p", type=int, default=sup, help="odd prime (default 3)")
    parser.add_argument("--e", type=int, default=sup, help="extension degree")
    parser.add_argument("--modulus", default=sup,
                        help="comma-separated residues, constant term first")
    parser.add_argument("--format", choices=FORMATS, default=sup)
    parser.add_argument("--jobs", type=int, default=sup,
                        help="worker processes for verify (env RSFQ_JOBS); "
                             "at most the usable CPUs")
    parser.add_argument("--cap", type=int, default=sup,
                        help="enumeration cap (default 10^8)")
    parser.add_argument("--seed", type=int, default=sup,
                        help="seed for generated weights")
    parser.add_argument("--weights", type=int, default=sup,
                        help="number of random weights in the vaughan check")
    parser.add_argument("--n-max", type=int, default=sup,
                        help="clamp the verification degree ranges")
    parser.add_argument("--config", default=sup,
                        help="key=value file with defaults for the flags above")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsfq",
        description="Exhaustive desk-scale checks for Rudin-Shapiro sums "
                    "over F_q[t].",
    )
    _add_global_flags(parser)

    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("distribution", help="per-value counts over "
                                                 "monic irreducibles of degree n")
    p_dist.add_argument("-n", type=int, required=True)
    _add_global_flags(p_dist)

    p_trend = sub.add_parser("trend", help="relative deviations for n = 2..n-max")
    _add_global_flags(p_trend)

    p_verify = sub.add_parser("verify", help="run verification cells")
    p_verify.add_argument("selector", choices=CHECK_CHOICES)
    _add_global_flags(p_verify)

    p_sigma = sub.add_parser("sigma", help="type-I / type-II aggregates")
    p_sigma.add_argument("which", choices=("sigma1", "sigma2"))
    p_sigma.add_argument("-n", type=int, required=True)
    p_sigma.add_argument("-u", type=int, required=True)
    p_sigma.add_argument("-v", type=int, required=True)
    p_sigma.add_argument("--beta", default=None,
                         help="character parameter (default: the scalar 1)")
    _add_global_flags(p_sigma)

    p_nf = sub.add_parser("nf-count", help="reversal-equation solution counts")
    p_nf.add_argument("-n", type=int, required=True)
    p_nf.add_argument("--poly", default=None,
                      help="single f as c0,c1,...; omit to scan all of degree 2n")
    _add_global_flags(p_nf)

    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err.strerror}")
    out = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RsfqError(f"bad config line {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# Each random weight of the vaughan check is q^n complex values, all held
# at once, and one more decomposition per (u, v) pair of every vaughan
# cell (about 1.5 ms per weight at q = 3 on a 2-CPU host): MAX_WEIGHTS
# bounds --weights, so that no flag asks for an unbounded run.
MAX_WEIGHTS = 1000


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _parse_int(source: str, raw) -> int:
    """raw as an int: an int (not a bool) or a decimal integer string."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ConfigError(f"{source} must be an integer, got {raw!r}")


def _lookup(args, file_cfg: dict, name: str, env=None):
    """(source, raw value) of an option from its flag, else the environment
    variable env, else the config file; (None, None) when none sets it."""
    flag = "--" + name.replace("_", "-")
    for source, raw in ((flag, getattr(args, name, None)),
                        (env, os.environ.get(env) if env else None),
                        (f"config {name}", file_cfg.get(name))):
        if raw is not None:
            return source, raw
    return None, None


def _resolve_int(args, file_cfg: dict, name: str, default, floor=None,
                 top=None, env=None):
    """An integer from _lookup, else default.

    Non-integers (floats and bools included) and values below floor (or
    above top) are rejected with an error naming their source.
    """
    source, raw = _lookup(args, file_cfg, name, env)
    if source is None:
        return default
    value = _parse_int(source, raw)
    if floor is not None and value < floor:
        raise ConfigError(f"{source} must be >= {floor}, got {value}")
    if top is not None and value > top:
        raise ConfigError(f"{source} must be <= {top}, got {value}")
    return value


def resolve_config(args) -> RunConfig:
    """Merge defaults, config file, environment and flags (flags win)."""
    config_path = getattr(args, "config", None)
    file_cfg = _load_config_file(config_path) if config_path else {}

    source, fmt = _lookup(args, file_cfg, "format")
    if fmt is not None and fmt not in FORMATS:
        raise ConfigError(
            f"{source} must be one of {', '.join(FORMATS)}, got {fmt!r}")
    source, modulus = _lookup(args, file_cfg, "modulus")
    modulus_tuple = None
    if modulus:
        modulus_tuple = tuple(_parse_int(f"{source} entry", part)
                              for part in modulus.split(","))
    return RunConfig(
        p=_resolve_int(args, file_cfg, "p", 3),
        e=_resolve_int(args, file_cfg, "e", 1),
        modulus=modulus_tuple,
        fmt=fmt or "json",
        # No flag starts more workers than the CPUs this process may use.
        jobs=min(_resolve_int(args, file_cfg, "jobs", 1, 1, env="RSFQ_JOBS"),
                 _usable_cpus()),
        cap=_resolve_int(args, file_cfg, "cap", DEFAULT_CAP, 1, DEFAULT_CAP),
        seed=_resolve_int(args, file_cfg, "seed", 1),
        weights=_resolve_int(args, file_cfg, "weights", 3, 0, MAX_WEIGHTS),
        n_max=_resolve_int(args, file_cfg, "n_max", None, 0),
    )


def _write(text: str) -> None:
    """Write text to stdout and flush it.  A reader that stops early
    (`rsfq ... | head`) closes the pipe: the rest of the output is dropped
    and the command still returns its own status.  stdout then points at
    os.devnull, so that the flush at exit does not raise again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(obj) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_csv(header: list, rows) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write(out.getvalue())


def _emit_kv_csv(obj: dict) -> None:
    """One (key, value) row per key in sorted order, a dict or list value
    as its JSON."""
    _emit_csv(["key", "value"], (
        [key, json.dumps(value, sort_keys=True)
         if isinstance(value, (dict, list)) else value]
        for key, value in sorted(obj.items())))


def _cmd_distribution(cfg: RunConfig, args) -> int:
    table = distribution(cfg.ring(), args.n)
    if cfg.fmt == "csv":
        _write(table.to_csv())
    else:
        _emit_json(table.as_dict())
    return 0


def _cmd_trend(cfg: RunConfig, args) -> int:
    top = cfg.n_max
    if top is None:
        top = max(2, CHECKS["dist"].limit(cfg.p**cfg.e))
    rows = deviation_trend(cfg.ring(), top)
    if cfg.fmt == "csv":
        keys = ["n", "total", "expected", "max_abs_dev", "relative_dev"]
        _emit_csv(keys, ([row[key] for key in keys] for row in rows))
    else:
        _emit_json(rows)
    return 0


def _cmd_verify(cfg: RunConfig, args) -> int:
    report = verify_all(cfg, (args.selector,))
    if cfg.fmt == "csv":
        keys = ["check", "q", "n", "pass"]
        _emit_csv(keys, ([cell[key] for key in keys] for cell in report["cells"]))
    else:
        _emit_json(report)
    return 0 if report["passed"] else 1


def _cmd_sigma(cfg: RunConfig, args) -> int:
    ring = cfg.ring()
    validate_cutoffs(args.n, args.u, args.v)
    if args.beta is None:
        beta = ring.ctx.scalar(1)
    else:
        beta = ring.ctx.parse_element(args.beta)
    chi = CharSpec(ring.ctx, beta)
    fn = sigma1 if args.which == "sigma1" else sigma2
    report = fn(ring, args.n, args.u, args.v, chi)
    if cfg.fmt == "csv":
        _emit_kv_csv(report)
    else:
        _emit_json(report)
    return 0


def _cmd_nf_count(cfg: RunConfig, args) -> int:
    ring = cfg.ring()
    if args.poly is not None:
        f = ring.parse(args.poly)
        report = count_reversal_solutions(ring, f, args.n)
    else:
        report = scan_reversal_counts(ring, args.n)
    if cfg.fmt == "csv":
        _emit_kv_csv(report)
    else:
        _emit_json(report)
    return 0 if report["pass"] else 1


_COMMANDS = {
    "distribution": _cmd_distribution,
    "trend": _cmd_trend,
    "verify": _cmd_verify,
    "sigma": _cmd_sigma,
    "nf-count": _cmd_nf_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ExactIdentityError as err:
        print(f"rsfq: identity violated: {err}", file=sys.stderr)
        return 1
    except RsfqError as err:
        print(f"rsfq: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"rsfq: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
