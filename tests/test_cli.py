import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rsfq import DEFAULT_CAP, ConfigError, Dirichlet, vaughan, verify
from rsfq.cli import MAX_WEIGHTS, build_parser, main, resolve_config


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "rsfq", *args],
        capture_output=True, text=True, env=env,
    )


def test_distribution_json(tmp_path):
    result = run_cli("distribution", "-n", "3")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["counts"] == {"0": 4, "1": 2, "2": 2}
    assert data["total"] == 8


def test_distribution_csv_round_trip():
    result = run_cli("distribution", "-n", "4", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "gamma,count,expected,deviation"
    counts = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
    reference = json.loads(run_cli("distribution", "-n", "4").stdout)
    assert counts == reference["counts"]


def test_verify_star_passes():
    result = run_cli("verify", "star")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["passed"]
    assert all(cell["check"] == "star" for cell in data["cells"])


def test_verify_star_above_the_cap_is_usage_error():
    """At q = 3^12 the n = 1 cell would enumerate q^2 polynomials: every
    star cell is cap-checked before any cell runs, so the run exits 2
    without walking the 531441 constants of the n = 0 cell first."""
    result = run_cli("--p", "3", "--e", "12", "verify", "star")
    assert result.returncode == 2
    assert result.stderr.strip().splitlines()[-1] == (
        "rsfq: enumeration of 282429536481 elements exceeds the cap 100000000")


def test_verify_selector_csv():
    result = run_cli("verify", "tau", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "check,q,n,pass"
    assert all(line.endswith("True") for line in lines[1:])


def test_verify_rank_qa_reports_known_failures():
    """The boundary counterexamples surface as cell failures (exit 1)."""
    result = run_cli("verify", "rank-qa")
    assert result.returncode == 1
    data = json.loads(result.stdout)
    assert not data["passed"]
    failing = {cell["n"] for cell in data["cells"] if not cell["pass"]}
    assert failing == {5, 6, 7, 8}
    cell6 = next(c for c in data["cells"] if c["n"] == 6)
    bad = {f["a"] for f in cell6["detail"]["rank_failures"]}
    assert bad == {"2,1,1", "2,2,1"}


def test_even_characteristic_rejected():
    result = run_cli("--p", "2", "verify", "star")
    assert result.returncode == 2
    assert "odd prime" in result.stderr


def test_cap_exceeded_is_usage_error():
    result = run_cli("--cap", "10", "distribution", "-n", "5")
    assert result.returncode == 2
    assert "cap" in result.stderr


def test_distribution_above_sieve_cap_is_usage_error():
    result = run_cli("distribution", "-n", "16")     # 3^16 > 2 * 10^7
    assert result.returncode == 2
    assert "sieve cap" in result.stderr


def test_sigma_cap_exceeded_is_usage_error(capsys):
    """Both aggregates refuse a degree whose monic set exceeds --cap."""
    assert main(["sigma", "sigma1", "-n", "5", "-u", "1", "-v", "2",
                 "--cap", "100"]) == 2
    assert main(["sigma", "sigma2", "-n", "6", "-u", "1", "-v", "2",
                 "--cap", "100"]) == 2
    assert "exceeds the cap 100" in capsys.readouterr().err
    # Every degree's set is at most 3^16 under the default cap, but sigma2
    # would tabulate R over all 3^30 monics.
    assert main(["sigma", "sigma2", "-n", "30", "-u", "14", "-v", "15"]) == 2
    assert capsys.readouterr().err == (
        "rsfq: enumeration of 205891132094649 elements exceeds the cap "
        "100000000\n")


@pytest.mark.parametrize("which", ["sigma1", "sigma2"])
def test_sigma_above_sieve_cap_is_usage_error(monkeypatch, capsys, which):
    """Both aggregates refuse q^n above the sieve cap, as distribution
    does, after the ring's cap checks: with the cap lowered to 3^6 - 1,
    n = 6 exits 2 naming it, --cap 100 still names --cap first, and
    n = 5 runs."""
    monkeypatch.setattr(vaughan, "SIEVE_CAP", 3**6 - 1)
    args = ["sigma", which, "-u", "1", "-v", "2"]
    assert main([*args, "-n", "6"]) == 2
    assert capsys.readouterr().err == (
        "rsfq: q^n = 729 exceeds the sieve cap 728\n")
    assert main([*args, "-n", "6", "--cap", "100"]) == 2
    assert "exceeds the cap 100" in capsys.readouterr().err
    assert main([*args, "-n", "5"]) == 0


def test_bad_selector_rejected():
    result = run_cli("verify", "nonsense")
    assert result.returncode == 2


def test_sigma_subcommand():
    result = run_cli("sigma", "sigma1", "-n", "5", "-u", "1", "-v", "2")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["value"] > 0
    assert data["bound"] == 3.0 ** ((5 + 1 + 2 + 2) / 2)


def test_sigma_default_beta_is_scalar_one_in_extension_fields():
    args = ("--p", "3", "--e", "2", "sigma", "sigma1", "-n", "4", "-u", "1",
            "-v", "2")
    default = run_cli(*args)
    explicit = run_cli(*args, "--beta", "1+0")
    assert default.returncode == 0, default.stderr
    assert explicit.returncode == 0
    assert default.stdout == explicit.stdout


def test_sigma_trivial_character_rejected():
    result = run_cli("sigma", "sigma1", "-n", "5", "-u", "1", "-v", "2",
                     "--beta", "0")
    assert result.returncode == 2


def test_nf_count_single_poly():
    result = run_cli("nf-count", "-n", "1", "--poly", "0,1")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["observed"] == 2
    assert data["detail"]["solutions"] == ["0,1", "0,2"]


def test_nf_count_scan():
    result = run_cli("nf-count", "-n", "2")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["observed"] == 4 and data["pass"]


def test_nf_count_scan_reports_stated_bound_counterexamples():
    """At q=5 the stated N(f) <= 2^n fails (exit 1) while the provable
    N(f) <= 2 d_n(f) holds; the report lists every f above 2^n."""
    result = run_cli("--p", "5", "nf-count", "-n", "2")
    assert result.returncode == 1
    data = json.loads(result.stdout)
    assert data["observed"] == 6 and data["bound"] == 4 and not data["pass"]
    detail = data["detail"]
    assert detail["divisor_bound_holds"] and detail["divisor_bound_attained"]
    assert {"f": "1,0,2,0,1", "count": 6, "divisor_bound": 6} in \
        detail["counterexamples"]


def test_nf_count_degree_zero_breaks_the_stated_bound():
    """At N = 0 the stated N(f) <= 2^N fails at every q: a is a constant c
    and a* . a = c^2, so f = 1 has the two solutions +-1 against
    2^0 = 1 (exit 1), within the provable 2 d_0(1) = 2."""
    result = run_cli("nf-count", "-n", "0")
    assert result.returncode == 1
    data = json.loads(result.stdout)
    assert data["observed"] == 2 and data["bound"] == 1 and not data["pass"]
    assert data["detail"]["counterexamples"] == [
        {"f": "1", "count": 2, "divisor_bound": 2}]


def test_trend_csv():
    result = run_cli("trend", "--n-max", "4", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "n,total,expected,max_abs_dev,relative_dev"
    assert len(lines) == 4


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\np=3\n")
    result = run_cli("--config", str(cfg), "distribution", "-n", "3")
    assert result.returncode == 0
    assert result.stdout.startswith("gamma,")      # csv from config file
    result = run_cli("--config", str(cfg), "--format", "json",
                     "distribution", "-n", "3")
    assert result.stdout.lstrip().startswith("{")  # flag wins


def test_env_jobs_override():
    result = run_cli("distribution", "-n", "4", env_extra={"RSFQ_JOBS": "2"})
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["total"] == 18


def test_global_flags_both_positions():
    before = run_cli("--p", "5", "distribution", "-n", "2")
    after = run_cli("distribution", "-n", "2", "--p", "5")
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout
    assert json.loads(before.stdout)["q"] == 5


def _resolve(*argv):
    return resolve_config(build_parser().parse_args([*argv, "verify", "star"]))


def test_jobs_nonpositive_rejected(monkeypatch, tmp_path):
    monkeypatch.delenv("RSFQ_JOBS", raising=False)
    with pytest.raises(ConfigError, match="--jobs"):
        _resolve("--jobs", "0")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs=0\n")
    with pytest.raises(ConfigError, match="config jobs"):
        _resolve("--config", str(cfg))
    monkeypatch.setenv("RSFQ_JOBS", "-1")
    with pytest.raises(ConfigError, match="RSFQ_JOBS"):
        _resolve()
    assert main(["verify", "star"]) == 2


def test_jobs_non_integer_names_its_source(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("RSFQ_JOBS", raising=False)
    cfg = tmp_path / "run.cfg"
    for bad in ("abc", "2.5", "True"):
        cfg.write_text(f"jobs={bad}\n")
        with pytest.raises(ConfigError, match="config jobs must be an integer"):
            _resolve("--config", str(cfg))
    monkeypatch.setenv("RSFQ_JOBS", "abc")
    with pytest.raises(ConfigError, match="RSFQ_JOBS must be an integer"):
        _resolve()
    assert main(["verify", "star"]) == 2
    assert "RSFQ_JOBS must be an integer, got 'abc'" in capsys.readouterr().err
    monkeypatch.delenv("RSFQ_JOBS")
    args = build_parser().parse_args(["verify", "star"])
    for bad in (2.0, True):
        args.jobs = bad
        with pytest.raises(ConfigError, match="--jobs must be an integer"):
            resolve_config(args)


def test_jobs_clamped_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("RSFQ_JOBS", raising=False)
    cpus = len(os.sched_getaffinity(0))
    assert _resolve().jobs == 1
    assert _resolve("--jobs", "1").jobs == 1
    assert _resolve("--jobs", str(10**9)).jobs == cpus
    monkeypatch.setenv("RSFQ_JOBS", str(10**9))
    assert _resolve().jobs == cpus
    assert _resolve("--jobs", "1").jobs == 1      # flag wins over the env


@pytest.mark.parametrize("name, flag", [("weights", "--weights"),
                                        ("n_max", "--n-max")])
def test_negative_counts_rejected_naming_their_source(tmp_path, capsys,
                                                      name, flag):
    """--weights -1 used to print "weights": -1 and --n-max -1 an empty
    run reported as passed; both now exit 2, flag or config file."""
    with pytest.raises(ConfigError, match=f"{flag} must be >= 0, got -1"):
        _resolve(flag, "-1")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name}=-1\n")
    with pytest.raises(ConfigError, match=f"config {name} must be >= 0"):
        _resolve("--config", str(cfg))
    cfg.write_text(f"{name}=2.5\n")
    with pytest.raises(ConfigError,
                       match=f"config {name} must be an integer, got '2.5'"):
        _resolve("--config", str(cfg))
    assert main([flag, "-1", "verify", "vaughan"]) == 2
    assert f"{flag} must be >= 0, got -1" in capsys.readouterr().err
    assert _resolve(flag, "0", "--config", str(cfg)).public_dict()[name] == 0


def test_n_max_zero_cuts_every_check():
    """--n-max 0 bounds every check, the rank scans too: only the star
    cell at n = 0 is left."""
    result = run_cli("--n-max", "0", "verify", "all")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert [(cell["check"], cell["n"]) for cell in data["cells"]] == [
        ("star", 0)]


def test_weights_bounded_by_max_weights(tmp_path):
    assert _resolve("--weights", str(MAX_WEIGHTS)).weights == MAX_WEIGHTS
    with pytest.raises(ConfigError, match=(
            f"--weights must be <= {MAX_WEIGHTS}, got 100000000")):
        _resolve("--weights", "100000000")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"weights={MAX_WEIGHTS + 1}\n")
    with pytest.raises(ConfigError, match="config weights must be <="):
        _resolve("--config", str(cfg))
    result = run_cli("--weights", "100000000", "verify", "vaughan")
    assert result.returncode == 2 and result.stdout == ""


def test_cap_bounded_by_the_default_cap(tmp_path):
    assert _resolve("--cap", str(DEFAULT_CAP)).cap == DEFAULT_CAP
    with pytest.raises(ConfigError, match=(
            f"--cap must be <= {DEFAULT_CAP}, got 1000000000")):
        _resolve("--cap", "1000000000")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cap=ten\n")
    with pytest.raises(ConfigError, match="config cap must be an integer"):
        _resolve("--config", str(cfg))
    cfg.write_text(f"cap={DEFAULT_CAP + 1}\n")
    with pytest.raises(ConfigError, match="config cap must be <="):
        _resolve("--config", str(cfg))
    result = run_cli("--cap", "1000000000", "verify", "star")
    assert result.returncode == 2 and result.stdout == ""
    for bad in (0, -1):
        with pytest.raises(ConfigError, match=f"--cap must be >= 1, got {bad}"):
            _resolve("--cap", str(bad))
        cfg.write_text(f"cap={bad}\n")
        with pytest.raises(ConfigError,
                           match=f"config cap must be >= 1, got {bad}"):
            _resolve("--config", str(cfg))
        result = run_cli("--cap", str(bad), "verify", "star")
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"rsfq: --cap must be >= 1, got {bad}\n"


def test_config_format_checked_against_the_flag_choices(tmp_path, capsys):
    """format=xml in a config file used to print JSON and exit 0."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=xml\n")
    assert main(["--config", str(cfg), "distribution", "-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config format must be one of json, csv, got 'xml'" in captured.err
    cfg.write_text("format=csv\n")
    assert _resolve("--config", str(cfg)).fmt == "csv"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys, kind):
    """A --config path that cannot be read, a missing file or a directory,
    exits 2 with a message naming it, not with a traceback and status 1,
    which is kept for a failed check."""
    path = tmp_path / "absent.cfg" if kind == "missing" else tmp_path
    assert main(["--config", str(path), "verify", "star"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"rsfq: cannot read config file {str(path)!r}: ")


@pytest.mark.parametrize("argv, line, message", [
    ((), "p=abc", "config p must be an integer, got 'abc'"),
    ((), "e=2.0", "config e must be an integer, got '2.0'"),
    ((), "seed=x", "config seed must be an integer, got 'x'"),
    (("--e", "2"), "modulus=1,x,1",
     "config modulus entry must be an integer, got 'x'"),
    (("--e", "2", "--modulus", "1,x,1"), "",
     "--modulus entry must be an integer, got 'x'"),
], ids=["p", "e", "seed", "config-modulus", "flag-modulus"])
def test_bad_field_and_seed_values_name_their_source(tmp_path, capsys, argv,
                                                     line, message):
    """These used to print only "invalid literal for int() with base 10"."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([*argv, "--config", str(cfg), "verify", "star"]) == 2
    assert capsys.readouterr().err == f"rsfq: {message}\n"


def test_trend_max_is_gone():
    """--n-max sets trend's top degree; --trend-max was a second flag for
    it and is now an unknown argument."""
    result = run_cli("trend", "--trend-max", "4")
    assert result.returncode == 2 and result.stdout == ""
    assert "unrecognized arguments: --trend-max 4" in result.stderr


def test_distribution_identity_fault_exits_1(dropped_irreducible, capsys):
    """A sieve fault that the formula check catches exits with status 1."""
    assert main(["distribution", "-n", "5"]) == 1
    assert "divisor-sum formula" in capsys.readouterr().err


def test_verify_vaughan_identity_fault_exits_1(monkeypatch, capsys):
    """A wrong mu entry fails the integer identity of every vaughan cell:
    the run exits 1 with its JSON report on stdout, each cell failing with
    its failures listed, rather than stopping at the first."""
    mobius = Dirichlet.mobius

    def corrupted(self, k):
        mu = mobius(self, k)
        if k >= 1:
            mu[1][0] = 0        # mu(t) = -1 in truth
        return mu

    monkeypatch.setattr(Dirichlet, "mobius", corrupted)
    assert main(["verify", "vaughan", "--n-max", "5", "--jobs", "1"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    data = json.loads(out.out)
    assert data["passed"] is False
    assert [(c["n"], c["pass"]) for c in data["cells"]] == [(4, False),
                                                            (5, False)]
    for cell in data["cells"]:
        assert cell["detail"]["failures"]
        assert cell["detail"]["char_rs_report"] is None


def test_verify_vaughan_sigma_fault_exits_1(monkeypatch, capsys):
    """With R replaced by (1, 1, 1, 1, 0, ...), sigma1 and sigma2 meet an
    |S|^2 that is not a power of 3: the cell fails, listing both, and the
    run prints its JSON report and exits 1."""
    def corrupted(ring, n):
        out = np.zeros(ring.ctx.q**n, dtype=np.int8)
        out[:4] = 1
        return out

    monkeypatch.setattr(verify, "_rs_table", corrupted)
    assert main(["--n-max", "4", "verify", "vaughan"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    data = json.loads(out.out)
    assert data["passed"] is False
    (cell,) = data["cells"]
    assert cell["pass"] is False and cell["detail"]["combos"] == 15
    assert cell["detail"]["failures"] == [
        {"sigma": "sigma1",
         "error": "|S|^2 = 5637 is not 0 or a power of 3 at g = 1"},
        {"sigma": "sigma2",
         "error": "|S|^2 = 36 is not 0 or a power of 3 at i = 2, g1 = 0,0,1"}]


def _closed_reader(args, lines):
    """(exit code, stderr) of a CLI run whose reader closes stdout after
    `lines` lines (before any output when lines is 0)."""
    read_end, write_end = os.pipe()
    if lines:
        # A one-page pipe makes the run block on its output, so the close
        # below comes before the last write whatever the output's size.
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("the pipe size cannot be set here")
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "rsfq", *args],
                            stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        for _ in range(lines):
            assert reader.readline()
    err = proc.communicate(timeout=120)[1]
    return proc.returncode, err.decode()


@pytest.mark.parametrize("args, status, lines", [
    (["--p", "3", "--e", "2", "distribution", "-n", "4"], 0, 0),
    (["--p", "3", "--e", "2", "--format", "csv", "distribution", "-n", "4"],
     0, 0),
    (["trend"], 0, 0),
    (["--p", "3", "verify", "all"], 1, 0),
    (["--p", "3", "verify", "all"], 1, 1),
    (["--p", "3", "--format", "csv", "verify", "all"], 1, 0),
])
def test_a_closed_pipe_keeps_the_status_and_stderr_quiet(args, status, lines):
    """`rsfq ... | head` closes the pipe while the run writes: the run
    prints no traceback and exits with its command's own status (1 for
    verify all at q = 3, whose rank-qa cell fails)."""
    assert _closed_reader(args, lines) == (status, "")
