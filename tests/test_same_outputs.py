import importlib.util
import shutil
from pathlib import Path

import rsfq

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
SRC = str(Path(rsfq.__file__).resolve().parent.parent)


def load_script():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_shows_no_difference(monkeypatch, capsys):
    """Two runs of one tree agree, elapsed_seconds apart, and main says
    so with status 0."""
    module = load_script()
    verify = ["--n-max", "2", "verify", "tau"]
    a, b = module.run(SRC, verify), module.run(SRC, verify)
    assert '"elapsed_seconds": _' in a[1]
    assert module.differences(verify, a, b) == []
    monkeypatch.setattr(module, "COMMANDS", [verify, ["distribution", "-n",
                                                      "3"]])
    assert module.main([SRC, SRC]) == 0
    assert capsys.readouterr().out == "no difference in 2 commands\n"


def test_every_tampered_part_is_reported():
    """A changed exit code, stdout and stderr each get a line naming the
    run and the part, and the text parts a unified diff."""
    module = load_script()
    args = ["distribution", "-n", "3"]
    code, out, err = module.run(SRC, args)
    assert (code, err) == (0, "") and '"total": 8' in out
    tampered = out.replace('"total": 8', '"total": 9')
    lines = module.differences(args, (code, out, err), (1, tampered, "x\n"))
    assert lines[:2] == ["distribution -n 3: exit code differs", "  0 != 1"]
    assert "distribution -n 3: stdout differs" in lines
    assert '  -  "total": 8' in lines and '  +  "total": 9' in lines
    assert lines[-5:] == ["distribution -n 3: stderr differs", "  --- a",
                          "  +++ b", "  @@ -0,0 +1 @@", "  +x"]


def test_a_tampered_tree_fails_the_comparison(tmp_path, monkeypatch, capsys):
    """A copy of the package whose distribution reports a total one too
    large differs from the original, and main exits 1 naming the run."""
    module = load_script()
    shutil.copytree(Path(SRC) / "rsfq", tmp_path / "rsfq",
                    ignore=shutil.ignore_patterns("__pycache__"))
    dist = tmp_path / "rsfq" / "dist.py"
    source = dist.read_text()
    assert source.count('"total": self.total,') == 1
    dist.write_text(source.replace('"total": self.total,',
                                   '"total": self.total + 1,'))
    monkeypatch.setattr(module, "COMMANDS", [["distribution", "-n", "3"]])
    assert module.main([SRC, str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "distribution -n 3: stdout differs"
