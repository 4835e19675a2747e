"""The README's quick start runs as written."""

import os
import re
import shlex

from trafficforge.cli import dispatch

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_start():
    """The Python code block and the shell commands of the README's
    quick start section."""
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("### Quick start on a synthetic map\n", 1)[1]
    section = re.split(r"^#{1,3} ", section, maxsplit=1, flags=re.M)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    (shell,) = re.findall(r"^```bash\n(.*?)^```", section, re.M | re.S)
    return code, shell.replace("\\\n", " ").splitlines()


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    code, commands = _quick_start()
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(_ROOT)   # its code imports tests.helpers
    exec(compile(code, "README.md", "exec"), {})
    assert len(commands) == 4
    for line in commands:
        prog, *argv = shlex.split(line)
        assert prog == "trafficforge"
        assert dispatch(argv) == 0, (line, capsys.readouterr().err)
    run = (tmp_path / "out" / "run.json").read_text()
    assert '"failures": []' in run
    assert sorted(os.listdir(tmp_path / "out")) == sorted(
        f"demo_v{k}.{ext}" for k in range(3) for ext in ("csv", "json")) \
        + ["run.json"]
    assert len(os.listdir(tmp_path / "grids")) == 3
    assert '"validity_ratio": 1.0' in capsys.readouterr().out
