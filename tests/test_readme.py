"""The README's quick start runs as written, at a small particle count, and
its example config passes the strict config reader."""

import re
from pathlib import Path

from flatsteady import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "100_000" in code
    exec(compile(code.replace("100_000", "2000"), "<README quick start>", "exec"),
         {})
    assert capsys.readouterr().out


def test_readme_config_is_accepted(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    config = tmp_path / "run.ini"
    config.write_text(blocks[0])
    assert cli.main(["validate", "--config", str(config),
                     "--out", str(tmp_path)]) == 0


def test_readme_names_every_config_section():
    text = README.read_text()
    assert all(f"`[{section}]`" in text for section in cli._KEYS)
