"""The README's quick start runs as written, at a small particle count."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    assert "100_000" in code
    exec(compile(code.replace("100_000", "2000"), "<README quick start>", "exec"),
         {})
    assert capsys.readouterr().out
