"""The README's Library example runs as written, so a name it imports cannot
be renamed or deleted without the docs following."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} (Library)", "exec"), {})
    assert "'pearson'" in capsys.readouterr().out
