"""README's Library API example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_api_block() -> str:
    section = README.read_text().split("\n## Library API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_api_block_runs(capsys):
    code = _library_api_block()
    exec(compile(code, str(README), "exec"), {})
    # Each `print(...)  # value...` line prints what its comment shows.
    printed = capsys.readouterr().out.splitlines()
    shown = re.findall(r"^print\(.*\)\s*# (\S+?)(?:\.\.\.)?$", code, re.M)
    assert len(printed) == len(shown) > 0
    for out, prefix in zip(printed, shown):
        assert out.startswith(prefix), (out, prefix)
