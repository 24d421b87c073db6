"""The README's Python examples run as written against the package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python block"
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()
