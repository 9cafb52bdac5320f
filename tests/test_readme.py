"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    [tour] = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(tour, str(README), "exec"), {})
