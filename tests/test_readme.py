"""The README's library example runs as written, and its CLI section shows the CSV header the harness writes."""

import re
from pathlib import Path

from hrislink.harness import CSV_HEADER

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    [example] = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    exec(compile(example, str(README), "exec"), {})
    nmses = [float(line) for line in capsys.readouterr().out.split()]
    assert len(nmses) == 2 and all(value < 1e-10 for value in nmses)


def test_csv_header_is_the_documented_one():
    [documented] = re.findall(r"^The CSV header is fixed:\n\n```\n(.*)\n```", README.read_text(), flags=re.M)
    assert CSV_HEADER == documented
