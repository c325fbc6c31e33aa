"""The README's library tour and version-3 conversion run as written
against the current API."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
DATA = Path(__file__).resolve().parent / "data"


def test_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library tour)", "exec"), {})
    # the tour prints the start residual, then converged / iterations / residual
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("True ")


@pytest.mark.parametrize("name", ["conn_su2.field", "curv_su2.field", "star_euclid_su2.field",
                                  "star_mink_su2.field"])
def test_version_3_conversion_writes_the_v4_golden(tmp_path, name):
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md (version-3 conversion)", "exec"), namespace)
    namespace["convert_v3"](DATA / "v3" / name, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / "v4" / name).read_bytes()
