"""The package as a whole."""

from pathlib import Path

import bilatdual

LINE_BUDGET = 3600


def test_the_package_stays_within_its_line_budget():
    """New code pays for itself with what it deletes: the sources total at most LINE_BUDGET lines."""
    sources = sorted(Path(bilatdual.__file__).parent.glob("*.py"))
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in sources}
    assert sum(lines.values()) <= LINE_BUDGET, lines
