import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_criterion_(\d+)", getattr(rep, "nodeid", ""))
            if m:
                lines.append((int(m.group(1)), status.upper(), rep.nodeid.split("::")[-1]))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num, status, name in sorted(lines):
            terminalreporter.write_line(f"criterion {num:02d} [{status}] {name}")

from cmbpipe.volume import Volume3D


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_volume(rng):
    return Volume3D(rng.normal(100.0, 5.0, (24, 20, 28)), (1.0, 1.25, 0.8), (-3.0, 5.0, 0.0))
