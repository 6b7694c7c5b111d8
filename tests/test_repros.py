"""Replay every pinned reproducer in tests/repros/.

When the fuzzer finds a fast/slow divergence it writes a shrunk spec
here; once the underlying bug is fixed, the file stays behind as a
regression test.  Each replay asserts the two kernels now agree on
the spec — a fixed divergence can never silently come back.
"""

import os

import pytest

from repro.testing.fuzz import GENERATORS
from repro.testing.oracle import check_case
from repro.testing.shrink import load_repros

REPRO_DIR = os.path.join(os.path.dirname(__file__), "repros")

_REPROS = list(load_repros(REPRO_DIR))


@pytest.mark.parametrize(
    "path,payload", _REPROS,
    ids=[os.path.basename(p) for p, _ in _REPROS] or None,
)
def test_repro_no_longer_diverges(path, payload):
    generator = GENERATORS[payload["generator"]]
    report = check_case(generator, payload["spec"])
    assert not report.diverged, (
        f"{os.path.basename(path)} diverges again: {report.summary()}"
    )


def test_repro_dir_exists():
    """The directory (and its README) ride along even when empty."""
    assert os.path.isdir(REPRO_DIR)
