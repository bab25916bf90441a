"""The benchmark's tracer finds every name it hooks in rsft.

`perfbench/tracing.py` wraps rsft functions and methods by name and lists
the names it cannot find in `Tracer.missing` rather than failing, so a
rename would silently zero the per-layer metrics those hooks feed.  This
installs the tracer in process, checks that nothing is missing, and
restores the original bindings.
"""

import sys
from pathlib import Path

import rsft.cli

BENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_every_hooked_name_exists():
    sys.path.insert(0, BENCH)
    try:
        from tracing import Tracer, install
    finally:
        sys.path.remove(BENCH)
    original = rsft.cli.algebra_report
    tracer = Tracer("hooks")
    undo = install(tracer)
    try:
        assert tracer.missing == []
        assert rsft.cli.algebra_report is not original
    finally:
        undo()
    assert rsft.cli.algebra_report is original
