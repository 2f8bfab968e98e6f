"""Every benchmark workload's command line parses with the program's own parser.

``bench/run.py`` builds one zbrace command line per workload in
``make_plan``.  A refactor that deletes or renames a flag it uses would
fail every benchmark operation; this test fails first.  The bench files
are only read, not changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

from zbrace.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def run_module(monkeypatch):
    # run.py imports its sibling modules (checks, child, spans) as top-level names
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("run")
    for name in ("run", "checks", "child", "spans"):
        sys.modules.pop(name, None)


def test_every_workload_command_line_parses(run_module):
    parser = build_parser()
    commands = []
    for name in run_module.WORKLOADS:
        plan = run_module.make_plan(name, seed=0)
        if plan.cli is None:
            continue
        argv = [a.replace("{out}", "report.json") for a in plan.cli]
        args = parser.parse_args(argv)
        commands.append(args.command)
    assert commands == ["report", "solve", "report"]
