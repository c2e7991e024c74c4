"""Shared pytest plumbing.

BLAS runs one thread, set before NumPy loads: the suite's wall-clock budgets
and golden digests hold for one thread, and an unpinned BLAS oversubscribes
the cores whenever another process runs beside the tests.

The acceptance tests append one line per criterion to ACCEPTANCE_CHECKLIST;
echoing them in the terminal summary keeps the checklist visible even when
every test passes and pytest swallows per-test stdout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ACCEPTANCE_CHECKLIST: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_CHECKLIST:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_CHECKLIST:
            terminalreporter.write_line(line)
