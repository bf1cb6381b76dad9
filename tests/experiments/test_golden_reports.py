"""The default reports of the sweep- and march-driven experiments, pinned
byte for byte.

``golden/{table1,fig3,fig4,escapes,diagnosis}.txt`` hold the default
``run_*().report.render()`` of each experiment.  Relative checks (grid vs
scalar, served vs direct, ``--jobs N`` vs 1) pass when every path moves
together; these files do not.  Table 1 is compared in ``test_table1.py``,
on the same default run its paper-row grades come from.  Regenerate the
files only on purpose::

    PYTHONPATH=src python tests/experiments/test_golden_reports.py
"""

import os

import pytest

from repro.experiments.diagnosis import run_diagnosis
from repro.experiments.escapes import run_escapes
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.table1 import run_table1

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: Experiments compared here (Table 1 is compared in test_table1.py).
RUNS = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "escapes": run_escapes,
    "diagnosis": run_diagnosis,
}


def golden(name):
    """The committed bytes of ``golden/<name>.txt``."""
    with open(os.path.join(GOLDEN, f"{name}.txt"), "rb") as fh:
        return fh.read()


def rendered(report):
    """A report as its golden file stores it."""
    return (report.render() + "\n").encode("utf-8")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name):
    assert rendered(RUNS[name]().report) == golden(name)


if __name__ == "__main__":  # pragma: no cover - regeneration entry
    for name, run in {"table1": run_table1, **RUNS}.items():
        with open(os.path.join(GOLDEN, f"{name}.txt"), "wb") as fh:
            fh.write(rendered(run().report))
