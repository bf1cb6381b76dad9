"""The Section 5 functional result, pinned byte for byte.

``golden/`` holds the rendered coverage matrix, the complexity table and
the generated ``March gen`` test of ``run_march_pf(with_electrical=False)``.
Relative checks (served vs direct, projected vs interpreted) pass when
every path moves together; these files do not.  Regenerate them only on
purpose::

    PYTHONPATH=src python tests/march/test_march_pf_golden.py
"""

import os

import pytest

from repro.experiments.march_pf import run_march_pf

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def rendered():
    """``{file name: text}`` of the functional Section 5 result."""
    result = run_march_pf(with_electrical=False)
    coverage, complexity = result.report.blocks[:2]
    generated = next(t for t in result.matrix.tests if t.name == "March gen")
    return {
        "coverage_matrix.txt": coverage + "\n",
        "complexity.txt": complexity + "\n",
        "march_gen.txt": generated.to_string() + "\n",
    }


@pytest.fixture(scope="module")
def outputs():
    return rendered()


@pytest.mark.parametrize(
    "name", ["coverage_matrix.txt", "complexity.txt", "march_gen.txt"]
)
def test_matches_golden(outputs, name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert outputs[name].encode("utf-8") == fh.read()


if __name__ == "__main__":  # pragma: no cover - regeneration entry
    for name, text in rendered().items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(text)
