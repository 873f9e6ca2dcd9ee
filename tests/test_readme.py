"""README's quick start runs as written, on the package's whole surface."""

import re
from pathlib import Path

import bergex

README = Path(__file__).resolve().parent.parent / "README.md"

# The package exports these and nothing else; every other name is
# imported from its module.
EXPORTS = ["__version__", "backend_name", "ExtremalProblem", "solve_extremal",
           "as_poly", "bergman_norm_even", "kernel_from_extremal", "monomial"]


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text("utf-8"),
                      re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.split("\n")
    # phi_norm, residual_max, checks.certified, then the norm-equality
    # verdict
    assert lines[2] == "True"
    assert lines[3].startswith("pass ")


def test_package_exports():
    assert sorted(bergex.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        assert hasattr(bergex, name)
