"""Every exported name is used by the program or its benchmark.

A module exports every name in its __all__ and every public (not
underscored) top-level function and class, whether or not it has an
__all__. Each needs a caller in src/nsrw/*.py or perfbench/*.py: a Name,
an Attribute or an ImportFrom alias that refers to it. The package's
__init__ re-exports names and does not count. A name kept only for the
tests is listed in ORACLES with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nsrw"
CALLER_FILES = sorted(
    p for p in list(PACKAGE.glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    if p != PACKAGE / "__init__.py"
)

ORACLES = {
    "dwdt_norm": "reference for the dw/dt the solver records (Trajectory.dwdt_hminus1)",
    "zeros_field": "criterion-1 operator: the zero field of the operator identities",
    "ring_index": "criterion-1 operator: the ring label of each lattice mode",
    "ring_project": "criterion-1 operator: one ring's piece of a field",
    "dealias": "criterion-1 operator: the 2/3-rule truncation",
    "multiplier": "criterion-1 operator: the gradient, divergence, fractional-Laplacian "
                  "and bracket symbols",
    "serialize_config": "the parse -> serialize -> parse identity of the config schema",
    "coefficient_matrix": "the vectorised draws behind the acceptance statistics, "
                          "row i bit-identical to sample i",
    "moment_bound_check": "the paper's moment bound; no verb reads the config field r yet",
}


def _exports() -> dict:
    """name -> module file for every entry of every module's __all__ and
    every public top-level function and class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    out[name] = path.name
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def _used_names() -> set:
    used = set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_caller_or_is_an_oracle():
    used = _used_names()
    orphans = sorted(
        f"{module}:{name}" for name, module in _exports().items()
        if name not in used and name not in ORACLES
    )
    assert not orphans, f"exported but never used outside the tests: {orphans}"


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_entry_is_current(name):
    # an oracle that gains a caller, or leaves __all__, leaves this list
    assert name in _exports(), f"{name} is no longer exported"
    assert name not in _used_names(), f"{name} has a caller; drop it from ORACLES"
