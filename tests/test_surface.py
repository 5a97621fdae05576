"""Every exported name and every optional parameter is used by the
program or its benchmark.

A module exports every name in its __all__ and every public (not
underscored) top-level function and class, whether or not it has an
__all__, and every public method and property of a public class, named
Class.method. Each needs a caller in src/nsrw/*.py or perfbench/*.py: a
Name, an Attribute or an ImportFrom alias that refers to it (for a method,
an Attribute of its name). The package's __init__ re-exports names and does
not count. A name kept only for the tests is listed in ORACLES with the
reason it stays.

Each defaulted parameter of a public top-level function needs a call in
those files that passes it, by keyword or at its position; otherwise
nothing but the tests ever sets it. Oracles are exempt, and a parameter
kept for the tests alone is listed in PARAMETERS with the reason.

Each defaulted init field of a public dataclass likewise needs a call in
those files that sets it: a call of the class by keyword, at its position
or with ** (ExperimentConfig(**raw)), or a dataclasses.replace keyword.

Each field of a public dataclass needs a read in those files: an
Attribute of its name that loads it. A field read by the tests alone is
listed in FIELDS with the reason it stays.

Every `from nsrw.M import name` and `import nsrw.M` in perfbench/*.py
resolves, so a name the benchmark imports cannot leave the package
unnoticed.

Each private (underscored) top-level function and class of src/nsrw needs
a caller in src/nsrw/*.py outside its own definition: a helper that loses
its last caller goes with it.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nsrw"
CALLER_FILES = sorted(
    p for p in list(PACKAGE.glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    if p != PACKAGE / "__init__.py"
)

ORACLES = {
    "dwdt_norm": "reference for the dw/dt the solver records (Trajectory.dwdt_hminus1), "
                 "recomputed on the N grid from the snapshots a consumer collects",
    "zeros_field": "criterion-1 operator: the zero field of the operator identities",
    "ring_index": "criterion-1 operator: the ring label of each lattice mode",
    "ring_project": "criterion-1 operator: one ring's piece of a field",
    "dealias": "criterion-1 operator: the 2/3-rule truncation",
    "leray_project": "criterion-1 operator: the divergence-free projection; the data "
                     "constructors run its in-place core on their own fresh array",
    "multiplier": "criterion-1 operator: the gradient, divergence, fractional-Laplacian "
                  "and bracket symbols",
    "serialize_config": "the parse -> serialize -> parse identity of the config schema",
    "coefficient_matrix": "the vectorised draws behind the acceptance statistics, "
                          "row i bit-identical to sample i",
    "nse_residual": "the residual over any sequence of states, for the manufactured "
                    "solutions and, over u_half of the snapshots a consumer collects, as the "
                    "reference the solve runner's streamed residual matches bit for bit; "
                    "both run diagnostics._ResidualPair on each pair",
    "linf_norm": "the whole-lattice L-infinity norm: the reference of the heat sweep's "
                 "p = inf reduction and of the max|g| the solver's stability guard reads "
                 "off that sweep",
    "check_linear_estimates": "one derivative order's L2 and Linf decay reports, the form "
                              "the criterion tests check against closed forms and per-time "
                              "oracles; heatflow runs all its orders through "
                              "linear_estimates, of which it is the one-order case",
    "moment_bound_check": "the paper's moment bound (E norm^r)^{1/r} <= C |f|_{H^{-s}}; "
                          "tails checks the equivalent Gaussian tail",
}

PARAMETERS = {
    "smooth_random_field.band": "the manufactured fields of the solver and residual tests "
                                "use band 2",
}

FIELDS = {}


def _exports() -> dict:
    """name -> module file for every entry of every module's __all__, every
    public top-level function and class, and every public method and
    property of a public class, as Class.method."""
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
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = path.name
    return out


def _is_used(name: str, used: set) -> bool:
    """Whether the caller files refer to an export: a method by its name."""
    return name.rsplit(".", 1)[-1] in used


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
        if not _is_used(name, used) and name not in ORACLES
    )
    assert not orphans, f"exported but never used outside the tests: {orphans}"


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_entry_is_current(name):
    # an oracle that gains a caller, or leaves __all__, leaves this list
    assert name in _exports(), f"{name} is no longer exported"
    assert not _is_used(name, _used_names()), f"{name} has a caller; drop it from ORACLES"


def _defaulted_parameters() -> dict:
    """'function.parameter' -> (function, position or None if keyword-only)
    for every defaulted parameter of every public top-level function."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                out[f"{node.name}.{arg.arg}"] = (node.name, i)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[f"{node.name}.{arg.arg}"] = (node.name, None)
    return out


def _calls() -> list:
    """(called name, call node) for every call in the caller files."""
    calls = []
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.append((name, node))
    return calls


def _passed_parameters(defaulted: dict) -> set:
    """The entries of defaulted ('callee.name' -> (callee, position or
    None)) that some call in the caller files passes."""
    calls = _calls()
    passed = set()
    for key, (fname, position) in defaulted.items():
        param = key.split(".", 1)[1]
        for name, call in calls:
            if name != fname:
                continue
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            if (param in keywords or None in keywords or starred
                    or (position is not None and len(call.args) > position)):
                passed.add(key)
                break
    return passed


def test_every_optional_parameter_is_passed():
    defaulted = {k: v for k, v in _defaulted_parameters().items() if v[0] not in ORACLES}
    unset = sorted(set(defaulted) - _passed_parameters(defaulted) - set(PARAMETERS))
    assert not unset, f"defaulted parameters no program call passes: {unset}"


@pytest.mark.parametrize("key", sorted(PARAMETERS))
def test_parameter_entry_is_current(key):
    # an entry whose parameter goes, or gains a caller, leaves this list
    defaulted = _defaulted_parameters()
    assert key in defaulted, f"{key} is no longer a defaulted parameter"
    assert key not in _passed_parameters(defaulted), f"{key} is passed; drop it from PARAMETERS"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields() -> dict:
    """class name -> its field statements, for every public dataclass."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and _is_dataclass(node)):
                out[node.name] = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                                  and isinstance(stmt.target, ast.Name)]
    return out


def _defaulted_fields() -> dict:
    """'Class.field' -> (class, position among the init fields) for every
    defaulted init field of every public dataclass."""
    out = {}
    for name, stmts in _dataclass_fields().items():
        position = 0
        for stmt in stmts:
            value = stmt.value
            if (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                    and any(k.arg == "init" and getattr(k.value, "value", True) is False
                            for k in value.keywords)):
                continue
            if value is not None:
                out[f"{name}.{stmt.target.id}"] = (name, position)
            position += 1
    return out


def test_every_defaulted_field_is_set():
    fields = _defaulted_fields()
    replaced = {k.arg for name, call in _calls() if name == "replace" for k in call.keywords}
    unset = sorted(key for key in set(fields) - _passed_parameters(fields)
                   if key.split(".", 1)[1] not in replaced)
    assert not unset, f"defaulted dataclass fields no program call sets: {unset}"


def _attribute_reads() -> set:
    """The names that an Attribute loads in the caller files."""
    return {node.attr for path in CALLER_FILES for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _field_names() -> list:
    return [f"{name}.{stmt.target.id}" for name, stmts in _dataclass_fields().items()
            for stmt in stmts]


def test_every_dataclass_field_is_read():
    reads = _attribute_reads()
    unread = sorted(key for key in _field_names()
                    if key.split(".", 1)[1] not in reads and key not in FIELDS)
    assert not unread, f"dataclass fields no program code reads: {unread}"


def test_field_entries_are_current():
    # an entry whose field goes, or gains a reader, leaves this list; one
    # test over all entries, so an empty list is not a skipped test
    fields, reads = _field_names(), _attribute_reads()
    for key in sorted(FIELDS):
        assert key in fields, f"{key} is no longer a dataclass field"
        assert key.split(".", 1)[1] not in reads, f"{key} is read; drop it from FIELDS"


def _benchmark_imports() -> list:
    """(where, module, name) for every `from nsrw.M import name` (name) and
    `import nsrw.M` (None) in perfbench/*.py."""
    out = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nsrw":
                out += [(f"{path.name}:{node.lineno}", node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(f"{path.name}:{node.lineno}", a.name, None) for a in node.names
                        if a.name.split(".")[0] == "nsrw"]
    return out


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_every_benchmark_import_resolves():
    imports = _benchmark_imports()
    # the scan sees the imports inside layers.py's functions too
    assert ("nsrw.solver", "step") in {(m, n) for _, m, n in imports}
    unresolved = [f"{where} {module}.{name}" if name else f"{where} {module}"
                  for where, module, name in imports if not _resolves(module, name)]
    assert not unresolved, f"perfbench imports names the package lacks: {unresolved}"


def _package_references() -> set:
    """The names a Name, an Attribute or an ImportFrom alias refers to in
    src/nsrw/*.py (the re-exporting __init__ aside), each top-level
    definition's references to its own name left out."""
    used = set()
    for path in CALLER_FILES:
        if path.parent != PACKAGE:
            continue
        for top in ast.parse(path.read_text()).body:
            refs = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(top.name)
            used |= refs
    return used


def test_every_private_definition_has_a_caller():
    used = _package_references()
    orphans = sorted(
        f"{path.name}:{node.name}" for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and node.name not in used
    )
    assert not orphans, f"private definitions nothing in src/nsrw calls: {orphans}"
