"""Static checks on the imports between the package's modules.

The algebraic conditions (``integrability``) and the pointwise oracle
(``oracle``) are two independent routes to one verdict, so the oracle
must not reach the integrability engine, directly or through the
contraction, polarisation and canonical-component helpers, old or new,
or the modular residues and their Chinese remaindering.
``_fastops`` sits below ``tensor``, which imports its guards, so it must
not import ``tensor`` back; its ``__all__`` lists exactly the names the
other modules import from it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import killingtensor
from killingtensor import _fastops

PACKAGE = Path(killingtensor.__file__).parent


def imports_of(module: str) -> dict[str, set[str]]:
    """Package modules imported by ``module``, each with the names taken from it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                target = node.module
            elif node.level == 0 and (node.module or "").startswith("killingtensor."):
                target = node.module.split(".", 1)[1]
            elif node.level == 1 or node.module == "killingtensor":
                # "from . import x" or "from killingtensor import x": x may be a module.
                for alias in node.names:
                    found.setdefault(alias.name, set())
                continue
            else:
                continue
            found.setdefault(target.split(".")[0], set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("killingtensor."):
                    found.setdefault(alias.name.split(".")[1], set())
    return found


def names_used(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def test_oracle_imports_nothing_from_integrability():
    assert "integrability" not in imports_of("oracle")


def test_oracle_uses_no_contraction_engine():
    imported = set().union(*imports_of("oracle").values())
    engine = (
        "contract",
        "orbit_sum",
        "staged_symmetrise",
        "polarise",
        "polynomial_tensordot",
        "alternating_sums",
        "expand_axis",
        "orbit_expand",
        # The modular route and its Chinese remaindering.
        "contract_terms",
        "linear_map",
        "Residues",
        "nonzero",
        "integers",
        "_prime_below",
        "_is_prime",
        "_residue",
        "_modulo",
    )
    for name in engine:
        assert name not in imported
        assert name not in names_used("oracle")


def test_oracle_uses_nothing_defined_in_fastops():
    # Every function and class of the engine module, read from the module
    # itself, so that a name added there is covered without a list.
    defined = {
        name
        for name, value in vars(_fastops).items()
        if callable(value) and getattr(value, "__module__", None) == _fastops.__name__
    }
    assert {"contract_terms", "Residues", "_alternated", "_shuffled", "weigh_monomials"} <= defined
    used = names_used("oracle") | set().union(*imports_of("oracle").values())
    assert not defined & used


def test_fastops_does_not_import_tensor():
    assert "tensor" not in imports_of("_fastops")


def test_fastops_exports_what_the_package_imports():
    modules = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "_fastops"]
    imported = set().union(*(imports_of(m).get("_fastops", set()) for m in modules))
    assert set(_fastops.__all__) == imported


def test_the_checks_see_imports():
    # The parser finds the imports these checks rule out elsewhere.
    assert {"contract_terms", "Residues", "nonzero", "integers"} <= imports_of("integrability")["_fastops"]
    assert "_fastops" in imports_of("tensor")
    assert {"contract_terms", "nonzero", "integers"} <= names_used("integrability")


def callers(module: str, name: str) -> set[str]:
    """The functions of ``module`` whose code calls ``name`` (a nested
    function counts for itself and for each function around it)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == name for c in ast.walk(node))
    }


def test_only_reduce_and_normalize_array_divide_content_out():
    # Inside a residual, content comes out only where a guard fails on a
    # node (_reduce); normalize_array makes an image canonical.  No other
    # module calls it.
    assert callers("_fastops", "_content") == {"_reduce", "normalize_array"}
    others = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "_fastops"]
    assert not any("_content" in names_used(m) for m in others)


def int64_cutoffs(module: str) -> int:
    """How often the code of ``module`` (not its docstrings or comments)
    spells the int64 cutoff: ``1 << 62``, ``2**62`` or the number itself."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    spelled = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant) and isinstance(node.right, ast.Constant):
            spelled += (type(node.op), node.left.value, node.right.value) in ((ast.LShift, 1, 62), (ast.Pow, 2, 62))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            spelled += node.value == 1 << 62
    return spelled


def test_only_fastops_spells_the_int64_cutoff():
    # Whether an integer array is int64 or Python ints is decided there.
    modules = [path.stem for path in PACKAGE.glob("*.py")]
    assert {m for m in modules if int64_cutoffs(m)} == {"_fastops"}


# The serializers whose documents other modules may print as indented JSON.
REPORTS = {"report_to_document", "oracle_report_to_document"}


def indented_dumps(module: str) -> list[str]:
    """What ``module`` passes to each ``json.dumps(..., indent=...)``
    call: the name of the function whose result it dumps, or the source
    of any other argument."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    dumped = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps"
            and any(keyword.arg == "indent" for keyword in node.keywords)
        ):
            arg = node.args[0]
            if isinstance(arg, ast.Call):
                func = arg.func
                dumped.append(func.attr if isinstance(func, ast.Attribute) else ast.unparse(func))
            else:
                dumped.append(ast.unparse(arg))
    return dumped


def test_only_io_writes_tensor_documents():
    # io.format_document owns the file layout; elsewhere indented JSON is
    # only a report.
    modules = [path.stem for path in PACKAGE.glob("*.py") if path.stem != "io"]
    found = {m: indented_dumps(m) for m in modules}
    assert set().union(*found.values()) <= REPORTS
    assert set(found["cli"]) == REPORTS
