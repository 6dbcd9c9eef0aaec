"""Source-level guards: no private cross-module imports, no duplicated function bodies,
no defaulted parameter that no call sets, no BLAS-backed call, no ladder passed around,
no report type besides ``RatioReport``, no field layout besides the half spectrum, no
unused import, no exported function or public method that only tests call, and a
package root that lists its modules."""

import ast
import inspect
from collections import defaultdict
from pathlib import Path

import besovlab
from besovlab.interpolation import PeriodicSampler

SOURCES = sorted(Path(besovlab.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(besovlab.__file__).parents[2] / "perfbench").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _body_without_docstring(node) -> list:
    body = node.body
    if ast.get_docstring(node, clean=False) is not None:
        body = body[1:]
    return body


def test_sources_found():
    assert len(SOURCES) >= 10


def test_package_root_lists_its_modules():
    """The package root exports its version and its modules, and no name of theirs."""
    modules = {path.stem for path in SOURCES if not path.stem.startswith("__")}
    assert set(besovlab.__all__) == {"__version__"} | modules
    assert len(besovlab.__all__) == len(set(besovlab.__all__))
    assert all(inspect.ismodule(getattr(besovlab, name)) for name in modules)


def test_no_private_names_imported_from_sibling_modules():
    offences = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("besovlab"):
                continue
            offences += [f"{path.name}: {alias.name}" for alias in node.names if _is_private(alias.name)]
    assert offences == []


def test_no_two_functions_share_a_body():
    bodies = defaultdict(list)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = _body_without_docstring(node)
            if len(body) >= 2:
                key = "\n".join(ast.dump(stmt) for stmt in body)
                bodies[key].append(f"{path.name}:{node.lineno} {node.name}")
    duplicates = [names for names in bodies.values() if len(names) > 1]
    assert duplicates == []


def _called_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _defaulted_parameters(tree):
    """(name a call uses, parameter, its position at such a call or None) per defaulted parameter.

    A method's position skips ``self``/``cls``; ``__init__`` is called by its class name.
    """
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = int(isinstance(parent, ast.ClassDef) and not static)
            name = parent.name if bound and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield name, arg.arg, i - bound
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_parameter_has_a_caller():
    """An option that no call in the package or its tests sets is a constant, not an option."""
    calls = defaultdict(list)
    for path in SOURCES + TESTS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                calls[_called_name(node.func)].append(node)
    unused = [
        f"{path.name}: {name}({param})"
        for path in SOURCES
        for name, param, position in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if not any(_passes(call, param, position) for call in calls[name])
    ]
    assert unused == []


# NumPy routes these calls, ``@`` and np.linalg.norm through BLAS, whose second
# thread then spins beside the solver; the package uses plain sums instead.
BLAS_CALLS = {"dot", "vdot", "matmul"}


def blas_uses(source: str) -> list[str]:
    """Line and form of each ``@`` and each call of a BLAS-backed NumPy routine."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if node.func.attr in BLAS_CALLS or name.endswith("linalg.norm"):
                found.append(f"{node.lineno}: {name}")
    return found


def test_no_blas_calls_in_the_package():
    offences = [f"{path.name}:{use}" for path in SOURCES for use in blas_uses(path.read_text(encoding="utf-8"))]
    assert offences == []


def ladder_parameters(source: str) -> list[str]:
    """Line, function and parameter of each parameter named ``ladder`` or annotated ``DyadicLadder``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            annotation = ast.unparse(arg.annotation) if arg.annotation is not None else ""
            if arg.arg == "ladder" or "DyadicLadder" in annotation:
                found.append(f"{node.lineno}: {node.name}({arg.arg})")
    return found


def test_only_dyadic_takes_a_ladder():
    """The ladder is a function of the grid: code outside ``dyadic`` takes it from its field's grid."""
    offences = [
        f"{path.name}:{use}"
        for path in SOURCES
        if path.name != "dyadic.py"
        for use in ladder_parameters(path.read_text(encoding="utf-8"))
    ]
    assert offences == []


def test_ladder_guard_sees_each_form():
    source = (
        "def f(u, ladder): pass\n"
        "def g(u, *, ladder=None): pass\n"
        "def h(u, lad: DyadicLadder | None = None): pass\n"
        "class A:\n    def __init__(self, spec, steps: 'DyadicLadder'): pass\n"
        "def k(u, grid: Grid): pass\n"
    )
    assert ladder_parameters(source) == ["1: f(ladder)", "2: g(ladder)", "3: h(lad)", "5: __init__(steps)"]


def test_blas_guard_sees_each_form():
    source = "a @ b\nc @= d\nnp.vdot(u, v)\nnp.dot(u, v)\nx.dot(y)\nnp.linalg.norm(m)\nnp.sum(m * m)\n"
    assert sorted(blas_uses(source)) == ["1: @", "2: @", "3: np.vdot", "4: np.dot", "5: x.dot", "6: np.linalg.norm"]


# Fields are real and stored as rfft2 half spectra; a full complex 2-D
# transform or a ``real=`` flag would bring back a second layout.
FULL_COMPLEX_TRANSFORMS = {"fft2", "ifft2", "fftn", "ifftn"}


def second_layout_uses(source: str) -> list[str]:
    """Line and form of each full complex 2-D transform call and each ``real=`` keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if _called_name(node.func) in FULL_COMPLEX_TRANSFORMS:
            found.append(f"{node.lineno}: {ast.unparse(node.func)}")
        found += [f"{node.lineno}: real=" for keyword in node.keywords if keyword.arg == "real"]
    return found


def test_one_field_layout():
    offences = [
        f"{path.name}:{use}" for path in SOURCES for use in second_layout_uses(path.read_text(encoding="utf-8"))
    ]
    assert offences == []


def test_layout_guard_sees_each_form():
    source = (
        "np.fft.fft2(v)\n"
        "np.fft.ifft2(m).real\n"
        "fftn(v)\n"
        "numpy.fft.ifftn(m)\n"
        "SpectralField(grid, m, real=False)\n"
        "f.with_modes(m, real=True)\n"
        "np.fft.rfft2(v)\n"
        "np.fft.irfft2(m, s=(n, n))\n"
        "np.fft.fft(q, axis=0)\n"
    )
    assert sorted(second_layout_uses(source)) == [
        "1: np.fft.fft2", "2: np.fft.ifft2", "3: fftn", "4: numpy.fft.ifftn", "5: real=", "6: real=",
    ]


def report_classes(source: str) -> list[str]:
    """Line and name of each class whose name ends in ``Report``, other than ``RatioReport``."""
    return [
        f"{node.lineno}: {node.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Report") and node.name != "RatioReport"
    ]


def test_one_report_type():
    """Every measured-ratio check reports through ``inequality_lab.RatioReport``."""
    offences = [f"{path.name}:{use}" for path in SOURCES for use in report_classes(path.read_text(encoding="utf-8"))]
    assert offences == []


def test_report_guard_sees_each_form():
    source = (
        "class RatioReport: pass\n"
        "class StepReport: pass\n"
        "@dataclass(frozen=True)\nclass Report(Base): pass\n"
        "class Reporter: pass\n"
        "def f():\n    class LocalReport: pass\n"
    )
    assert report_classes(source) == ["2: StepReport", "4: Report", "7: LocalReport"]


def test_sampler_keeps_the_traced_entry_points():
    """The benchmark's tracer wraps these by name on the class: ``at`` and the two classmethod builders."""
    attrs = PeriodicSampler.__dict__
    assert callable(attrs.get("at"))
    assert isinstance(attrs.get("of_scalar"), classmethod)
    assert isinstance(attrs.get("of_vector"), classmethod)


def unused_imports(source: str) -> list[str]:
    """Line and bound name of each import that the module never reads or lists in ``__all__``.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for line, name in bound if name not in read]


def test_no_unused_imports():
    offences = [
        f"{path.name}:{use}" for path in SOURCES + TESTS for use in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offences == []


def test_import_guard_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import pi, tau as turn\n"
        "from .spectral import Grid\n"
        "from . import dyadic\n"
        "__all__ = ['dyadic']\n"
        "def f():\n    import json\n    return pi * np.ones(2)\n"
        "x: Grid\n"
    )
    assert unused_imports(source) == ["2: os", "4: os", "5: turn", "10: json"]


# Paper identities that no library code calls, kept as the oracles of their tests,
# and reference implementations that tests compare the library's results against.
TEST_ORACLES = {
    "para_T_conj", "transport_commutator", "jacobian_series",
    "refine", "residual", "DyadicLadder.reconstruct",
}


def _exports(tree) -> list[tuple[str, ast.AST]]:
    """(name, definition) of each function in ``__all__``, and of each public method of a class in it."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            found += [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def _reads(tree, own: str, modules: set[str]) -> list[tuple[tuple, int]]:
    """(key, node id) of each read in the module ``own``, from one walk of its tree.

    Every attribute load reads ``(None, attr)``.  A name loaded in ``own``, or
    imported there from ``module``, reads ``(own or module, name)``, and so does
    an attribute whose owner's last segment names a module (``spectral.x``,
    ``bl.lagrangian.x``).
    """
    names, reads, imported = [], [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.append(((None, node.attr), id(node)))
            owner = node.value.attr if isinstance(node.value, ast.Attribute) else getattr(node.value, "id", None)
            if owner in modules:
                reads.append(((owner, node.attr), id(node)))
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.split(".")[-1]
            imported.update({alias.asname or alias.name: (source, alias.name) for alias in node.names})
    return reads + [(imported.get(n.id, (own, n.id)), id(n)) for n in names]


def unreferenced_exports(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module: name`` of each function in a module's ``__all__``, and ``module: Class.method`` of
    each public method of a class in it, that no code outside its own body reads.

    Code is every module and every one of ``readers``.  A function is read by
    name in its own module or in one that imports it from there, or as an
    attribute of its module; an import alone is not a read.  A method is read
    as an attribute of anything.
    """
    trees = {name.removesuffix(".py"): ast.parse(source) for name, source in modules.items()}
    code = [*trees.items(), *(("", ast.parse(source)) for source in readers)]
    read = defaultdict(set)  # (module or None, name) -> ids of the nodes that read it
    for own, tree in code:
        for key, node in _reads(tree, own, set(trees)):
            read[key].add(node)
    found = []
    for module, tree in trees.items():
        for name, definition in _exports(tree):
            key = (None, name.split(".")[1]) if "." in name else (module, name)
            if not read[key] - {id(n) for n in ast.walk(definition)}:
                found.append(f"{module}.py: {name}")
    return found


def test_every_exported_function_has_a_caller_outside_the_tests():
    """A library function or public method that only tests call is dead code, unless it is kept as a test oracle."""
    assert len(BENCHMARK) >= 3
    modules = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    readers = [path.read_text(encoding="utf-8") for path in BENCHMARK]
    offences = [use for use in unreferenced_exports(modules, readers) if use.split(": ")[1] not in TEST_ORACLES]
    assert offences == []


def test_export_guard_sees_each_form():
    modules = {
        "a.py": (
            "__all__ = ['used', 'recursive', 'imported', 'by_attribute', 'by_chain', 'by_reader',"
            " 'by_other_owner', 'Kept', 'CONST']\n"
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def imported(): pass\n"
            "def by_attribute(): pass\n"
            "def by_chain(): pass\n"
            "def by_reader(): pass\n"
            "def by_other_owner(): pass\n"
            "def private(): pass\n"
            "class Kept:\n"
            "    def called(self): return self.helper()\n"
            "    def helper(self): pass\n"
            "    def recursive_method(self): return self.recursive_method()\n"
            "    def only_tests(self): pass\n"
            "    def _private(self): pass\n"
            "class Hidden:\n"
            "    def unread(self): pass\n"
            "CONST = 1\n"
        ),
        "b.py": (
            "from .a import imported, used\nimport a\n"
            "used()\na.by_attribute()\nbl.a.by_chain()\nargs.by_other_owner\nk.called()\n"
        ),
    }
    assert unreferenced_exports(modules, ["x.a.by_reader()"]) == [
        "a.py: recursive", "a.py: imported", "a.py: by_other_owner",
        "a.py: Kept.recursive_method", "a.py: Kept.only_tests",
    ]
