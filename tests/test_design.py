"""Design guards.  A family's description lives in families.py and
discrete.py: the other layers ask it for a classical type
(families.classical) or a system, and never dispatch on a family's name.
A cold command line run loads only what its subcommand uses: cli.py imports
the kernels, measures, moment diagnostics, lattice families, documents and
identity checks inside the subcommands, families.py, discrete.py, io.py and
kernels.py import the measures inside the functions that use them, no other
module imports the identity checks, and io.py needs the kernels for an
annotation only.  No module imports the
command line: its two errors live in errors.py, so `python -m orthopoly.cli`
catches the classes that the identity checks raise.  Every error the
package defines is an errors.NumericalFailure, which exits 1, except the two
configuration errors that exit 2.  No module imports
mpmath: the series sums of families.py and discrete.py run in exact integer
arithmetic, qseries.py evaluates the Askey-Wilson polynomials by their
three-term recurrence, and mpmath is a test dependency only.  What the
package keeps it keeps through recurrence._keep, under its one lock."""

import ast
from pathlib import Path

import pytest
from conftest import child_cli

import orthopoly
from orthopoly import families as F

NAME_FREE = ("cli.py", "identities.py", "io.py", "kernels.py", "measures.py",
             "momentprob.py", "recurrence.py")


def family_name_uses(source: str) -> list[int]:
    """Lines that compare something to a family name, also as a member of a
    literal tuple, list or set, or that key a literal dict by one."""
    def named(node) -> bool:
        items = (node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set))
                 else [node])
        return any(isinstance(e, ast.Constant) and e.value in F.PARAMETERS
                   for e in items)

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            hit = any(named(e) for e in (node.left, *node.comparators))
        elif isinstance(node, ast.Dict):
            hit = any(k is not None and named(k) for k in node.keys)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", NAME_FREE)
def test_layer_does_not_dispatch_on_family_names(module):
    path = Path(orthopoly.__file__).parent / module
    assert family_name_uses(path.read_text(encoding="utf-8")) == []


def test_guard_sees_comparisons_and_dict_keys():
    source = ('if spec.family == "laguerre": pass\n'
              'ok = f in ("krawtchouk", "x")\n'
              'which = {"hermite": 1}.get(f)\n'
              'fine = kind == F.LAGUERRE or f == "family"\n')
    assert family_name_uses(source) == [1, 2, 3]


def import_time_modules(source: str) -> set[str]:
    """The package modules a module imports while it is loaded: its package
    imports outside function bodies and `if TYPE_CHECKING:` blocks."""
    def walk(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.If)
                    and ast.unparse(node.test).endswith("TYPE_CHECKING")):
                yield from walk(node.orelse)
                continue
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # the package modules do only single-dot relative imports
                base = ".".join(filter(None, (
                    "orthopoly" if node.level else None, node.module)))
                names = ([f"{base}.{a.name}" for a in node.names]
                         if base == "orthopoly" else [base])
            yield from (name.split(".")[1] for name in names
                        if name.startswith("orthopoly."))
            yield from walk(ast.iter_child_nodes(node))

    return set(walk(ast.parse(source).body))


def _source(module: str) -> str:
    return (Path(orthopoly.__file__).parent / module).read_text(
        encoding="utf-8")


def test_cli_imports_only_the_modules_every_subcommand_needs():
    assert import_time_modules(_source("cli.py")) == {
        "errors", "families", "recurrence"}


def test_io_does_not_import_the_kernels():
    assert "kernels" not in import_time_modules(_source("io.py"))


@pytest.mark.parametrize("module", ("discrete.py", "families.py", "io.py",
                                    "kernels.py", "momentprob.py"))
def test_measures_load_only_with_the_functions_that_use_them(module):
    # tabulate, recurrence --family, check ode|shift and zeros --family|
    # --recurrence build no measure, so they do not load measures.py
    assert "measures" not in import_time_modules(_source(module))
    assert "orthopoly.measures" in imported_modules(_source(module))


def test_import_guard_skips_functions_and_type_checking_blocks():
    source = ("from . import families as F\n"
              "from .measures import Measure\n"
              "import orthopoly.qseries\n"
              "from orthopoly import discrete\n"
              "try:\n    from .io import SchemaError\nexcept ImportError:\n"
              "    pass\n"
              "if TYPE_CHECKING:\n    from .kernels import QuadratureRule\n"
              "def run():\n    from . import momentprob\n"
              "class Lazy:\n    def load(self):\n"
              "        from .recurrence import eval_all\n")
    assert import_time_modules(source) == {
        "families", "measures", "qseries", "discrete", "io"}


def imported_modules(source: str) -> set[str]:
    """Every module a source imports, also inside functions; a relative
    import of the package's own module m as orthopoly.m."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.update(f"orthopoly.{node.module or a.name}"
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(orthopoly.__file__).parent.glob("*.py")))
def test_series_modules_do_not_import_mpmath(module):
    assert not any(name.split(".")[0] == "mpmath"
                   for name in imported_modules(_source(module)))


def test_mpmath_guard_sees_imports_inside_functions():
    source = ("def f():\n    import mpmath.libmp\n    from mpmath import mpf\n"
              "    from . import identities\n    from .io import dump_rule\n")
    assert imported_modules(source) == {"mpmath.libmp", "mpmath",
                                        "orthopoly.identities", "orthopoly.io"}


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(orthopoly.__file__).parent.glob("*.py")
    if p.name not in ("cli.py", "identities.py")))
def test_only_check_loads_the_identity_checks(module):
    assert "orthopoly.identities" not in imported_modules(_source(module))


def test_check_offers_the_identities_of_the_battery():
    from orthopoly import cli, identities

    assert list(cli._CHECK_TOLS) == list(identities.IDENTITIES)


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(orthopoly.__file__).parent.glob("*.py")
    if p.name != "cli.py"))
def test_no_module_imports_the_command_line(module):
    assert "orthopoly.cli" not in imported_modules(_source(module))


def test_every_package_error_but_the_configuration_ones_is_numerical():
    from orthopoly.errors import ConfigError, NumericalFailure

    defined = {cls for name in orthopoly._SUBMODULES
               for cls in vars(getattr(orthopoly, name)).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == f"orthopoly.{name}"}
    exit_2 = {ConfigError, orthopoly.io.SchemaError}
    assert exit_2 < defined
    assert {cls for cls in defined if not issubclass(cls, NumericalFailure)} \
        == exit_2


@pytest.mark.parametrize("argv,code", [
    (("--family", "hermite", "--identity", "limit", "--n", "5"), 2),
    (("--family", "hermite", "--identity", "ode", "--n", "340"), 1)],
    ids=["refused", "failed"])
def test_check_run_as_a_module_exits_with_one_stderr_line(argv, code):
    # as __main__, cli.py is a second copy of the module: its except
    # clauses must name the classes the identity checks raise
    proc = child_cli("check", *argv, module=True)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("orthopoly: "), lines


# The eigensolves and the weight pass of the kernels run in one place,
# kernels._spectrum, which keeps their results per system and order.
SPECTRAL_SOLVERS = ("_eigenvalues", "_golub_welsch",
                    "_christoffel_denominators")


def solver_uses(source: str) -> list[tuple[str, str]]:
    """(outermost enclosing function, or "<module>"; name) for every
    reference to a spectral solver, called or not, also as an attribute."""
    uses = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and owner == "<module>"):
                inner = child.name
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name in SPECTRAL_SOLVERS:
                uses.append((owner, name))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return uses


def test_only_the_spectral_store_runs_the_solvers():
    owners = {owner for p in Path(orthopoly.__file__).parent.glob("*.py")
              for owner, _ in solver_uses(p.read_text(encoding="utf-8"))}
    assert owners == {"_spectrum"}


def test_solver_guard_sees_calls_references_and_nesting():
    source = ("def _spectrum(d, e):\n    return _eigenvalues(d, e)\n"
              "def zeros(s):\n    def inner():\n"
              "        return K._golub_welsch(1, 2)\n    return inner\n"
              "solve = _christoffel_denominators\n"
              "class Rule:\n    def nodes(self):\n"
              "        return _eigenvalues(0, 0)\n")
    assert solver_uses(source) == [
        ("_spectrum", "_eigenvalues"), ("zeros", "_golub_welsch"),
        ("<module>", "_christoffel_denominators"), ("nodes", "_eigenvalues")]


# What the package keeps, it keeps through recurrence._keep, the one
# least-recently-used store, under recurrence._PUBLISH, the one lock.
STORE_MAKERS = ("Lock", "RLock", "OrderedDict")


def store_makers(source: str) -> list[tuple[int, str]]:
    """(line, name) for every reference to a lock or an OrderedDict, also
    as an attribute or an imported name."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            uses += [(node.lineno, a.name.rsplit(".", 1)[-1])
                     for a in node.names]
            continue
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        uses.append((getattr(node, "lineno", 0), name))
    return sorted(u for u in uses if u[1] in STORE_MAKERS)


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(orthopoly.__file__).parent.glob("*.py")
    if p.name != "recurrence.py"))
def test_only_the_keeper_makes_a_store_or_a_lock(module):
    assert store_makers(_source(module)) == []


def test_store_guard_sees_locks_and_ordered_dicts():
    source = ("import threading\nfrom collections import OrderedDict\n"
              "lock = threading.Lock()\nagain = threading.RLock()\n"
              "def f():\n    from threading import Lock\n"
              "    return collections.OrderedDict(), OrderedDict\n"
              "kept: dict = {}\n")
    assert store_makers(source) == [
        (2, "OrderedDict"), (3, "Lock"), (4, "RLock"), (6, "Lock"),
        (7, "OrderedDict"), (7, "OrderedDict")]
    assert store_makers(_source("recurrence.py")) != []


# A record with no invariant and no cache is a typing.NamedTuple, which a
# cold process creates faster than a dataclass; a dataclass checks its
# fields in __post_init__ or keeps a _cache.
def plain_dataclasses(source: str) -> list[str]:
    """The classes decorated with dataclass, called or not, that define no
    __post_init__ and no _cache field."""
    def dataclass_decorator(node) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return (node.id if isinstance(node, ast.Name) else
                getattr(node, "attr", None)) == "dataclass"

    plain = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef)
                and any(map(dataclass_decorator, node.decorator_list))):
            continue
        members = {item.name if isinstance(item, ast.FunctionDef) else
                   getattr(item.target, "id", None)
                   for item in node.body
                   if isinstance(item, (ast.FunctionDef, ast.AnnAssign))}
        if not members & {"__post_init__", "_cache"}:
            plain.append(node.name)
    return plain


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(orthopoly.__file__).parent.glob("*.py")))
def test_every_dataclass_checks_its_fields_or_keeps_a_cache(module):
    assert plain_dataclasses(_source(module)) == []


def test_dataclass_guard_sees_decorators_post_init_and_caches():
    source = ("@dataclass(frozen=True)\nclass Report:\n    x: float\n"
              "@dataclasses.dataclass\nclass Plain:\n    y: int = 0\n"
              "@dataclass\nclass Checked:\n    x: float\n"
              "    def __post_init__(self):\n        pass\n"
              "@dataclass(frozen=True)\nclass Kept:\n"
              "    _cache: dict = field(default_factory=dict)\n"
              "class Record(NamedTuple):\n    x: float\n")
    assert plain_dataclasses(source) == ["Report", "Plain"]
