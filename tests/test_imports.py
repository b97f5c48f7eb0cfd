"""Every module-level import in the package is used, every public name has
a caller, no module reaches the names kept only for the benchmark, no module
reads the process environment, only the front ends import the flag parser,
no record is a `typing.NamedTuple`, no module builds code from source,
`import lcgspec.cli` loads a pinned set of modules, `argparse` loads only
with help or a usage error, and `fractions` loads only with the first
rational.

Stdlib `ast` scans: a name bound by a top-level `import` or `from ... import`
must be read somewhere in the module, or be listed in its `__all__`; a public
function, class or method must be read somewhere outside the tests; and no
module touches `os.environ`, `os.getenv`, `os.putenv` or their kin, so every
setting arrives as a flag or an argument.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcgspec"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_unused_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .errors import A, B as C, D\n"
        "__all__ = ['D']\n"
        "def f():\n"
        "    return json.dumps(A)\n"
    )
    assert unused_imports(source) == ["C (line 3)", "os (line 2)"]


def names_read(source: str, strings: bool = False) -> set[str]:
    """Every name `source` reads, as a variable or an attribute, and with
    `strings` every word of its string constants too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
    return found


def public_names_without_caller(modules: dict[str, str], read: set[str]) -> list[str]:
    """Each public module-level function or class of `modules` (name ->
    source), and each public method of such a class, whose name neither a
    module other than `__init__` reads nor `read` holds."""
    for name, source in modules.items():
        if name != "__init__":
            read = read | names_read(source)
    missing = []
    for name, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub.name) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
            missing += [f"{name}.{qual}" for qual, short in defs
                        if not short.startswith("_") and short not in read]
    return sorted(missing)


def test_every_public_name_has_a_caller():
    # a reader outside the tests: the package itself (not `__init__`'s
    # re-exports), the README, or the benchmark, whose tracer names the
    # functions it wraps in strings
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in (ROOT / "bench").rglob("*.py"):
        read |= names_read(path.read_text(encoding="utf-8"), strings=True)
    assert public_names_without_caller(modules, read) == []


def test_caller_scan_flags_each_kind():
    modules = {
        "__init__": "from .a import dead, K\n__all__ = ['dead', 'K']\n",
        "a": (
            "def dead():\n"
            "    'K.unused is named here, in a docstring'\n"
            "def alive():\n"
            "    return K().used()\n"
            "def documented():\n"
            "    pass\n"
            "class K:\n"
            "    def used(self):\n"
            "        return alive()\n"
            "    def unused(self):\n"
            "        pass\n"
            "    def _private(self):\n"
            "        pass\n"
            "class Dead:\n"
            "    pass\n"
        ),
    }
    assert public_names_without_caller(modules, {"documented"}) == [
        "a.Dead", "a.K.unused", "a.dead",
    ]


# names kept only because the benchmark tracer wraps them, by defining module
BENCHMARK_ONLY = {"factorize": "numtheory", "build_single_dimension": "builder"}


def benchmark_only_uses(modules: dict[str, str]) -> list[str]:
    """Each module of `modules` (name -> source) but `__init__`, which
    re-exports them, that reads or imports a name of BENCHMARK_ONLY defined
    in another module."""
    found = []
    for name, source in modules.items():
        if name == "__init__":
            continue
        used = names_read(source) | {alias.name for node in ast.walk(ast.parse(source))
                                     if isinstance(node, ast.ImportFrom) for alias in node.names}
        found += [f"{name}.{kept}" for kept, home in BENCHMARK_ONLY.items()
                  if kept in used and name != home]
    return sorted(found)


def test_only_the_benchmark_reaches_its_kept_names():
    # so dropping them from the tracer leaves their deletion a pure deletion
    modules = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert benchmark_only_uses(modules) == []


def test_benchmark_only_scan_flags_each_kind():
    modules = {
        "__init__": "from .builder import build_single_dimension\n",
        "builder": "def build_single_dimension():\n    return factorize\n",
        "numtheory": "def factorize():\n    'build_single_dimension, in a docstring'\n",
        "cli": "from .numtheory import factorize as f\nx = builder.build_single_dimension\n",
    }
    assert benchmark_only_uses(modules) == [
        "builder.factorize", "cli.build_single_dimension", "cli.factorize",
    ]


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def imported_name_uses(source: str, module: str, names: set[str]) -> list[str]:
    """Each use in `source` of one of `names` from `module`: as an attribute
    of the module (under any name it is imported as), or imported from it by
    name."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == module}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr} (line {node.lineno})"))
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            found += [(node.lineno, f"{alias.name} (line {node.lineno})")
                      for alias in node.names if alias.name in names]
    return [text for _, text in sorted(found)]


def environment_access(source: str) -> list[str]:
    """Each use in `source` of the process environment through `os`."""
    return imported_name_uses(source, "os", ENVIRONMENT)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_access(path):
    assert environment_access(path.read_text(encoding="utf-8")) == []


def test_environment_scan_flags_each_kind():
    source = (
        "import os\n"
        "import os as system, json\n"
        "from os import environ, getenv as ge, path\n"
        "x = os.environ.get('A')\n"
        "y = os.getenv('B')\n"
        "os.putenv('C', '1')\n"
        "z = system.environ['D']\n"
        "w = os.path.join('a', 'b') + json.environ  # os.environ\n"
    )
    assert environment_access(source) == [
        "environ (line 3)", "getenv (line 3)", "os.environ (line 4)", "os.getenv (line 5)",
        "os.putenv (line 6)", "system.environ (line 7)",
    ]


def parser_imports(source: str) -> list[int]:
    """The line of each import in `source` that names the module `exprparse`,
    at any depth and in any form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{alias.name}"
                                           for alias in node.names]
        else:
            continue
        if any("exprparse" in name.split(".") for name in names):
            found.append(node.lineno)
    return sorted(found)


# the modules that read flags, and `__init__`, which re-exports the readers;
# the rest of the package asks `errors` whether a number prints
PARSER_READERS = {"cli", "scorecard", "__init__"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.stem not in PARSER_READERS), ids=lambda p: p.name)
def test_only_the_front_ends_import_the_flag_parser(path):
    assert parser_imports(path.read_text(encoding="utf-8")) == []


def test_parser_import_scan_flags_each_kind():
    source = (
        "from .exprparse import parse_int_expr\n"
        "from . import errors, exprparse\n"
        "import lcgspec.exprparse as ep\n"
        "from lcgspec import exprparse\n"
        "from .errors import shown  # exprparse\n"
        "import exprparser\n"
        "def f():\n"
        "    from lcgspec.exprparse import parse_endpoint\n"
    )
    assert parser_imports(source) == [1, 2, 3, 4, 8]


def bare_python(code: str, *args: str) -> str:
    """The output of `code` in a fresh `python -I -S`, its sys.argv[1] the
    package's parent directory and `args` after it.  With no `site`, no
    `.pth` file preloads a module, so what the code imports shows in full."""
    return subprocess.run([sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent), *args],
                          check=True, capture_output=True, text=True).stdout


# what `import lcgspec.cli` adds to a bare `python -I -S`: the stdlib by
# top-level name (as of 3.11; a version may load fewer), the package in full.
# CLI_ABSENT never loads: `json` (no command reads JSON), `typing`, `argparse`
# and its `gettext` (only help and usage errors build the parser), and what a
# `namedtuple` record or a regular expression would bring.
CLI_STDLIB = {"__future__", "_collections", "_collections_abc", "_json", "_stat", "genericpath",
              "math", "os", "posixpath", "stat"}
CLI_ABSENT = {"json", "typing", "argparse", "gettext", "re", "enum", "collections", "functools",
              "contextlib", "types", "operator"}
CLI_PACKAGE = {"lcgspec", "lcgspec._chunks", "lcgspec.builder", "lcgspec.cli",
               "lcgspec.empirical", "lcgspec.errors", "lcgspec.exprparse", "lcgspec.lattice",
               "lcgspec.lcg", "lcgspec.numtheory", "lcgspec.spectral"}


def test_cli_import_builds_no_parser_and_loads_nothing_new():
    # the import declares the flag table but builds no argparse parser, and
    # the modules it loads are pinned: start-up time follows them
    code = ("import sys; base = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import lcgspec.cli as cli; "
            "print(len(cli._PARSER), *cli._COMMANDS); "
            "print(' '.join(sorted(set(sys.modules) - base)))")
    built, loaded = bare_python(code).splitlines()
    assert built == "0 analyze build uniformity dump svp verify-paper"
    package = {m for m in loaded.split() if m.split(".")[0] == "lcgspec"}
    assert package == CLI_PACKAGE
    stdlib = {m.split(".")[0] for m in loaded.split()} - {"lcgspec"}
    assert stdlib <= CLI_STDLIB
    assert not stdlib & CLI_ABSENT


def test_cli_import_skips_dataclasses_and_inspect():
    # both cost more than the rest of the package's import; a fresh
    # interpreter shows what `import lcgspec.cli` really loads
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lcgspec.cli; "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert bare_python(code) == "False False\n"


# each runs in order in one interpreter, which must not load `json`
JSON_ANSWERS = ["analyze --a 26 --N 625 --s 2..4 --format json",
                "build --tau 3 --a 26 --validate 3 --format json",
                "uniformity --a 26 --N 625 --interval 0:1/2 --format json",
                "svp --a 26 --N 625 --s 3 --format json", "dump --a 26 --N 625 --count 5"]


def test_no_command_loads_json():
    # the CLI writes JSON without `json` and reads none
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); from lcgspec.cli import main; "
            "[print(main(argv.split(), io.StringIO()), 'json' in sys.modules) "
            "for argv in sys.argv[2:]]")
    assert bare_python(code, *JSON_ANSWERS).splitlines() == ["0 False"] * len(JSON_ANSWERS)


def test_only_help_or_a_usage_error_loads_argparse():
    # each request that parses is read from the flag table; the first usage
    # error builds the argparse parser, whose message is the golden one
    argvs = [*JSON_ANSWERS, "analyze --a 69069 --N 2^32 --s 2..4", "svp --a 5 --N 16"]
    code = ("import contextlib, io, os, sys; sys.path.insert(0, sys.argv[1]); "
            "os.environ['COLUMNS'] = '80'; from lcgspec.cli import main; err = io.StringIO()\n"
            "for argv in sys.argv[2:]:\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        code = main(argv.split(), io.StringIO())\n"
            "    print(code, 'argparse' in sys.modules, 'gettext' in sys.modules)\n"
            "print(err.getvalue(), end='')")
    lines = bare_python(code, *argvs).splitlines(keepends=True)
    runs, usage = lines[:len(argvs)], "".join(lines[len(argvs):])
    assert runs == ["0 False False\n"] * (len(argvs) - 1) + ["2 True True\n"]
    assert usage == (ROOT / "tests" / "golden" / "usage_svp_without_s.err").read_text()


RATIONAL_MODULES = ("fractions", "decimal", "numbers")
# each runs in order in one interpreter, which must not load `fractions`
WITHOUT_FRACTIONS = ["analyze --a 69069 --N 2^32 --s 2..8 --format json",
                     "build --tau 6 --a 69069 --validate 8 --format json",
                     "svp --a 26 --N 625 --s 3", "dump --a 26 --N 625 --count 5"]


def loads_after(argvs: list[str]) -> list[str]:
    """For a fresh interpreter that imports `lcgspec` and `lcgspec.cli`,
    then runs `main` on each of `argvs` in turn: which of RATIONAL_MODULES
    the imports load, then for each run its exit code and whether
    `fractions` is loaded after it."""
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import lcgspec, lcgspec.cli; "
            f"print(*(m in sys.modules for m in {RATIONAL_MODULES!r})); "
            "[print(lcgspec.cli.main(argv.split(), io.StringIO()), 'fractions' in sys.modules) "
            "for argv in sys.argv[2:]]")
    return bare_python(code, *argvs).splitlines()


def test_fractions_load_only_with_a_rational():
    # `fractions` brings `decimal` and `numbers` with it; a query with no
    # rational in it pays for none of them
    assert loads_after(WITHOUT_FRACTIONS) == ["False False False"] + ["0 False"] * 4


@pytest.mark.parametrize("argv", ["uniformity --a 26 --N 625 --interval 1/pi^2:1-1/e",
                                  "analyze --a 13 --N 16 --s 2..4"])  # theorem 3, lambda = 4
def test_an_endpoint_or_a_rational_bound_loads_fractions(argv):
    assert loads_after([argv]) == ["False False False", "0 True"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT / "src")))
def test_records_are_plain_namedtuple_subclasses(path):
    # a typing.NamedTuple compiles a ForwardRef per annotated field at import
    assert imported_name_uses(path.read_text(encoding="utf-8"), "typing", {"NamedTuple"}) == []


def test_named_tuple_scan_flags_each_kind():
    source = (
        "import typing\n"
        "import typing as t, collections\n"
        "from typing import IO, NamedTuple as NT\n"
        "class A(typing.NamedTuple):\n"
        "    x: int\n"
        "B = t.NamedTuple('B', [('x', int)])\n"
        "class C(collections.namedtuple('C', 'x')):  # typing.NamedTuple\n"
        "    __slots__ = ()\n"
    )
    assert imported_name_uses(source, "typing", {"NamedTuple"}) == [
        "NamedTuple (line 3)", "typing.NamedTuple (line 4)", "t.NamedTuple (line 6)",
    ]


# the calls that build code or a pattern from source text at run time
FROM_SOURCE = {"namedtuple", "eval", "exec"}


def built_from_source(source: str) -> list[str]:
    """Each call in `source` of `namedtuple`, `eval` or `exec`, bare or as
    an attribute, and of `re.compile`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name == "re.compile" or name.rpartition(".")[2] in FROM_SOURCE:
                found.append((node.lineno, f"{name} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT / "src")))
def test_nothing_is_built_from_source(path):
    # a record is an `errors.Record` and the flag scanner reads by hand, so
    # start-up compiles no code and no pattern
    assert built_from_source(path.read_text(encoding="utf-8")) == []


def test_source_scan_flags_each_kind():
    source = (
        "import collections, re\n"
        "from collections import namedtuple\n"
        "A = namedtuple('A', 'x')\n"
        "class B(collections.namedtuple('B', 'y')):\n"
        "    pass\n"
        "T = re.compile(r'\\d+')\n"
        "x = eval('1 + 1') + builtins.eval('2')\n"
        "exec('y = 1')\n"
        "ok = compile('1', 'f', 'eval') or re.match('a', 'a')  # re.compile(\n"
    )
    assert built_from_source(source) == [
        "namedtuple (line 3)", "collections.namedtuple (line 4)", "re.compile (line 6)",
        "builtins.eval (line 7)", "eval (line 7)", "exec (line 8)",
    ]


def non_integer_arithmetic(source: str) -> list[str]:
    """What in `source` could bring a float or a rational into integer code:
    an import of fractions or decimal, a float or complex literal, the names
    float, Fraction and round, and true division."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r} (line {node.lineno})"))
            continue
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, f"true division (line {node.lineno})"))
            continue
        else:
            continue
        found += [(node.lineno, f"{name} (line {node.lineno})") for name in names
                  if name.split(".")[0] in {"fractions", "decimal", "float", "Fraction", "round"}]
    return [text for _, text in sorted(found)]


def test_lattice_module_is_integer_only():
    # the solver decides every answer in integers: no floating point and no
    # Fraction anywhere in the search
    assert non_integer_arithmetic((PACKAGE / "lattice.py").read_text(encoding="utf-8")) == []


# the functions that decide a bound or print one, by module
BOUND_FUNCTIONS = {
    "spectral.py": {"_iroot", "_packing_cap_text", "within_packing_bound", "check_bounds"},
    "scorecard.py": {"_c2"},
}


@pytest.mark.parametrize("module", sorted(BOUND_FUNCTIONS))
def test_bound_functions_are_integer_only(module):
    # each named function is found, so a rename cannot skip the scan
    source = (PACKAGE / module).read_text(encoding="utf-8")
    found = {node.name: ast.get_source_segment(source, node) for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name in BOUND_FUNCTIONS[module]}
    assert sorted(found) == sorted(BOUND_FUNCTIONS[module])
    assert {name: non_integer_arithmetic(text) for name, text in found.items()} == dict.fromkeys(
        found, [])


def test_integer_scan_flags_each_kind():
    source = (
        "import fractions\n"
        "from decimal import Decimal\n"
        "x = 0.5\n"
        "y = float(3) + round(x)\n"
        "z = fractions.Fraction(1, 2)\n"
        "w = 1 / 2\n"
        "w /= 2\n"
        "ok = 7 // 2 + divmod(7, 2)[0]  # float\n"
    )
    assert non_integer_arithmetic(source) == [
        "fractions (line 1)", "decimal (line 2)", "literal 0.5 (line 3)",
        "float (line 4)", "round (line 4)", "Fraction (line 5)", "fractions (line 5)",
        "true division (line 6)", "true division (line 7)",
    ]
