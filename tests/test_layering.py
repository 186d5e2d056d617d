"""Import layering of the package: `isometry` sits above `constructions`, so
constructions never imports from isometry; `loops` sits above `isometry`
and takes the G-loop verdict from its orbit walk, so the loop tables live
in `codes`; and no module defers an import into a function body to get
round a cycle. The size policy sits in one place: one budget instance,
whose points bound each verdict checks once, on entry. Only the modules
that compose checked isotopisms or read rows of them build one past the
constructor's check, every code is built by the checked constructor, and
only `codes` sorts arrays: it holds the one symmetry test. Only `isometry`
builds the witness arrays a certificate holds. An isotopism has
one representation, its rows: only `codes` reads the taus or picks their
dtype, and no call passes a knob that skips a check. A loop or field table
has one form too, a read-only int64 array: the formulas gather on it, with
no index lens module and no module of tuple permutations. So has a code: its
words are one sorted int64 array, and only `codes` and `isometry` read the
tuples of `words`."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topolinear"
MODULES = sorted(PACKAGE.glob("*.py"))


def relative_imports(node):
    """(module, names) of every `from .x import ...` below node."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.ImportFrom) and inner.level > 0:
            yield inner.module, [alias.name for alias in inner.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_relative_import(path):
    tree = ast.parse(path.read_text())
    deferred = [
        (fn.name, module)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for module, _names in relative_imports(fn)
    ]
    assert deferred == []


def test_constructions_imports_nothing_from_isometry():
    tree = ast.parse((PACKAGE / "constructions.py").read_text())
    for module, names in relative_imports(tree):
        assert module != "isometry" and not (module is None and "isometry" in names)


def test_loops_sits_above_isometry():
    for stem in ("codes", "constructions"):
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
        for module, names in relative_imports(tree):
            assert module != "loops" and not (module is None and "loops" in names)
    tree = ast.parse((PACKAGE / "loops.py").read_text())
    assert ("isometry", ["is_isotopically_transitive"]) in list(relative_imports(tree))


def own_calls(fn):
    """Calls in the body of fn, not in the functions nested in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def test_only_the_verdict_entries_check_the_points():
    callers, calls = [], 0
    for path in MODULES:
        tree = ast.parse(path.read_text())
        calls += sum(isinstance(node, ast.Attribute) and node.attr == "check_points"
                     for node in ast.walk(tree))
        callers += [(path.stem, fn.name)
                    for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for call in own_calls(fn)
                    if isinstance(call.func, ast.Attribute)
                    and call.func.attr == "check_points"]
    assert sorted(callers) == [("counting", "lower_bound_report"),
                               ("isometry", "equivalent_codes"),
                               ("isometry", "is_isotopically_transitive")]
    assert calls == len(callers)  # none passed around or called at module level


def test_budget_module_defines_one_budget_instance():
    tree = ast.parse((PACKAGE / "budget.py").read_text())
    instances = [target.id
                 for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
                 and isinstance(node.value, ast.Call)
                 and getattr(node.value.func, "id", None) == "SearchBudget"
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    assert instances == ["DEFAULT_BUDGET"]


def test_only_codes_and_isometry_build_isotopisms_unchecked():
    # `Isotopism._of` skips the check that every tau permutes one alphabet;
    # every code goes through the checked `MdsCode` constructor
    callers = {(path.stem, getattr(node.value, "id", None)) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_of"}
    assert callers == {("codes", "Isotopism"), ("isometry", "Isotopism")}


def test_only_isometry_builds_witnesses():
    # a `Witnesses` makes its views with `Isotopism._of`: only isometry builds
    # one, from a verdict's Schreier witnesses or a certificate file's
    # checked rows, which serialize hands it
    builders = {path.stem for path in MODULES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and "Witnesses" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))}
    assert builders == {"isometry"}


def test_only_codes_sorts_arrays():
    # `MdsCode.symmetries` compares sorted images with the code's words: the
    # one symmetry test, which a second np.sort elsewhere would duplicate;
    # the `MdsCode` constructor puts word arrays in word order with np.lexsort,
    # and the quasigroups' one Latin check sorts each axis of a table
    callers = {path.stem for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("sort", "lexsort")
               and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert callers == {"codes"}


def test_only_codes_reads_taus_or_picks_the_row_dtype():
    # `Isotopism.rows` is the one representation: the tuples of `taus` are
    # for readers outside the package, and `codes._row_dtype` fixes the dtype
    readers = {(path.stem, node.attr) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("taus", "min_scalar_type")}
    assert ("codes", "min_scalar_type") in readers
    assert {stem for stem, _ in readers} == {"codes"}


def test_no_call_passes_a_check_or_verify_knob():
    # every loop and quasigroup is checked by its constructor, and every
    # witness a verdict uses is checked by that verdict
    knobs = [(path.stem, keyword.arg) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
             for keyword in node.keywords if keyword.arg in ("check", "verify")]
    assert knobs == []


def test_no_module_imports_alphabet():
    # symbols are read off a table's index arrays; no lens module converts them
    assert not (PACKAGE / "alphabet.py").exists()
    for path in MODULES:
        for module, names in relative_imports(ast.parse(path.read_text())):
            assert module != "alphabet" and not (module is None and "alphabet" in names)


def test_no_module_imports_perms():
    # coordinate permutations are inverted and composed where isometry uses them
    assert not (PACKAGE / "perms.py").exists()
    for path in MODULES:
        for module, names in relative_imports(ast.parse(path.read_text())):
            assert module != "perms" and not (module is None and "perms" in names)


def test_only_codes_and_isometry_read_words():
    # the word array is a code's one form; the tuples of `words` are built on
    # first read, for words that leave as tuples: certificate keys, the base
    # and failing words of the orbit walk, and the pair `is_mds` names
    readers = {path.stem for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "words"}
    assert readers == {"codes", "isometry"}


def test_only_codes_and_fields_convert_a_table():
    # a loop's `table` and a field's add, mul and neg are read-only int64
    # arrays from their constructors: nothing converts them again
    converters = {path.stem for path in MODULES
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("array", "asarray")
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                  and any(isinstance(arg, ast.Attribute)
                          and arg.attr in ("table", "add", "mul", "neg", "mul_table")
                          for arg in node.args)}
    assert converters <= {"codes", "fields"}


def test_the_tuple_oracle_imports_nothing_from_the_package():
    # the oracle tests stay independent of the code paths they check
    tree = ast.parse((Path(__file__).parent / "tuple_reference.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not any(name.split(".")[0] == "topolinear" for name in imported)
