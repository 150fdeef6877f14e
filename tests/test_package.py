"""Package hygiene: every definition in `phaseatlas` is used by the package itself."""

import ast
from collections import Counter
from pathlib import Path

import phaseatlas

# definitions that no package code references, each with the reason it stays
UNREFERENCED_ALLOWED = {
    "StationaryCircle.contains": "test_equilibria.py asserts through it",
    "SprottField.original": "test_desing.py checks the multiplied field against it",
    "SprottField.jacobian_original": "acceptance criterion 9 linearizes the original system with it",
    "PolyField.shifted": "tests move stationary points to the origin with it",
    "BlowupChart.substitution_jacobian": "the chart-identity tests check each chart against it",
    "SingularEvaluationError": "tests/oracles.py raises it",
    "InfinitePoint.transverse_eigenvalue": "test_compact.py asserts through it",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(phaseatlas.__file__).parent.glob("*.py"))}


def _definitions(tree):
    """Qualified name, name and node of the module-level functions and classes, and of the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield f"{node.name}.{member.name}", member.name, member


def _references(node):
    """Every name that code under node reads as a name, an attribute or an import, once per reading."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in sub.names)


def test_every_definition_is_used_by_the_package():
    modules = _modules()
    referenced = Counter(name for tree in modules.values() for name in _references(tree))
    # a definition that only its own body reads (a recursion, a self-call) is unreferenced
    unreferenced = {qualname: module for module, tree in modules.items()
                    for qualname, name, node in _definitions(tree)
                    if referenced[name] == sum(ref == name for ref in _references(node))}
    stray = sorted(f"{module}.{qualname}" for qualname, module in unreferenced.items()
                   if qualname not in UNREFERENCED_ALLOWED)
    assert not stray, f"only tests reach these; move them to tests/oracles.py or delete them: {stray}"
    # an allowlisted name that the package now uses, or that is gone, leaves the list
    assert set(unreferenced) == set(UNREFERENCED_ALLOWED)


def test_the_analysis_sequence_has_one_reader():
    # a second copy of "finite points, origin sectors, points at infinity" would read these again
    steps = ("find_stationary", "classify_nilpotent_origin", "infinite_stationary_points")
    readers = {step: sorted(f"{module}.{qualname}" for module, tree in _modules().items()
                            for qualname, _, node in _definitions(tree)
                            if "." not in qualname and step in _references(node))
               for step in steps}
    assert readers == dict.fromkeys(steps, ["atlas.FieldAnalysis"])


def test_the_divisor_scan_has_one_caller():
    # each blow-up chart is scanned once, into the record, and every reader takes the record
    callers = sorted(f"{module}.{getattr(top, 'name', '<module>')}" for module, tree in _modules().items()
                     for top in tree.body for call in ast.walk(top) if isinstance(call, ast.Call)
                     and "divisor_stationary_points" in (getattr(call.func, "id", None), getattr(call.func, "attr", None)))
    assert callers == ["blowup.blowup_origin"]


def test_indented_json_has_one_writer():
    # json.dumps(indent=...) turns the C encoder off; sysio.indented_json writes the same bytes,
    # and every indented document the package prints (report, region, scan) goes through it
    modules = _modules()

    def json_calls(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and getattr(getattr(call.func, "value", None), "id", None) == "json"
                and call.func.attr in ("dumps", "dump", "JSONEncoder")]

    indent = [f"{module}:{call.lineno}" for module, tree in modules.items() for call in json_calls(tree)
              if any(keyword.arg == "indent" for keyword in call.keywords)]
    assert indent == []
    writers = sorted(f"{module}.{qualname}" for module, tree in modules.items()
                     for qualname, _, node in _definitions(tree) if json_calls(node))
    assert writers == ["sysio.indented_json"]
    callers = sorted(f"{module}.{qualname}" for module, tree in modules.items()
                     for qualname, _, node in _definitions(tree) if qualname != "indented_json"
                     and "indented_json" in _references(node))
    assert callers == ["cli.cmd_region", "cli.cmd_scan", "sysio.format_report"]


def test_the_xy_mirror_and_the_blowup_term_map_are_written_once():
    # PolyField.swapped is the one x↔y mirror: compact's U2 and blowup's ±y charts are the
    # U1 and ±x construction of the mirror image, so no module swaps P and Q itself
    modules = _modules()
    mirrors = [f"{module}:{call.lineno}" for module, tree in modules.items() if module != "desing"
               for call in ast.walk(tree) if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "PolyField"
               and any("swapped" in _references(arg) for arg in (*call.args, *(k.value for k in call.keywords)))]
    assert mirrors == []
    # the ±x term map, three monomial substitutions, is the only one blowup_directional reaches;
    # _antipode's sign map is a separate one
    blowup = {qualname: node for qualname, _, node in _definitions(modules["blowup"])}
    reached = {"blowup_directional"} | (set(_references(blowup["blowup_directional"])) & set(blowup))
    substitutions = [f"{name}:{call.lineno}" for name in sorted(reached) for call in ast.walk(blowup[name])
                     if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "subst_monomials"]
    assert len(substitutions) == 3, substitutions


def test_generated_code_is_compiled_by_compile_named():
    # every generated source (rhs, dopri5, box, jac) is compiled once per process and filed
    # under its own name, so a profile keeps them apart; desing.bind alone makes functions of
    # it, so no kernel compiles again for each field of a known term shape
    modules = _modules()
    helpers = {name: {id(sub) for sub in ast.walk(node)}
               for _, name, node in _definitions(modules["desing"]) if name in ("compile_named", "bind")}
    allowed = {"compile": helpers["compile_named"], "compile_named": helpers["bind"],
               "exec": set(), "FunctionType": helpers["bind"]}
    stray = []
    for module, tree in modules.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or getattr(getattr(call.func, "value", None), "id", None) == "re":
                continue  # re.compile compiles a pattern
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in allowed and not (module == "desing" and id(call) in allowed[name]):
                stray.append(f"{module}:{call.lineno} {name}")
    assert not stray, f"bind generated source through desing.bind: {stray}"


def test_classification_kinds_are_built_by_the_classifier_alone():
    # the linear classifier, the semi-hyperbolic refinement and a divisor of stationary points
    # build every kind; a private classifier beside them would build its own
    builders = {("equilibria", "classify_linear"), ("equilibria", "classify_point"),
                ("blowup", "divisor_stationary_points")}
    stray = []
    for module, tree in _modules().items():
        inside = {id(sub) for qualname, _, node in _definitions(tree)
                  if (module, qualname) in builders for sub in ast.walk(node)}
        for call in ast.walk(tree):
            name = isinstance(call, ast.Call) and (getattr(call.func, "id", None) or getattr(call.func, "attr", None))
            if name == "ClassificationKind" and id(call) not in inside:
                stray.append(f"{module}:{call.lineno}")
    assert not stray, f"take kinds from classify_linear or classify_point: {stray}"
