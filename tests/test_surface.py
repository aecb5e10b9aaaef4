"""The library keeps no function that only tests call, and one way onto the tape.

Every top-level function of every module of the package must be used
somewhere in the package outside its own definition, be exported in
`emofuse.__all__`, or be listed below with the reason it stays. Only
`autodiff.node` gives a tensor parents and a backward rule. No layer
defaults its `Segments` layout: each takes the one its caller passes. Only
`exceptions.reading` opens a file for reading.
"""

import ast
from pathlib import Path

import emofuse

PACKAGE = Path(emofuse.__file__).parent
CHECKED = tuple(sorted(path.stem for path in PACKAGE.glob("*.py")))
ALLOWED = {
    "edge_auc": "reconstruction AUC of acceptance criterion 3; the metric run telemetry is to log",
}


def references(module, tree):
    """(module, name) of every package-level name `module` loads.

    A bare name is looked up among what the module imports from sibling
    modules, else taken as its own; `alias.name` counts when alias is a
    sibling module imported under that name, as in `from . import autodiff as ad`.
    Attributes of anything else, such as numpy's `np.log`, are not package names.
    """
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(imported.get(node.id, (module, node.id)))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
    return found


def test_every_checked_function_has_a_package_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    every = {name: references(name, tree) for name, tree in trees.items()}
    unused = []
    for module in CHECKED:
        others = set().union(*(found for name, found in every.items() if name != module))
        for node in trees[module].body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in emofuse.__all__ or node.name in ALLOWED or (module, node.name) in others:
                continue
            # the module with this function's own body left out
            rest = ast.Module(body=[n for n in trees[module].body if n is not node], type_ignores=[])
            if (module, node.name) not in references(module, rest):
                unused.append(f"{module}.{node.name}")
    assert unused == [], f"functions with no caller in the package: {unused}"


def test_allowlist_names_only_existing_functions():
    defined = {node.name for module in CHECKED
               for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef)}
    assert set(ALLOWED) <= defined


def tape_writes(node, scope=""):
    """(scope, attribute, value source) of every assignment to an `_parents` or `_backward` attribute.

    The scope is the dotted name of the enclosing class and function definitions.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from tape_writes(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, (ast.Assign, ast.AugAssign)):
            for target in child.targets if isinstance(child, ast.Assign) else [child.target]:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr in ("_parents", "_backward"):
                        yield scope, t.attr, ast.unparse(child.value)
        yield from tape_writes(child, scope)


def test_only_node_puts_a_result_on_the_tape():
    writes = [(f"{path.stem}.{scope}", attr, value) for path in sorted(PACKAGE.glob("*.py"))
              for scope, attr, value in tape_writes(ast.parse(path.read_text(encoding="utf-8")))]
    # the constructor only clears both, so every tensor it builds is a leaf or a constant
    cleared = {("autodiff.Tensor.__init__", "_parents", "()"), ("autodiff.Tensor.__init__", "_backward", "None")}
    stray = [w for w in writes if w[0] != "autodiff.node" and w not in cleared]
    assert stray == [], f"tape bookkeeping written outside autodiff.node: {stray}"
    assert {("autodiff.node", "_parents"), ("autodiff.node", "_backward")} <= {w[:2] for w in writes}


def defaulted_layouts(tree):
    """(function, parameter) for each layout parameter, `segments` or `*_segments`, given a default."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        for arg in defaulted:
            if arg.arg == "segments" or arg.arg.endswith("_segments"):
                yield getattr(node, "name", "<lambda>"), arg.arg


def test_every_layer_takes_its_layout_from_its_caller():
    """A layer never builds a one-post layout of its own: the model passes every `Segments`."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defaulted = [f"{module}.{name}({arg}=...)" for module, tree in trees.items()
                 for name, arg in defaulted_layouts(tree)]
    assert defaulted == [], f"layout parameters with a default: {defaulted}"
    # the text encoder returns its levels as a list; no second text form exists
    names = {getattr(node, field) for tree in trees.values() for node in ast.walk(tree)
             for field in ("name", "id", "attr") if isinstance(getattr(node, field, None), str)}
    assert "EncodedText" not in names


def reads(tree, scope=""):
    """(scope, source) of every `open(...)` call whose mode reads: none given, or one with no w, a or x.

    A mode that is not a string literal counts as a read, since it cannot be told apart.
    """
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from reads(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "open":
            modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) & set("wax")):
                yield scope, ast.unparse(child)
        yield from reads(child, scope)


def test_every_input_file_is_opened_by_exceptions_reading():
    """One place turns a read failure into a loader's typed error naming the file and the bad byte."""
    found = [(f"{path.stem}.{scope}", call) for path in sorted(PACKAGE.glob("*.py"))
             for scope, call in reads(ast.parse(path.read_text(encoding="utf-8")))]
    stray = [f"{scope}: {call}" for scope, call in found if scope != "exceptions.reading"]
    assert stray == [], f"files opened for reading outside exceptions.reading: {stray}"
    assert len(found) == 3  # text, binary, and the whole-file decode that finds the bad byte
