"""Package structure: every public function and class in src/ has a caller
in src/, and every error class the package defines has an exit code.

A helper that only tests call lives in tests/ (`box_oracles`,
`references`), so the package holds the code its commands run.  The scan
reads each module of the package with `ast`.  A definition is public when
its name has no leading underscore.  It counts as referenced when some
`Name` or `Attribute` node of the package carries its name outside its
own definition; an import alone does not count, and neither does a
docstring.
"""

import ast
import builtins
import importlib
import inspect
import pkgutil
from pathlib import Path

import compactdet
from compactdet import cli

PACKAGE = Path(compactdet.__file__).parent

# Public API with no caller in the package: the README documents
# load_bundled_config as the way to load the bundled configs, and bench/
# writes its frames with write_ppm.
NO_CALLER_IN_SRC = {"arch_graph.load_bundled_config", "cli.write_ppm"}


def unreferenced_public_definitions() -> set:
    defined = []  # (module, name) of each public module-level def and class
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = getattr(top, "name", None)  # set on def and class statements only
            if own is not None and not own.startswith("_"):
                defined.append((path.stem, own))
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    referenced.add(name)
    return {f"{module}.{name}" for module, name in defined if name not in referenced}


def test_every_public_definition_has_a_caller_in_src():
    """Equality, so the allowlist also holds only names that still need it."""
    found = unreferenced_public_definitions()
    stray = sorted(found ^ NO_CALLER_IN_SRC)
    assert found == NO_CALLER_IN_SRC, f"no caller in src/, or a stale allowlist entry: {stray}"


def exit_code_classes() -> tuple:
    """The classes that cli.main's except clauses name, resolved in cli's
    globals or builtins."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(top for top in tree.body if getattr(top, "name", None) == "main")
    names = []
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names += [node.id for node in caught]
    return tuple(getattr(cli, name, None) or getattr(builtins, name) for name in names)


def test_every_error_class_has_an_exit_code():
    """A refusal class that cli.main does not catch would end in a traceback
    and exit 1."""
    modules = [compactdet] + [
        importlib.import_module(f"compactdet.{info.name}") for info in pkgutil.iter_modules(compactdet.__path__)
    ]
    defined = {
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and issubclass(cls, Exception)
    }
    caught = exit_code_classes()
    uncaught = sorted(cls.__qualname__ for cls in defined if not issubclass(cls, caught))
    assert defined and not uncaught, f"no except clause in cli.main catches: {uncaught}"
