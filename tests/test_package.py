"""Package structure: every public function and class in src/ has a caller
in src/.

A helper that only tests call lives in tests/ (`box_oracles`,
`references`), so the package holds the code its commands run.  The scan
reads each module of the package with `ast`.  A definition is public when
its name has no leading underscore.  It counts as referenced when some
`Name` or `Attribute` node of the package carries its name outside its
own definition; an import alone does not count, and neither does a
docstring.
"""

import ast
from pathlib import Path

import compactdet

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
