"""Fail on a runtime import outside the standard library, numpy and
terramob itself.

    python tools/check_imports.py src/terramob/*.py

Each file is parsed with ``ast``. Every absolute ``import`` or ``from``
statement in it, wherever it stands (in a function, under ``try``), must
name a top-level module in ``sys.stdlib_module_names`` (Python 3.10+),
``numpy`` or ``terramob``; relative imports are the package's own. Exits
1 naming each other import, else 0.
"""

import ast
import sys

ALLOWED = sys.stdlib_module_names | {"numpy", "terramob"}


def foreign_imports(path):
    """(line, module) of each import in ``path`` outside ALLOWED."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in ALLOWED:
                yield node.lineno, name


def main(paths):
    bad = [f"{path}:{line}: imports {name}"
           for path in paths for line, name in foreign_imports(path)]
    print("\n".join(bad) or f"{len(paths)} files import only the standard"
                             " library, numpy and terramob")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
