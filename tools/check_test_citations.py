"""Fail on a test citation in the docs that names nothing.

    python tools/check_test_citations.py README.md ROADMAP.md

Every ``tests/<file>.py::name[::name...]`` in the given files must name a
function or class of that test file: the first name at its top level,
each later one in the body of the class before it. Test files are parsed
with ``ast`` (nothing is imported) and found relative to the repository
root, the parent of this script's directory. Exits 1 naming each citation
that names nothing, else 0.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITATION = re.compile(r"tests/[\w/]+\.py(?:::\w+)+")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def resolves(citation):
    """Whether ``citation`` names a def or class of its test file."""
    path, *names = citation.split("::")
    try:
        body = ast.parse((ROOT / path).read_text(encoding="utf-8"), path).body
    except (OSError, SyntaxError):
        return False
    for name in names:
        node = next((n for n in body
                     if isinstance(n, DEFS) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def main(docs):
    cited = [(doc, lineno, m.group())
             for doc in docs
             for lineno, line in enumerate(
                 Path(doc).read_text(encoding="utf-8").splitlines(), start=1)
             for m in CITATION.finditer(line)]
    bad = [f"{doc}:{lineno}: {citation} names no def or class"
           for doc, lineno, citation in cited if not resolves(citation)]
    print("\n".join(bad) or f"{len(cited)} test citations in {len(docs)}"
                            " files all resolve")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
