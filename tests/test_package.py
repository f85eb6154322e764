import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lpbounds"


def _public_functions(tree):
    """Names in a module's __all__ that the module defines as functions."""
    exported = next((ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__"
                             for t in node.targets)), [])
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    return [name for name in exported if name in defined]


def test_every_public_function_has_a_caller_in_the_package():
    # a public name that only its own unit tests use should not be public;
    # each function must be named somewhere in src besides its def line
    # and its __all__ entry.  A package re-export is no caller.
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    unused = []
    for path, text in texts.items():
        for name in _public_functions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            uses = sum(len(word.findall(t)) for t in texts.values())
            if uses <= 2:
                unused.append(f"{path.name}:{name}")
    assert unused == []
