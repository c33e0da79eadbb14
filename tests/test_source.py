import ast
from pathlib import Path

import torusrep

# `bench/refcheck.py` builds its reference rows with `numeric.oracle_matrices`,
# which no command calls; it stays for that reader.
OUTSIDE_READERS = {("numeric", "oracle_matrices")}


def test_every_function_in_src_has_a_reader_in_src():
    # every function, method and property defined in the package, dunders
    # aside, is named in the package's code (docstrings and comments are not
    # code), so nothing stays in src/ that only the tests reach
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(torusrep.__file__).parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    )
    assert unread == sorted(OUTSIDE_READERS), unread
