import ast
from pathlib import Path

import torusrep

SOURCES = sorted(Path(torusrep.__file__).parent.glob("*.py"))

# `bench/refcheck.py` builds its reference rows with `numeric.oracle_matrices`,
# which no command calls; it stays for that reader.
OUTSIDE_READERS = {("numeric", "oracle_matrices")}


def test_every_function_in_src_has_a_reader_in_src():
    # every function, method and property defined in the package, dunders
    # aside, is named in the package's code (docstrings and comments are not
    # code), so nothing stays in src/ that only the tests reach
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
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


def test_no_dataclasses_in_src():
    # the five records are namedtuples: creating a frozen dataclass class
    # generates and execs six methods, about 0.6 ms against 0.05 ms for a
    # namedtuple; replacing the five took the module code of a fresh import
    # of the package from 6.1-6.9 to 3.6-4.8 ms (2-vCPU VM), a cost every
    # short CLI process pays; `_make` and `_replace` build a namedtuple without
    # its `__new__`, so they would skip the validation of PSetting, Word
    # and SL2
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                assert name not in ("_make", "_replace"), (path.name, node.lineno)


def test_no_object_arrays_in_src():
    # numpy arrays of Python ints run every operation through the
    # interpreter: `repbuild._height_bound` with nine object-dtype matrix
    # products took 0.33 ms at N = 8 and 43 ms at N = 32, against 0.02 and
    # 5.7 ms, row norms included, in float64 with a proven slack (2-vCPU VM,
    # one BLAS thread); as a grep, docstrings and comments included
    for path in SOURCES:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert "dtype=object" not in line, f"{path.name}:{lineno}: {line.strip()}"


def test_no_matrix_inverse_in_src():
    # an inverse letter is E conj(G) E (`numeric.convergence_table`), exact in
    # floats, where a solve would add rounding; as the CI step
    # `! grep -rn "linalg.inv" src/`, docstrings and comments included
    for path in SOURCES:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert "linalg.inv" not in line, f"{path.name}:{lineno}: {line.strip()}"
