"""Source-tree rules that no behavioural test would notice breaking."""

import ast
import pathlib

import reldelcech

PACKAGE = pathlib.Path(reldelcech.__file__).parent


def imported_modules(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_one_exact_number_type():
    # Exact signs are integer determinants of power-of-two scaled floats
    # (predicates.exact_ints); a second exact type must not creep back in.
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    offenders = [p.name for p in sources if "fractions" in imported_modules(p)]
    assert offenders == []
