import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kdn"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "kdn"}


def test_runtime_imports_only_stdlib_and_numpy():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in ALLOWED]
    assert foreign == []
