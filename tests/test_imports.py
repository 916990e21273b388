import ast
import sys
from pathlib import Path

import radiobarrier

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "radiobarrier"}


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one declared runtime dependency; the learners are from scratch
    foreign = []
    for path in sorted(Path(radiobarrier.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_modules_use_every_name_they_import():
    # __init__.py is exempt: it imports to re-export
    unused = []
    for path in sorted(Path(radiobarrier.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # a quoted annotation ("VehicleSpec") uses a name imported under TYPE_CHECKING
        used |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
