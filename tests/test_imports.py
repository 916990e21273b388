import ast
import builtins
import importlib
import os
import pkgutil
import re
import subprocess
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
    # the package's __init__.py is exempt: it imports to re-export
    package = Path(radiobarrier.__file__).parent
    unused = []
    for path in sorted([*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.parent.name}/{path.name}:{node.lineno} {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_importing_the_cli_loads_no_process_pool():
    # concurrent.futures loads multiprocessing, socket and subprocess; no command
    # runs a process pool, so none loads them
    code = ("import sys, radiobarrier.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(radiobarrier.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout.strip()) == (0, "[]"), run.stderr


def library_section():
    """The README's "Library use" section, up to the next heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(capsys):
    # the documented API: the example runs as printed, against the top-level names
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    mean, std = map(float, capsys.readouterr().out.split())
    assert 0.0 <= mean <= 1.0 and std >= 0.0


def test_readme_library_section_names_only_existing_callables():
    # each `name(` or `Class.method(` is an attribute of a radiobarrier module or a builtin
    modules = [importlib.import_module(f"radiobarrier.{info.name}")
               for info in pkgutil.iter_modules(radiobarrier.__path__)]

    def resolves(name):
        for owner in (builtins, *modules):
            for attr in name.split("."):
                owner = getattr(owner, attr, None)
            if owner is not None:
                return True
        return False

    names = set(re.findall(r"`([A-Za-z_][\w.]*)\(", library_section()))
    assert names and sorted(name for name in names if not resolves(name)) == []
