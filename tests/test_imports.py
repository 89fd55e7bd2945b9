"""Package hygiene: each public name declared once, in its module's
`__all__`; no unused imports, no scipy loaded but by the commands that
compute with it, no file read or written outside `space.py`, whose line
reader sets the rules for all and whose reader and writer record the digest
of every file a command reads or writes, and no space's rows gathered
outside `space.py`, whose row reader serves every kernel."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

from helpers import cli_commands, cli_inputs

SRC = Path(__file__).resolve().parents[1] / "src"
INIT = SRC / "embedstab" / "__init__.py"
MODULES = sorted(p for p in (SRC / "embedstab").glob("*.py") if p != INIT)


def unused_imports(path: Path) -> list[str]:
    """Names a module imports (at any depth) but never reads; a star import
    names nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", [INIT, *MODULES], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_check_skips_star_imports_but_not_unread_modules(tmp_path):
    module = tmp_path / "__init__.py"
    module.write_text(
        "from . import a, b\n"
        "__all__ = list(a.__all__)\n"
        "from .a import *\n"
    )
    assert unused_imports(module) == ["b"]


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nfrom typing import Sequence\n"
        "def f(x: Sequence[int]):\n    import scipy.stats\n    return np.sum(x)\n"
    )
    assert unused_imports(module) == ["math", "scipy"]


def test_the_package_exports_what_its_modules_declare():
    import embedstab

    modules = [importlib.import_module(f"embedstab.{p.stem}") for p in MODULES if p.stem != "cli"]
    declared = ["__version__", "tokenize"] + [name for m in modules for name in m.__all__]
    assert len(embedstab.__all__) == len(set(embedstab.__all__))
    assert sorted(embedstab.__all__) == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(embedstab, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert embedstab.tokenize is importlib.import_module("embedstab.corpus").tokenize
    namespace: dict[str, object] = {}
    exec("from embedstab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(declared)
    # The function shadows its module's name in the package.
    assert isinstance(embedstab.pip_loss, FunctionType)
    # The trainer's set-up helpers are called only by the trainer and tests.
    sgns = importlib.import_module("embedstab.sgns")
    for name in ("build_vocab", "subsample_probability", "noise_distribution"):
        assert name not in embedstab.__all__ and not hasattr(embedstab, name)
        assert callable(getattr(sgns, name))


# Calls that read or write a file, make read bytes text, or make a directory.
FILE_IO = (
    "open", "read_text", "read_bytes", "write_text", "write_bytes", "decode", "mkdir", "makedirs",
)


def file_io(path: Path) -> list[int]:
    """Lines where a module reads or writes a file: any `open(...)` or
    `<path>.open(...)` in any mode, `.read_text`, `.read_bytes`,
    `.write_text`, `.write_bytes`, `.decode` (bytes read, then made text),
    and `.mkdir` or `os.makedirs` (a directory made to write into)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_IO:
                lines.append(node.lineno)
    return sorted(lines)


def test_only_space_does_file_io():
    assert [p.name for p in MODULES if file_io(p)] == ["space.py"]


def test_the_check_sees_every_file_io_call(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from pathlib import Path\n"
        "def f(p, mode):\n"
        "    text = Path(p).read_text(encoding='utf-8')\n"
        "    with open(p) as fh, open(p, 'r', encoding='utf-8') as gh:\n"
        "        pass\n"
        "    with Path(p).open(mode='rt') as fh, Path(p).open() as gh, open(p, mode) as hh:\n"
        "        pass\n"
        "    with open(p, 'rb') as fh, Path(p).open('w') as gh, open(p, mode='ab') as hh:\n"
        "        Path(p).write_text(text)\n"
        "    return Path(p).read_bytes()\n"
        "def g(p):\n"
        "    return Path(p).read_bytes().decode('utf-8')\n"
        "def h(p, text):\n"
        "    Path(p).write_bytes(text.encode('utf-8'))\n"
        "    return len(text)\n"
        "def k(p):\n"
        "    Path(p).parent.mkdir(parents=True, exist_ok=True)\n"
        "    os.makedirs(p, exist_ok=True)\n"
    )
    assert file_io(module) == [3, 4, 4, 6, 6, 6, 8, 8, 8, 9, 10, 12, 12, 14, 17, 18]


def matrix_subscripts(path: Path) -> list[int]:
    """Lines where a module subscripts an attribute named `matrix`
    (``x.matrix[...]``): a gather of a space's rows."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "matrix"
    )


def test_only_space_subscripts_a_matrix():
    # Every other module reads a word list's rows through `space._word_rows`.
    assert [p.name for p in MODULES if matrix_subscripts(p)] == ["space.py"]


def test_the_check_sees_a_matrix_subscript(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(space, rows, matrix):\n"
        "    a = space.matrix[rows]\n"
        "    b = matrix[rows] + space.matrix.copy()\n"
        "    return a, b, space.other.matrix[0, :], space.matrix\n"
    )
    assert matrix_subscripts(module) == [2, 4]


def scipy_after(code: str, *argv: object) -> tuple[object, list[str]]:
    """Run `code` in a fresh interpreter with `argv`; return the value it
    leaves in `result` and the scipy modules then loaded. The probe prints
    both as JSON on its last stdout line, so what `code` prints is ignored."""
    probe = code + (
        "\nimport json"
        "\nprint(json.dumps([result, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')]))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", "import sys\n" + probe, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    result, modules = json.loads(completed.stdout.splitlines()[-1])
    return result, modules


def test_importing_the_package_and_cli_leaves_scipy_out():
    # scipy.special and scipy.sparse take about as long to import as the
    # rest of the package, and scipy.stats longer; the functions that need
    # them import them when called.
    assert scipy_after("import embedstab, embedstab.cli\nresult = None") == (None, [])


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    inputs = cli_inputs(root / "in")
    out = root / "out"
    out.mkdir()
    (root / "corpus.txt").write_text("".join(f"the cat sat on the mat {i}\n" for i in range(40)))
    (root / "table.tsv").write_text("# tool: embedstab\nword\tvalue\nw0001\t0.5\n")
    commands = {argv[0]: argv for argv in cli_commands(root / "in", inputs, out)}
    commands["report"] = ("report", "--in", root / "table.tsv", "--format", "json",
                          "--out", out / "table.json")
    commands["train"] = ("train", "--corpus", root / "corpus.txt", "--dim", 4, "--epochs", 1,
                         "--runs", 1, "--out", out / "trained.vec")
    return commands


RUN_MAIN = "from embedstab.cli import main\nresult = main(sys.argv[1:])"


@pytest.mark.parametrize("command", ["instability", "pip", "overlap", "average", "change", "report"])
def test_a_command_without_scipy_work_loads_no_scipy(command_inputs, command):
    assert scipy_after(RUN_MAIN, *command_inputs[command]) == (0, [])


@pytest.mark.parametrize("command, needed", [("predict", "scipy.special"), ("train", "scipy.sparse")])
def test_a_command_loads_the_scipy_it_runs_but_not_scipy_stats(command_inputs, command, needed):
    exit_code, modules = scipy_after(RUN_MAIN, *command_inputs[command])
    assert exit_code == 0
    assert needed in modules and "scipy.stats" not in modules
