"""Package hygiene: no unused imports, no scipy loaded but by the commands
that compute with it, and no file read or written outside `space.py`, whose
line reader sets the rules for all and whose reader and writer record the
digest of every file a command reads or writes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cli_commands, cli_inputs

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in (SRC / "embedstab").glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """Names a module imports (at any depth) but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nfrom typing import Sequence\n"
        "def f(x: Sequence[int]):\n    import scipy.stats\n    return np.sum(x)\n"
    )
    assert unused_imports(module) == ["math", "scipy"]


# Calls that read or write a file, or make read bytes text.
FILE_IO = ("open", "read_text", "read_bytes", "write_text", "write_bytes", "decode")


def file_io(path: Path) -> list[int]:
    """Lines where a module reads or writes a file: any `open(...)` or
    `<path>.open(...)` in any mode, `.read_text`, `.read_bytes`,
    `.write_text`, `.write_bytes`, and `.decode` (bytes read, then made text)."""
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
    )
    assert file_io(module) == [3, 4, 4, 6, 6, 6, 8, 8, 8, 9, 10, 12, 12, 14]


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
