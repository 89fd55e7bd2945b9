"""Package hygiene: no unused imports, no slow import at load, and no text
file read outside `space.py`, whose line reader sets the rules for all."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def text_reads(path: Path) -> list[int]:
    """Lines where a module reads a file as text: any `.read_text(...)`, and
    `open(...)` or `<path>.open(...)` in a reading mode without "b"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "read_text":
            lines.append(node.lineno)
        elif name == "open":
            # The mode is open()'s second argument and Path.open()'s first.
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            modes = [k.value for k in node.keywords if k.arg == "mode"] + args[:1]
            mode = modes[0] if modes else ast.Constant("r")
            if not isinstance(mode, ast.Constant) or (
                "b" not in mode.value and ("r" in mode.value or "+" in mode.value)
            ):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_space_reads_text_files():
    assert [p.name for p in MODULES if text_reads(p)] == ["space.py"]


def test_the_check_sees_a_text_read(tmp_path):
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
    )
    assert text_reads(module) == [3, 4, 4, 6, 6, 6]


def test_importing_the_package_and_cli_leaves_scipy_stats_out():
    # scipy.stats takes longer to import than the whole package; only
    # `shapiro_wilk` needs it, and imports it when called.
    probe = "import sys, embedstab, embedstab.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.split() == ["False"]
