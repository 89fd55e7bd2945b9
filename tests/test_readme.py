"""The README's Python quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_python_quick_start_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    # A small seeded corpus.txt in which every word, `example` too, reaches
    # the quick start's min_count of 5.
    rng = np.random.default_rng(0)
    words = ["example", *(f"w{i:02d}" for i in range(29))]
    lines = [" ".join(rng.choice(words, size=12)) for _ in range(100)]
    (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace: dict[str, object] = {}
    exec(compile(block, "README.md", "exec"), namespace)
    instability, neighbor = capsys.readouterr().out.splitlines()
    assert float(instability.split()[0]) >= 0.0
    best, p_hash1 = neighbor.split()
    assert best in words and 0.0 <= float(p_hash1) <= 1.0
    averaged = namespace["averaged"]
    assert np.allclose(np.linalg.norm(averaged.matrix, axis=1), 1.0)
