#!/usr/bin/env python3
"""embedstab benchmark: seeded workloads driven through ``embedstab.cli.main``.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

Set-up makes the workload's inputs from the seed alone (five times; the
median is ``setup_s``).  The run then repeats the workload's commands, back
to back in this one process, until the next repetition would end past
``--seconds``, checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, from untraced
repetitions.  With ``--trace 1`` untraced and traced repetitions alternate
and the metrics are the per-layer ones.  A full record (run context, report
hashes, quality values, failures, the last trace) goes to
``perfbench/.results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are capped at the processors this process may use, before
# numpy is imported anywhere.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELDOUT_SEED = 977
SETUP_REPEATS = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import embedstab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import embedstab
        import embedstab.cli
    except ImportError as exc:
        fail(f"cannot import embedstab from {SRC}: {exc}")
    if not Path(embedstab.__file__).resolve().is_relative_to(SRC):
        fail(f"embedstab imported from {embedstab.__file__}, not from {SRC}")
    return embedstab


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.exists():
            for line in packed.read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
        return "unavailable"
    return ref


def blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def tree_hashes(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def set_up(workload, work: Path) -> tuple[float, str]:
    """Interpreter start + ``import embedstab`` + input generation, timed.

    Returns the median time over SETUP_REPEATS and the inputs' digest, which
    every repeat must reproduce.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, digests = [], set()
    inputs = work / "inputs"
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import embedstab"], env=env, check=True)
        if inputs.exists():
            shutil.rmtree(inputs)
        inputs.mkdir()
        workload.generate(inputs)
        times.append(time.perf_counter() - start)
        digests.add(json.dumps(tree_hashes(inputs)))
    if len(digests) != 1:
        fail("input generation is not deterministic for this seed")
    return statistics.median(times), hashlib.sha256(digests.pop().encode()).hexdigest()


class Runner:
    """Runs repetitions of a workload and counts operations and failures."""

    def __init__(self, workload, cli, work: Path):
        self.workload = workload
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] | None = None
        self.passed: list = []
        self.values: dict[str, float] = {}

    def op(self, label: str, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {message}")

    def _check(self, name: str, check, full: bool) -> None:
        from workloads import CheckError

        try:
            check(full)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.op(name, False, f"{type(exc).__name__}: {exc}")
        else:
            self.op(name, True)

    def iteration(self, tracer=None) -> dict:
        """One repetition: every command, timed, each followed by its cheap checks."""
        out = self.work / "out"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir()
        first = self.hashes is None
        self.passed = []
        timings: list[tuple[str, float]] = []
        stderr = io.StringIO()
        for name, argv, check in self.workload.commands():
            with contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        rc = self.cli.main(argv)
                    else:
                        rc = tracer.command(name, self.cli.main, argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    rc = exc.code
                elapsed = time.perf_counter() - start
            timings.append((name, elapsed))
            if rc != 0:
                self.op(name, False, f"exit code {rc}: {stderr.getvalue().strip()[-300:]}")
                continue
            failed = self.failed
            self._check(name, check, False)
            if self.failed == failed:
                self.passed.append((name, check))
        hashes = tree_hashes(out)
        if first:
            self.hashes = hashes
        else:
            differ = sorted(k for k in hashes.keys() | self.hashes.keys() if hashes.get(k) != self.hashes.get(k))
            self.op("repeat", not differ, f"outputs differ from the first repetition: {differ[:5]}")
        wall = sum(t for _, t in timings)
        return {
            "wall_s": wall,
            "analysis_s": sum(t for name, t in timings if name != "train"),
            "train_s": wall - sum(t for name, t in timings if name != "train"),
            "train_tokens": self.workload.values.get("train_tokens", 0),
            "commands": timings,
        }

    def final_checks(self) -> None:
        """The expensive checks, once, on the last repetition's outputs.

        Every repetition's outputs hash the same as the first one's, so these
        checks hold for all of them.
        """
        self.workload.values = {}
        for name, check in self.passed:
            self._check(f"{name} (full check)", check, True)
        self.values = dict(self.workload.values)


def median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def measure(runner: Runner, seconds: float, trace: int) -> dict:
    """Repeat the workload until the next round would end past `seconds`.

    A round is one untraced repetition, plus one traced repetition when
    tracing.  At least one round always runs.
    """
    from tracing import Tracer, analyze_spans, median_metrics

    untraced: list[dict] = []
    traced: list[dict] = []
    layer_runs: list[dict[str, float]] = []
    reconcile_err = 0.0
    spans: list[list] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(runner.iteration())
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(runner.iteration(tracer))
            finally:
                tracer.uninstall()
            spans = tracer.spans
            metrics, self_by_root = analyze_spans(spans)
            layer_runs.append(metrics)
            walls = [t for _, t in traced[-1]["commands"]]
            for self_sum, wall in zip((v for _, v in sorted(self_by_root.items())), walls):
                reconcile_err = max(reconcile_err, abs(self_sum - wall) / wall)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    return {
        "untraced": untraced,
        "traced": traced,
        "per_layer": median_metrics(layer_runs) if trace else {},
        "reconcile_err": reconcile_err,
        "spans": spans,
        "measured_s": time.perf_counter() - start,
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed for confirming claims: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one generated input after set-up (smoke test)")
    args = parser.parse_args()

    embedstab = import_program()
    import numpy as np
    import scipy

    from tracing import METRICS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = BENCH / ".results"
    results.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        setup_s, inputs_digest = set_up(workload, work)
        if args.corrupt:
            workload.corrupt(work / "inputs")
        os.chdir(work)
        runner = Runner(workload, embedstab.cli, work)
        m = measure(runner, args.seconds, args.trace)
        runner.final_checks()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    untraced, traced = m["untraced"], m["traced"]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(untraced, "wall_s"), "s"),
        "analysis_s": (median(untraced, "analysis_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if args.trace:
        runner.op("trace-reconcile", m["reconcile_err"] <= 0.01,
                  f"layer self times miss a command's wall time by {m['reconcile_err']:.2%}")
        per_layer = m["per_layer"]
        per_layer["trace.overhead_ratio"] = median(traced, "wall_s") / median(untraced, "wall_s") - 1.0
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in METRICS}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    quality = dict(runner.values)
    train_s = median(untraced, "train_s")
    if train_s > 0:
        quality["train_tokens_per_s"] = untraced[0]["train_tokens"] / train_s
    quality["fail_ratio"] = runner.failed / runner.attempted

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "context": {
            "nproc": NPROC,
            "blas": blas_name(np),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "embedstab": embedstab.__version__,
            "git_commit": git_commit(),
            "sizes": workload.sizes,
            "default_seed": DEFAULT_SEED,
            "heldout_seed": HELDOUT_SEED,
        },
        "inputs_sha256": inputs_digest,
        "measured_s": m["measured_s"],
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "quality": quality,
        "repetition_wall_s": {"untraced": [r["wall_s"] for r in untraced], "traced": [r["wall_s"] for r in traced]},
        "command_s": [[name, t] for name, t in untraced[0]["commands"]],
        "report_sha256": runner.hashes,
        "failures": runner.failures,
    }
    if args.trace:
        record["trace_reconcile_max_err"] = m["reconcile_err"]
        record["per_layer"] = {name: metrics[name]["value"] for name, _ in METRICS}
        record["spans"] = [span[:4] for span in m["spans"]]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-corrupt' if args.corrupt else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions in {m['measured_s']:.1f} s; record {results / name}")
    print("quality " + json.dumps(quality, sort_keys=True))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
