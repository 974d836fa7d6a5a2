"""The benchmark's own tests: a smoke-size run of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs untraced and traced at ``--scale smoke``; the last line
must carry every metric ``BENCHMARK.json`` declares, with its unit, and no
process the run started may outlive it.  The correctness checks must reject
a wrong σ, both for a solve and for reads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import uuid
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

from checks import CheckFailed, ReadReference, check_sigma  # noqa: E402


def tagged(tag: str) -> list[int]:
    """Pids of live processes whose environment carries ``PERFBENCH_TEST_TAG=tag``."""
    needle = f"PERFBENCH_TEST_TAG={tag}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            environ = Path(f"/proc/{entry}/environ").read_bytes()
        except OSError:
            continue
        if needle in environ.split(b"\0"):
            pids.append(int(entry))
    return pids


def run_bench(workload: str, trace: int, tmp_path: Path) -> dict:
    """Run the benchmark; every process it started, and their children,
    inherit a unique tag, and none may be left once it has exited.

    Output goes to files, not pipes: reading a pipe to its end would wait
    for every process that inherited it, and so hide one left running.
    """
    tag = uuid.uuid4().hex
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with out.open("w") as stdout, err.open("w") as stderr:
        code = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "4", "--trace", str(trace), "--scale", "smoke"],
            cwd=ROOT, stdout=stdout, stderr=stderr, timeout=300,
            env=dict(os.environ, PERFBENCH_TEST_TAG=tag),
        ).returncode
    assert tagged(tag) == []
    assert code == 0, err.read_text()[-3000:]
    return json.loads(out.read_text().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int,
                                               tmp_path: Path) -> None:
    result = run_bench(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert np.isfinite(metric["value"]), name


def test_a_wrong_sigma_fails_the_solve_check() -> None:
    rng = np.random.default_rng(0)
    reference = rng.random(1000)
    reference /= reference.sum()
    check_sigma(reference.copy(), reference)
    wrong = reference.copy()
    wrong[17] += 1e-6
    with pytest.raises(CheckFailed):
        check_sigma(wrong, reference)


def test_wrong_read_answers_fail_the_read_check() -> None:
    rng = np.random.default_rng(1)
    sigma = rng.random(500)
    reads = ReadReference()
    reads.add(4, sigma, 100)
    served = sigma / sigma.sum()
    ids = [3, 99, 250]
    reads.check("score", 4, [ids, served[ids].tolist()])
    with pytest.raises(CheckFailed):
        reads.check("score", 4, [ids, (served[ids] * 1.001).tolist()])
    with pytest.raises(CheckFailed):
        reads.check("score", 5, [ids, served[ids].tolist()])
    top = np.lexsort((np.arange(500), -served))[:100].tolist()
    reads.check("top_k", 4, top)
    with pytest.raises(CheckFailed):
        reads.check("top_k", 4, top[1:] + top[:1])


def test_a_wrong_sigma_fails_a_whole_run(tmp_path: Path, monkeypatch) -> None:
    """The full run reports the failure when the program's σ is off."""
    import solve
    from bench import Bench
    from workloads import WORKLOADS as SPECS

    real = solve.Solver.solve

    def skewed(self):
        result = real(self)
        scores = result.scores.copy()
        scores[0] += 1e-6
        object.__setattr__(result, "_scores", scores)
        return result

    monkeypatch.setattr(solve.Solver, "solve", skewed)
    bench = Bench(SPECS[WORKLOADS[0]].smoke(), 3, 2.0, tmp_path, ROOT / "src", trace=False)
    try:
        with pytest.raises(CheckFailed):
            bench.run()
    finally:
        bench.close()
