"""Smoke test of the benchmark: every workload at tiny size in both trace
modes, the output check, and the refusal to run without the package sources."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refcheck
import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, record = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, tiny=True)
        assert result["correct"], record["checked"]["problems"]
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }


def test_job_lists_depend_only_on_the_seed():
    from torusrep import mcg

    def is_pa(text):
        return mcg.classify(mcg.parse_word(text)) is mcg.NTClass.PSEUDO_ANOSOV

    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7, is_pa) == workloads.generate(name, 7, is_pa)
    words = [j.letters for j in workloads.generate("long_words", 7, is_pa) if j.letters]
    assert all(is_pa(workloads.word_text(w)) for w in words)


def test_check_flags_a_row_off_by_more_than_the_gate():
    from torusrep import cli, numeric

    job = workloads.amu_job((("y", 1), ("z", -1)), 3, 15)
    refs = refcheck.References(numeric, [job])
    _, rc, out, error = run.run_job(cli.main, job.argv, [])
    good = refcheck.Tally()
    refcheck.check(job, rc, out, error, refs, good)
    assert (good.attempted, good.failed, good.problems) == (len(job.levels), 0, [])

    obj = json.loads(out)
    obj["rows"][0]["spectral_radius"] *= 1 + 10 * refcheck.REL_GATE
    bad = refcheck.Tally()
    refcheck.check(job, rc, json.dumps(obj), error, refs, bad)
    assert (bad.attempted, bad.failed) == (len(job.levels), 1)
    assert min(bad.digits) < 6 and bad.accuracy_digits < good.accuracy_digits
    assert (bad.jobs, bad.failed_jobs) == (1, 0)  # an inaccurate row is not a failed job

    del obj["rows"][-1]
    broken = refcheck.Tally()
    refcheck.check(job, rc, json.dumps(obj), error, refs, broken)
    assert (broken.jobs, broken.failed_jobs) == (1, 1) and broken.problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_checks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
