"""Tests of the benchmark itself: run them with ``python -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((BENCH_DIR / "design.json").read_text())


def _drive(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_at_toy_size_through_run_py(workload):
    out = _drive(workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    out = _drive("random_suites", 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
    assert result["metrics"]["verify.generate_calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    record = next(ln for ln in out.stdout.splitlines() if ln.startswith(run.RECORD_TAG))
    assert {"python", "numpy", "nproc", "cpu", "commit", "seed", "held_out_seed"} <= set(
        json.loads(record.split(" ", 1)[1])
    )


def test_hook_that_no_longer_fires_reads_not_reached(monkeypatch, capsys):
    assert "machine.diffuse" in DESIGN["baseline_layers"]["slice_sweep"]
    # as if a refactor had renamed diffuse_once, or stopped calling it
    renamed = tuple((layer, mod, fn + "_gone" if fn == "diffuse_once" else fn) for layer, mod, fn in layers.HOOKS)
    monkeypatch.setattr(layers, "HOOKS", renamed)
    monkeypatch.setattr(run, "_untraced_op_seconds", lambda args: 1.0)
    assert run.main(["--workload", "slice_sweep", "--seed", "1", "--seconds", "1", "--trace", "1", "--toy"]) == 0
    metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
    assert metrics["machine.diffuse_s"]["status"] == "not reached"
    assert "status" not in metrics["machine.normalize_self_s"]


def test_hooks_are_removed_after_the_traced_run():
    import zxtk
    from zxtk import machine, verify

    before = (zxtk.normalize, machine.normalize, verify.normalize, machine.make_strategy)
    tracer = layers.Tracer()
    tracer.install()
    assert machine.normalize is not before[1] and verify.normalize is not before[2]
    tracer.uninstall()
    assert (zxtk.normalize, machine.normalize, verify.normalize, machine.make_strategy) == before


def _toy_ops(workload):
    plan = workloads.plan_ops(workload, 1, 1, workloads.TOY)
    return workloads.build_ops(workload, plan.mix, workloads.TOY)


def test_zeroed_matrix_is_counted_as_failed():
    op = _toy_ops("chain_extract")[0]
    assert op.check(op.run()) is None
    op.run = lambda inner=op.run: inner() * 0
    _, failures = run.run_ops([op])
    assert [cls for _, cls, _ in failures] == ["wrong_result"]


def test_zeroed_vector_is_counted_as_failed():
    op = _toy_ops("slice_sweep")[0]
    state = op.run()
    assert op.check(state) is None
    assert op.check(type(state).zero())[0] == "wrong_result"


def test_one_changed_trace_byte_is_counted_as_failed():
    op = _toy_ops("trace_export")[0]
    text, parsed = op.run()
    assert op.check((text, parsed)) is None
    i = text.index('"rule"') + 2
    corrupted = text[:i] + ("R" if text[i] != "R" else "S") + text[i + 1:]
    op.run = lambda: (corrupted, parsed)
    _, failures = run.run_ops([op])
    assert [cls for _, cls, _ in failures] == ["wrong_result"]


def test_tiny_reference_failures_belong_to_the_pruning_class():
    import numpy as np

    want = np.full((4, 4), 1e-12 + 0j)
    check = workloads._matrix_check(want, "tiny")
    assert check(want.copy()) is None
    assert check(np.zeros_like(want))[0] == "pruned_amplitude"
    assert "pruned_amplitude" in DESIGN["known_failures"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_op_sequence(workload):
    first = workloads.plan_ops(workload, 5, 15)
    assert first == workloads.plan_ops(workload, 5, 15)
    assert first != workloads.plan_ops(workload, 6, 15)


def test_chain_sizes_cover_the_range_and_keep_k_80_reachable():
    plan = workloads.plan_ops("chain_extract", 3, 15)
    inputs = sorted(k for side, k in plan.mix if side == "input")
    outputs = [k for side, k in plan.mix if side == "output"]
    assert inputs[0] <= 10 and 0 < len(outputs) < len(inputs)
    assert all(8 <= k <= 12 for k in outputs)
    # the pruning defect is reached by exactly one op of the mix, under every seed
    for seed in range(40):
        mix = workloads.plan_ops("chain_extract", seed, 15).mix
        assert sum(side == "input" and k >= 76 for side, k in mix) == 1
    reach = {k for seed in range(40) for _, k in workloads.plan_ops("chain_extract", seed, 15).mix}
    assert 80 in reach


def test_every_repetition_runs_the_whole_mix_in_a_new_order():
    plan = workloads.plan_ops("slice_sweep", 2, 15)
    assert plan.repeated and len(plan.reps) >= 3
    assert all(sorted(rep) == list(range(len(plan.mix))) for rep in plan.reps)
    assert len(set(plan.reps)) > 1


def test_suite_blocks_hold_distinct_trials():
    plan = workloads.plan_ops("random_suites", 2, 15)
    assert not plan.repeated
    assert sorted(plan.order) == list(range(len(plan.mix)))
    assert len({entry for entry in plan.mix}) == len(plan.mix)


def test_percentile_matches_the_sample_on_a_large_uniform_set():
    values = [i / 1000 for i in range(1001)]
    assert abs(run.percentile(values, 50.0) - 0.5) < 1e-3
    assert abs(run.percentile(values, 90.0) - 0.9) < 1e-3
    assert run.percentile([3.0], 90.0) == 3.0


def test_each_op_of_a_repeated_mix_is_timed_by_its_fastest_run():
    plan = workloads.Plan(mix=(("a",), ("b",)), reps=((0, 1), (1, 0), (0, 1)), repeated=True)
    # op a takes 1 s and op b 3 s; bursts slow two of a's runs and one of b's
    got = run.summarize([1.5, 3.0, 9.0, 1.0, 3.0, 3.0], plan, 50.0)
    assert got["ops_per_s"] == 2 / 4.0
    assert got["op_p50_ms"] == got["op_p90_ms"] == 2000.0


def test_metrics_of_distinct_blocks_are_medians_over_blocks():
    plan = workloads.Plan(mix=tuple((i,) for i in range(6)), reps=((0, 1), (2, 3), (4, 5)), repeated=False)
    got = run.summarize([1.0, 1.0, 0.5, 0.5, 4.0, 4.0], plan, 90.0)
    assert got == {"ops_per_s": 1.0, "op_p50_ms": 1000.0, "op_p90_ms": 1000.0}


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(1000) == 90.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(12) == 50.0


def test_directory_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _drive("chain_extract", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
