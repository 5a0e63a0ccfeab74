"""Random diagram generation and the self-check suites."""

import dataclasses
import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from zxtk import (
    GenConfig,
    SUITES,
    check_diagram,
    connected_components,
    enumerate_cycles,
    is_cycle_balanced,
    is_well_formed,
    random_diagram,
    run_suite,
    run_trial,
    serialize_diagram,
)
from zxtk import verify
from zxtk.diagram import GenKind
from zxtk.families import cnot_diagram, spider_trap
from zxtk.verify import _boundary_seed, _random_seed, effective_config

# ten documents at seed 42, frozen; any drift breaks replayability of
# every recorded trial index
SEED42_DIGEST = "3f63fce123a8802dec5fd4ac12aceb91aa7156b4c081041a159f2d529c7d596d"


def seed42_digest():
    docs = "".join(serialize_diagram(random_diagram(GenConfig(seed=42), i)) for i in range(10))
    return hashlib.sha256(docs.encode()).hexdigest()


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig()
        assert cfg.seed == 0 and cfg.max_generators == 8
        assert not cfg.allow_ground and cfg.require_connected

    def test_boundary_cap(self):
        with pytest.raises(ValueError):
            GenConfig(max_inputs=7)

    def test_spider_arity_floor(self):
        with pytest.raises(ValueError):
            GenConfig(max_spider_arity=0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GenConfig().seed = 1


class TestRandomDiagram:
    def test_same_index_same_diagram(self):
        cfg = GenConfig(seed=9)
        a, b = random_diagram(cfg, 4), random_diagram(cfg, 4)
        assert a.generators == b.generators
        assert serialize_diagram(a) == serialize_diagram(b)

    def test_different_indices_differ_somewhere(self):
        cfg = GenConfig(seed=9)
        docs = {serialize_diagram(random_diagram(cfg, i)) for i in range(12)}
        assert len(docs) > 1

    def test_frozen_digest(self):
        assert seed42_digest() == SEED42_DIGEST

    def test_digest_is_process_independent(self):
        code = (
            "import hashlib\n"
            "from zxtk import serialize_diagram\n"
            "from zxtk.verify import GenConfig, random_diagram\n"
            "docs = ''.join(serialize_diagram(random_diagram(GenConfig(seed=42), i)) for i in range(10))\n"
            "print(hashlib.sha256(docs.encode()).hexdigest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == SEED42_DIGEST

    @pytest.mark.parametrize(
        "cfg",
        [
            GenConfig(seed=1),
            GenConfig(seed=2, require_acyclic=True),
            GenConfig(seed=3, allow_ground=True),
            GenConfig(seed=4, require_connected=False, max_spider_arity=3),
            GenConfig(seed=5, max_generators=2, max_inputs=1, max_outputs=1),
        ],
        ids=["default", "acyclic", "ground", "loose", "tiny"],
    )
    def test_postconditions(self, cfg):
        for i in range(25):
            d = random_diagram(cfg, i)
            assert len(d.generators) <= cfg.max_generators
            assert d.n_inputs <= cfg.max_inputs and d.n_outputs <= cfg.max_outputs
            assert sum(1 for g in d.generators if g.kind is GenKind.GROUND) <= 2
            for g in d.generators:
                if g.kind is GenKind.Z:
                    assert len(g.ins) <= cfg.max_spider_arity
                    assert len(g.outs) <= cfg.max_spider_arity
            if cfg.require_acyclic:
                assert not enumerate_cycles(d)
            if cfg.require_connected and cfg.max_generators > 0:
                assert len(connected_components(d)) <= 1
            for e in d.inputs:
                assert e.startswith("a")
            for e in d.outputs:
                assert e.startswith("b") or e in d.inputs

    def test_generator_free_configs_stay_pure_wiring(self):
        cfg = GenConfig(seed=6, max_generators=0)
        for i in range(10):
            d = random_diagram(cfg, i)
            assert not d.generators
            assert d.n_inputs == d.n_outputs


class TestSeeds:
    def test_random_seeds_pass_both_gates(self):
        cfg = GenConfig(seed=21)
        rng = random.Random(0)
        for i in range(20):
            d = random_diagram(cfg, i)
            s = _random_seed(d, rng)
            if s is None:
                assert not d.edge_order
                continue
            assert is_well_formed(d, s) and is_cycle_balanced(d, s)

    def test_boundary_seed_prefers_inputs(self, cnot):
        s = _boundary_seed(cnot, random.Random(0), width=2)
        edges = {t.edge for term in s.terms for t in term}
        assert edges == {"a1", "a2"}
        assert all(len(t.bits) == 2 for term in s.terms for t in term)


class TestCheckDiagram:
    def test_pure_oracle(self, cnot):
        r = check_diagram(cnot)
        assert r.outcome == "pass" and r.deviation < 1e-12

    def test_ground_oracle_is_detected(self):
        from zxtk import Diagram, Generator

        meas = Diagram(
            (Generator(GenKind.Z, ("a1",), ("b1", "e1")), Generator(GenKind.GROUND, ("e1",), ())),
            ("a1",),
            ("b1",),
        )
        r = check_diagram(meas)
        assert r.outcome == "pass" and r.deviation < 1e-12


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    def test_small_runs_are_clean(self, suite):
        report = run_suite(suite, GenConfig(seed=5, max_generators=5), trials=8)
        assert report.ok, report.summary()
        assert report.count("fail") == 0
        assert report.max_deviation < 1e-9

    def test_fixture_mode_confluence(self, trap):
        report = run_suite("confluence", GenConfig(seed=1), trials=3, schedulers=20, diagram=trap)
        assert report.ok and report.count("pass") == 3

    def test_fixture_mode_oracle(self, cnot):
        report = run_suite("oracle", GenConfig(seed=1), trials=2, diagram=cnot)
        assert report.ok and report.max_deviation < 1e-12

    def test_trials_replay_exactly(self):
        cfg = GenConfig(seed=8, max_generators=5)
        assert run_trial("oracle", cfg, 3) == run_trial("oracle", cfg, 3)
        report = run_suite("oracle", cfg, trials=5)
        assert report.trials[3] == run_trial("oracle", cfg, 3)

    def test_parallel_jobs_match_serial(self):
        cfg = GenConfig(seed=8, max_generators=4)
        serial = run_suite("confluence", cfg, trials=6, schedulers=5, jobs=1)
        parallel = run_suite("confluence", cfg, trials=6, schedulers=5, jobs=2)
        assert serial.trials == parallel.trials

    def test_pool_starts_no_more_workers_than_trials_or_cpus(self, monkeypatch):
        pools = []

        class Recorder:  # an in-process stand-in: it starts no worker
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 4)
        cfg = GenConfig(seed=8, max_generators=4)
        serial = run_suite("oracle", cfg, trials=3)
        assert run_suite("oracle", cfg, trials=3, jobs=64).trials == serial.trials
        run_suite("oracle", cfg, trials=6, jobs=64)
        assert pools == [3, 4]
        # one worker's worth of trials or CPUs runs in this process
        run_suite("oracle", cfg, trials=1, jobs=64)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        run_suite("oracle", cfg, trials=3, jobs=64)
        assert pools == [3, 4]

    def test_unknown_suite_is_refused(self):
        with pytest.raises(ValueError):
            run_trial("vibes", GenConfig(), 0)

    def test_fuse_trips_are_not_failures(self, monkeypatch):
        monkeypatch.setenv("ZXTK_FUSE", "1")
        # extraction always needs more than one step on the CNOT block
        report = run_suite("oracle", GenConfig(seed=5), trials=2, diagram=cnot_diagram())
        assert report.ok
        assert report.count("fuse") == 2

    def test_grounded_oracle_reads_disconnected_diagrams(self):
        cfg = GenConfig(seed=3, max_generators=6, allow_ground=True, require_connected=False)
        report = run_suite("oracle", cfg, trials=30)
        drawn = [random_diagram(report.config, i) for i in range(30)]
        assert any(d.has_ground() and len(connected_components(d)) > 1 for d in drawn)
        assert report.ok and report.count("pass") == 30

    def test_effective_config(self):
        assert effective_config("simulation", GenConfig()).allow_ground


class TestReports:
    def test_json_shape(self):
        report = run_suite("oracle", GenConfig(seed=5, max_generators=4), trials=4)
        doc = report.to_json()
        assert set(doc) == {"config", "counts", "max_deviation", "ok", "suite", "trials"}
        assert set(doc["counts"]) == {"pass", "fail", "fuse", "skip"}
        assert all(
            set(t) == {"detail", "deviation", "index", "outcome"} for t in doc["trials"]
        )
        json.dumps(doc)  # must be plain data

    def test_json_config_lists_every_field_in_order(self):
        cfg = GenConfig(seed=5, max_generators=4, angle_pool=(Fraction(1, 2), 0.25))
        doc = run_suite("oracle", cfg, trials=1).to_json()
        assert list(doc["config"].items()) == [
            ("seed", 5),
            ("max_generators", 4),
            ("max_inputs", 3),
            ("max_outputs", 3),
            ("max_spider_arity", 4),
            ("angle_pool", ["pi/2", "0.25"]),
            ("allow_ground", False),
            ("require_connected", True),
            ("require_acyclic", False),
        ]

    def test_summary_text(self):
        report = run_suite("oracle", GenConfig(seed=5, max_generators=4), trials=4)
        text = report.summary()
        assert text.startswith("suite oracle: ok")
        assert "4 pass" in text
