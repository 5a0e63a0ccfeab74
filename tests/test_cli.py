"""The zxtk command line: formats in, JSON out, exit codes 0/1/2."""

import json
import subprocess

import numpy as np
import pytest

from zxtk import (
    Dir,
    Token,
    TokenState,
    interp,
    interp_cpm,
    parse_diagram,
    parse_dsl,
    parse_matrix,
    parse_state,
    parse_trace,
    serialize_diagram,
    serialize_state,
)
from zxtk.cli import main
from zxtk.families import cnot_diagram

CNOT_DSL = "(Z(1,2,0) * id) ; (id * X(2,1,0))"
MEAS_DSL = "Z(1,2,0) ; (id * ground)"
R2 = 2.0**-0.5
D = Dir.DOWN


@pytest.fixture
def cnot_zxd(tmp_path):
    p = tmp_path / "cnot.zxd"
    p.write_text(CNOT_DSL)
    return str(p)


@pytest.fixture
def cnot_zxj(tmp_path):
    p = tmp_path / "cnot.zxj"
    p.write_text(serialize_diagram(cnot_diagram()))
    return str(p)


@pytest.fixture
def meas_zxd(tmp_path):
    p = tmp_path / "meas.zxd"
    p.write_text(MEAS_DSL)
    return str(p)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInterp:
    def test_pure_matrix(self, capsys, cnot_zxd):
        code, out, _ = run_main(capsys, "interp", cnot_zxd)
        assert code == 0
        assert np.allclose(parse_matrix(out), interp(cnot_diagram()), atol=1e-12)

    def test_cpm_flag(self, capsys, cnot_zxd):
        code, out, _ = run_main(capsys, "interp", cnot_zxd, "--cpm")
        assert code == 0
        assert np.allclose(parse_matrix(out), interp_cpm(cnot_diagram()), atol=1e-12)

    def test_grounds_switch_automatically(self, capsys, meas_zxd):
        code, out, _ = run_main(capsys, "interp", meas_zxd)
        assert code == 0
        m = parse_matrix(out)
        assert m.shape == (4, 4) and abs(m[0, 0] - 1) < 1e-12 and abs(m[1, 1]) < 1e-12

    def test_out_file(self, capsys, tmp_path, cnot_zxd):
        target = tmp_path / "m.mat.json"
        code, out, _ = run_main(capsys, "interp", cnot_zxd, "--out", str(target))
        assert code == 0 and out == ""
        assert np.allclose(parse_matrix(target.read_text()), interp(cnot_diagram()), atol=1e-12)

    def test_document_without_edges_exits_2(self, capsys, tmp_path):
        doc = json.loads(serialize_diagram(cnot_diagram()))
        del doc["edges"]
        p = tmp_path / "no-edges.zxj"
        p.write_text(json.dumps(doc))
        code, _, err = run_main(capsys, "interp", str(p))
        assert code == 2 and "malformed diagram document" in err

    def test_angle_with_zero_denominator_exits_2(self, capsys, tmp_path):
        doc = json.loads(serialize_diagram(cnot_diagram()))
        doc["generators"][0]["angle"] = {"pi": [0, 0]}
        p = tmp_path / "zero-den.zxj"
        p.write_text(json.dumps(doc))
        code, _, err = run_main(capsys, "interp", str(p))
        assert code == 2 and "malformed diagram document" in err

    def test_dsl_angle_over_zero_exits_2(self, capsys, tmp_path):
        p = tmp_path / "zero-den.zxd"
        p.write_text("Z(1,1,pi/0)")
        code, _, err = run_main(capsys, "interp", str(p))
        assert code == 2 and err.startswith("error:") and "zero denominator" in err

    def test_spider_past_the_array_axis_cap_exits_2(self, capsys, tmp_path):
        p = tmp_path / "wide.zxd"
        p.write_text("Z(1,73,0)")
        code, _, err = run_main(capsys, "interp", str(p))
        assert code == 2 and err.startswith("error:") and "74-leg spider" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "interp", str(tmp_path / "absent.zxd"))
        assert code == 2 and err.startswith("error: cannot read")

    def test_out_path_that_is_a_directory_exits_2(self, capsys, tmp_path, cnot_zxd):
        code, _, err = run_main(capsys, "interp", cnot_zxd, "--out", str(tmp_path))
        assert code == 2 and err.startswith("error: cannot write")


class TestRun:
    def test_bitstring_input(self, capsys, cnot_zxd):
        code, out, _ = run_main(capsys, "run", cnot_zxd, "--input", "10")
        assert code == 0
        want = TokenState.single(R2, [Token("b1", D, (1,)), Token("b2", D, (1,))])
        assert parse_state(out).allclose(want)

    def test_state_file_input(self, capsys, tmp_path, cnot_zxd):
        seed = tmp_path / "seed.state.json"
        seed.write_text(
            serialize_state(
                TokenState.single(1.0, [Token("a1", D, (1,)), Token("a2", D, (0,))])
            )
        )
        code, out, _ = run_main(capsys, "run", cnot_zxd, "--input", str(seed))
        assert code == 0
        assert parse_state(out).allclose(
            TokenState.single(R2, [Token("b1", D, (1,)), Token("b2", D, (1,))])
        )

    def test_ground_diagrams_widen_the_bits(self, capsys, meas_zxd):
        code, out, _ = run_main(capsys, "run", meas_zxd, "--input", "1")
        assert code == 0
        assert parse_state(out).allclose(TokenState.single(1.0, [Token("b1", D, (1, 1))]))

    def test_trace_side_file(self, capsys, tmp_path, cnot_zxd):
        target = tmp_path / "run.trace.jsonl"
        code, out, _ = run_main(capsys, "run", cnot_zxd, "--input", "10", "--trace", str(target))
        assert code == 0
        tr = parse_trace(target.read_text())
        assert len(tr) >= 1 and tr.final == parse_state(out)

    def test_trace_into_a_missing_directory_exits_2(self, capsys, tmp_path, cnot_zxd):
        target = tmp_path / "absent" / "t.jsonl"
        code, _, err = run_main(capsys, "run", cnot_zxd, "--input", "10", "--trace", str(target))
        assert code == 2 and err.startswith("error: cannot write")

    def test_scheduler_flag(self, capsys, cnot_zxd):
        code, out, _ = run_main(capsys, "run", cnot_zxd, "--input", "10", "--scheduler", "random:3")
        assert code == 0
        want = TokenState.single(R2, [Token("b1", D, (1,)), Token("b2", D, (1,))])
        assert parse_state(out).allclose(want)

    def test_bad_bitstring(self, capsys, cnot_zxd):
        code, _, err = run_main(capsys, "run", cnot_zxd, "--input", "2x")
        assert code == 2 and err.startswith("error:")

    def test_wrong_width(self, capsys, cnot_zxd):
        code, _, err = run_main(capsys, "run", cnot_zxd, "--input", "101")
        assert code == 2 and "2 input wires" in err

    def test_seed_token_off_the_diagram_exits_2(self, capsys, tmp_path):
        diagram = tmp_path / "h.zxd"
        diagram.write_text("H ; H")
        seed = tmp_path / "seed.state.json"
        seed.write_text(serialize_state(TokenState.single(1.0, [Token("zz", D, (0,))])))
        code, _, err = run_main(capsys, "run", str(diagram), "--input", str(seed))
        assert code == 2 and err.startswith("error:") and "'zz'" in err

    def test_seed_bit_other_than_0_or_1_exits_2(self, capsys, tmp_path):
        diagram = tmp_path / "h.zxd"
        diagram.write_text("H ; H")
        seed = tmp_path / "seed.state.json"
        seed.write_text(serialize_state(TokenState.single(1.0, [Token("a1", D, (2,))])))
        code, _, err = run_main(capsys, "run", str(diagram), "--input", str(seed))
        assert code == 2 and err.startswith("error:") and "0 or 1" in err

    def test_seed_bit_that_is_not_a_number_exits_2(self, capsys, tmp_path):
        diagram = tmp_path / "h.zxd"
        diagram.write_text("H ; H")
        doc = json.loads(serialize_state(TokenState.single(1.0, [Token("a1", D, (0,))])))
        doc["terms"][0]["tokens"][0]["bits"] = ["x"]
        seed = tmp_path / "seed.state.json"
        seed.write_text(json.dumps(doc))
        code, _, err = run_main(capsys, "run", str(diagram), "--input", str(seed))
        assert code == 2 and "malformed state document" in err

    def test_fuse_trip_is_a_verification_failure(self, capsys, cnot_zxd, monkeypatch):
        monkeypatch.setenv("ZXTK_FUSE", "2")
        code, _, err = run_main(capsys, "run", cnot_zxd, "--input", "10")
        assert code == 1 and "run did not finish" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_fuse_setting_exits_2(self, capsys, cnot_zxd, monkeypatch, value):
        monkeypatch.setenv("ZXTK_FUSE", value)
        code, _, err = run_main(capsys, "run", cnot_zxd, "--input", "10")
        assert code == 2 and err.startswith("error:") and "ZXTK_FUSE" in err

    def test_bad_random_seed_exits_2(self, capsys, cnot_zxd):
        code, _, err = run_main(capsys, "run", cnot_zxd, "--input", "10", "--scheduler", "random:abc")
        assert code == 2 and err.startswith("error:") and "random:abc" in err


class TestTrace:
    def test_stdout_jsonl(self, capsys, cnot_zxd):
        code, out, _ = run_main(capsys, "trace", cnot_zxd, "--input", "10")
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["kind"] == "trace"
        tr = parse_trace(out)
        assert len(tr) >= 1
        assert tr.final.allclose(
            TokenState.single(R2, [Token("b1", D, (1,)), Token("b2", D, (1,))])
        )


class TestExtract:
    def test_seed_edge(self, capsys, cnot_zxj):
        code, out, _ = run_main(capsys, "extract", cnot_zxj, "--seed-edge", "e1")
        assert code == 0
        assert np.allclose(parse_matrix(out), interp(cnot_diagram()), atol=1e-9)

    def test_general_form_by_default(self, capsys, cnot_zxj):
        code, out, _ = run_main(capsys, "extract", cnot_zxj)
        assert code == 0
        assert np.allclose(parse_matrix(out), interp(cnot_diagram()), atol=1e-9)

    def test_superoperator_reading(self, capsys, meas_zxd):
        code, out, _ = run_main(capsys, "extract", meas_zxd)
        assert code == 0
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = 1
        assert np.allclose(parse_matrix(out), want, atol=1e-9)

    def test_ground_flag_forces_the_superoperator(self, capsys, cnot_zxd):
        code, out, _ = run_main(capsys, "extract", cnot_zxd, "--ground")
        assert code == 0
        assert np.allclose(parse_matrix(out), interp_cpm(cnot_diagram()), atol=1e-9)

    def test_disconnected_channel(self, capsys, tmp_path):
        p = tmp_path / "two.zxd"
        p.write_text(f"({MEAS_DSL}) * H")
        code, out, _ = run_main(capsys, "extract", str(p))
        assert code == 0
        want = interp_cpm(parse_dsl(p.read_text()))
        assert np.allclose(parse_matrix(out), want, atol=1e-9)

    def test_seed_edge_on_a_disconnected_diagram_exits_2(self, capsys, tmp_path):
        p = tmp_path / "pieces.zxd"
        p.write_text(f"Z(0,0,pi/2) * (swap ; (({MEAS_DSL}) * id))")
        code, _, err = run_main(capsys, "extract", str(p), "--seed-edge", "a2")
        assert code == 2 and err.startswith("error:")
        assert "without a seed edge" in err and "extract_matrix_general" not in err

    def test_unknown_seed_edge(self, capsys, cnot_zxj):
        code, _, err = run_main(capsys, "extract", cnot_zxj, "--seed-edge", "nope")
        assert code == 2 and err.startswith("error:")


class TestCpm:
    def test_doubled_diagram_document(self, capsys, cnot_zxd):
        code, out, _ = run_main(capsys, "cpm", cnot_zxd)
        assert code == 0
        doubled = parse_diagram(out)
        assert doubled.n_inputs == 4 and doubled.n_outputs == 4
        assert np.allclose(interp(doubled), interp_cpm(cnot_diagram()), atol=1e-12)


class TestCheck:
    def test_file_oracle(self, capsys, cnot_zxj):
        code, out, _ = run_main(capsys, "check", cnot_zxj)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["outcome"] == "pass"
        assert payload["file"] == cnot_zxj and payload["deviation"] < 1e-12

    def test_file_suite(self, capsys, cnot_zxj):
        code, out, err = run_main(capsys, "check", cnot_zxj, "--suite", "confluence", "--trials", "2")
        assert code == 0
        assert "suite confluence: ok" in err
        doc = json.loads(out)
        assert doc["ok"] and doc["counts"]["pass"] == 2

    def test_random_mode(self, capsys):
        code, out, err = run_main(
            capsys, "check", "--random", "seed=3,max_generators=4", "--trials", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "oracle" and doc["ok"]
        assert doc["config"]["seed"] == 3 and doc["config"]["max_generators"] == 4
        assert "suite oracle: ok" in err

    def test_random_mode_picks_suites(self, capsys):
        code, out, _ = run_main(
            capsys, "check", "--random", "seed=3,max_generators=3", "--suite", "invariants",
            "--trials", "2",
        )
        assert code == 0 and json.loads(out)["suite"] == "invariants"

    def test_file_and_random_conflict(self, capsys, cnot_zxj):
        code, _, err = run_main(capsys, "check", cnot_zxj, "--random", "seed=1")
        assert code == 2 and "not both" in err
        code, _, err = run_main(capsys, "check")
        assert code == 2 and "not both" in err

    def test_bad_config_key(self, capsys):
        code, _, err = run_main(capsys, "check", "--random", "seed=1,frobnicate=9")
        assert code == 2 and "known keys" in err

    def test_bad_config_value(self, capsys):
        code, _, err = run_main(capsys, "check", "--random", "allow_ground=maybe")
        assert code == 2 and "true or false" in err

    def test_config_rejects_out_of_range(self, capsys):
        code, _, err = run_main(capsys, "check", "--random", "max_inputs=9")
        assert code == 2 and "capped" in err

    @pytest.mark.parametrize("key", ["max_generators", "max_inputs", "max_outputs"])
    def test_config_rejects_negative_sizes(self, capsys, key):
        code, _, err = run_main(capsys, "check", "--random", f"{key}=-1")
        assert code == 2 and err.startswith("error:") and "negative" in err

    @pytest.mark.parametrize("flag, value", [("--trials", "-1"), ("--trials", "0"), ("--jobs", "-2")])
    def test_counts_below_one_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as e:
            main(["check", "--random", "max_generators=3", flag, value])
        assert e.value.code == 2 and "positive integer" in capsys.readouterr().err


class TestParser:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        p = tmp_path / "h.zxd"
        p.write_text("H ; H")
        out = subprocess.run(
            ["zxtk", "interp", str(p)], capture_output=True, text=True
        )
        assert out.returncode == 0
        assert np.allclose(parse_matrix(out.stdout), np.eye(2), atol=1e-12)
