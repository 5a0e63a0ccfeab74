"""Construction language and the on-disk formats."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxtk import (
    Dir,
    Token,
    TokenState,
    interp,
    interp_cpm,
    load_diagram_text,
    normalize,
    parse_diagram,
    parse_dsl,
    parse_matrix,
    parse_state,
    parse_trace,
    serialize_diagram,
    serialize_matrix,
    serialize_state,
    serialize_trace,
    swap_wires,
)
from zxtk.errors import CompositionError, DslSyntaxError, FormatError
from zxtk.families import cnot_diagram
from zxtk.verify import GenConfig, random_diagram

D, U = Dir.DOWN, Dir.UP


class TestDsl:
    def test_sequential_composition(self):
        d = parse_dsl("H ; H")
        assert np.allclose(interp(d), np.eye(2), atol=1e-12)

    def test_tensor_binds_tighter(self):
        d = parse_dsl("H * H ; swap")
        assert d.n_inputs == 2 and d.n_outputs == 2

    def test_cnot_expression(self):
        d = parse_dsl("(Z(1,2,0) * id) ; (id * X(2,1,0))")
        assert np.allclose(interp(d), interp(cnot_diagram()), atol=1e-12)

    def test_swap_atom(self):
        assert np.allclose(interp(parse_dsl("swap")), np.eye(4)[[0, 2, 1, 3]], atol=1e-12)
        assert np.allclose(interp(parse_dsl("swap ; swap")), np.eye(4), atol=1e-12)

    def test_ground_atom(self):
        d = parse_dsl("ground")
        assert np.allclose(interp_cpm(d), [[1, 0, 0, 1]], atol=1e-12)

    def test_closed_loop_scalar(self):
        d = parse_dsl("cap ; cup")
        assert np.allclose(interp(d), [[2]], atol=1e-12)

    def test_comments_and_whitespace(self):
        d = parse_dsl("# a plain wire\n  id \n")
        assert d.n_inputs == d.n_outputs == 1

    def test_parsed_names_are_canonical(self):
        d = parse_dsl("(Z(1,2,0) * id) ; (id * X(2,1,0))")
        assert list(d.inputs) == ["a1", "a2"] and list(d.outputs) == ["b1", "b2"]

    def test_zero_interface_composition_is_refused(self):
        with pytest.raises(CompositionError):
            parse_dsl("cup ; cap")

    def test_arity_mismatch_is_refused(self):
        with pytest.raises(CompositionError):
            parse_dsl("H ; cup")


class TestDslErrors:
    @pytest.mark.parametrize(
        "text,position",
        [
            ("Z(1,", 4),  # integer expected at end of input
            ("H @ H", 2),  # bad character
            ("Z(1,2,0) H", 9),  # trailing input
            ("foo", 0),  # unknown generator
            ("Z(1.5,1)", 2),  # spider arity must be integral
        ],
    )
    def test_error_positions(self, text, position):
        with pytest.raises(DslSyntaxError) as err:
            parse_dsl(text)
        assert err.value.position == position

    def test_decimal_pi_multiple_is_refused(self):
        with pytest.raises(DslSyntaxError):
            parse_dsl("Z(1,1,0.5*pi)")


class TestAngles:
    @pytest.mark.parametrize(
        "text,mult",
        [
            ("3pi/4", Fraction(3, 4)),
            ("-pi/2", Fraction(-1, 2)),
            ("2pi", Fraction(2)),
            ("3*pi/4", Fraction(3, 4)),
            ("pi", Fraction(1)),
            ("0", Fraction(0)),
        ],
    )
    def test_exact_pi_multiples(self, text, mult):
        d = parse_dsl(f"Z(1,1,{text})")
        assert d.generators[0].angle.pi_multiple == mult

    def test_decimal_radians_stay_raw(self):
        d = parse_dsl("Z(1,1,0.5)")
        a = d.generators[0].angle
        assert a.pi_multiple is None and a.raw_radians == 0.5

    def test_exact_angles_survive_the_json_format(self):
        d = parse_dsl("Z(1,1,3pi/4)")
        back = parse_diagram(serialize_diagram(d))
        assert back.generators[0].angle.pi_multiple == Fraction(3, 4)


class TestDiagramFormat:
    def test_round_trip_is_byte_identical(self, cnot):
        text = serialize_diagram(cnot)
        again = serialize_diagram(parse_diagram(text))
        assert text == again

    def test_semantics_survive(self, cnot):
        assert np.allclose(interp(parse_diagram(serialize_diagram(cnot))), interp(cnot), atol=1e-12)

    def test_tampered_edges_are_refused(self, cnot):
        import json

        doc = json.loads(serialize_diagram(cnot))
        doc["edges"][0]["label"] = "zz"
        with pytest.raises(FormatError):
            parse_diagram(json.dumps(doc))

    def test_bad_version_is_refused(self, cnot):
        import json

        doc = json.loads(serialize_diagram(cnot))
        doc["version"] = 99
        with pytest.raises(FormatError):
            parse_diagram(json.dumps(doc))

    def test_not_json_is_refused(self):
        with pytest.raises(FormatError):
            parse_diagram("spiders all the way down")


class TestLoader:
    def test_dispatch_by_suffix(self, cnot):
        d1 = load_diagram_text("H ; H", ".zxd")
        assert d1.n_inputs == 1
        d2 = load_diagram_text(serialize_diagram(cnot), ".zxj")
        assert np.allclose(interp(d2), interp(cnot), atol=1e-12)

    def test_unknown_suffix_is_refused(self):
        with pytest.raises(FormatError):
            load_diagram_text("H", ".txt")


class TestStateFormat:
    def test_round_trip_is_byte_identical(self):
        s = TokenState(
            [
                (0.5 + 0.25j, [Token("a1", D, (1,)), Token("b2", U, (0,))]),
                (2.0**-0.5, [Token("e1", D, (0, 1))]),
            ]
        )
        text = serialize_state(s)
        assert serialize_state(parse_state(text)) == text
        assert parse_state(text) == s

    def test_scalar_and_zero_states(self):
        for s in (TokenState([(0.5, [])]), TokenState.zero()):
            assert parse_state(serialize_state(s)) == s

    def test_bad_direction_is_refused(self):
        text = serialize_state(TokenState.single(1.0, [Token("a1", D, (1,))]))
        with pytest.raises(FormatError):
            parse_state(text.replace('"down"', '"sideways"'))


class TestMatrixFormat:
    def test_round_trip_is_byte_identical(self, cnot):
        text = serialize_matrix(interp(cnot))
        assert serialize_matrix(parse_matrix(text)) == text

    def test_hadamard_entry_is_exact(self):
        text = serialize_matrix(interp(parse_dsl("H")))
        assert "0.7071067811865476" in text

    def test_vectors_widen_to_one_row(self):
        m = parse_matrix(serialize_matrix(np.array([1j, 2.0])))
        assert m.shape == (1, 2) and m[0, 1] == 2.0

    def test_shape_mismatch_is_refused(self):
        import json

        doc = json.loads(serialize_matrix(np.eye(2)))
        doc["shape"] = [3, 3]
        with pytest.raises(FormatError):
            parse_matrix(json.dumps(doc))

    def test_entry_that_is_not_a_number_pair_is_refused(self):
        import json

        doc = {"entries": [["a", "b"]], "shape": [1, 2], "version": 1}
        with pytest.raises(FormatError):
            parse_matrix(json.dumps(doc))


class TestTraceFormat:
    @pytest.fixture
    def trace(self, cnot):
        seed = TokenState.single(1.0, [Token("a1", D, (1,)), Token("a2", D, (0,))])
        _, tr = normalize(cnot, seed)
        return tr

    def test_round_trip_is_byte_identical(self, trace):
        text = serialize_trace(trace)
        assert serialize_trace(parse_trace(text)) == text

    def test_steps_survive(self, trace):
        back = parse_trace(serialize_trace(trace))
        assert len(back) == len(trace)
        assert [s.rule for s in back.steps] == [s.rule for s in trace.steps]
        assert back.final == trace.final
        assert back.initial == trace.initial

    def test_one_line_per_step(self, trace):
        lines = serialize_trace(trace).strip().splitlines()
        assert len(lines) == len(trace) + 1  # header plus one record per move

    def test_empty_file_is_refused(self):
        with pytest.raises(FormatError):
            parse_trace("")

    def test_wrong_kind_is_refused(self):
        with pytest.raises(FormatError):
            parse_trace('{"kind": "grocery-list", "version": 1}')

    @pytest.mark.parametrize("header", ['["kind", "trace"]', '"trace"'])
    def test_header_that_is_not_an_object_is_refused(self, header):
        with pytest.raises(FormatError):
            parse_trace(header)

    def test_non_numeric_bit_in_a_record_is_refused(self, trace):
        import json

        lines = serialize_trace(trace).splitlines()
        record = json.loads(lines[1])
        record["token"]["bits"] = ["x"]
        lines[1] = json.dumps(record)
        with pytest.raises(FormatError):
            parse_trace("\n".join(lines))


# -- property round-trips ------------------------------------------------------

CFG = GenConfig(seed=14, max_generators=6, max_inputs=3, max_outputs=3)
CFG_G = GenConfig(seed=15, max_generators=5, allow_ground=True)


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=50)
def test_diagram_round_trip(index):
    d = random_diagram(CFG_G if index % 3 == 0 else CFG, index)
    text = serialize_diagram(d)
    back = parse_diagram(text)
    assert serialize_diagram(back) == text
    assert back.generators == d.generators
    assert back.inputs == d.inputs and back.outputs == d.outputs


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=50)
def test_state_round_trip(index):
    rng = random.Random(index)
    width = rng.choice((1, 2))
    terms = []
    for _ in range(rng.randint(0, 4)):
        toks = [
            Token(
                f"e{rng.randint(1, 5)}",
                rng.choice((D, U)),
                tuple(rng.randint(0, 1) for _ in range(width)),
            )
            for _ in range(rng.randint(0, 3))
        ]
        terms.append((complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), toks))
    s = TokenState(terms)
    text = serialize_state(s)
    assert serialize_state(parse_state(text)) == text
    assert parse_state(text) == s


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=50)
def test_matrix_round_trip(index):
    rng = np.random.default_rng(index)
    m = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5))) + 1j * rng.normal(size=(1,))
    text = serialize_matrix(m)
    assert serialize_matrix(parse_matrix(text)) == text
    assert np.array_equal(parse_matrix(text), np.atleast_2d(m))
