"""The two-bit machine: discard rules, doubling, and its pure-run simulation."""

import cmath
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxtk import (
    Angle,
    Diagram,
    Dir,
    GenKind,
    Generator,
    GROUND_RULES,
    Token,
    TokenState,
    check_simulation,
    cpm_construct,
    cpm_map,
    diffuse_once,
    g_extract_superoperator,
    interp_cpm,
    normalize,
    step,
    term_key,
)
from zxtk.errors import DiagramError
from zxtk.families import cnot_diagram, spider_trap
from zxtk.verify import GenConfig, random_diagram

D, U = Dir.DOWN, Dir.UP


def tk(e, d, x, y):
    return Token(e, d, (x, y))


def lone_ground():
    return Diagram((Generator(GenKind.GROUND, ("a",), ()),), ("a",), ())


def measurement():
    return Diagram(
        (Generator(GenKind.Z, ("a1",), ("b1", "e1")), Generator(GenKind.GROUND, ("e1",), ())),
        ("a1",),
        ("b1",),
    )


def ground_after_h():
    return Diagram(
        (Generator(GenKind.H, ("a1",), ("e1",)), Generator(GenKind.GROUND, ("e1",), ())),
        ("a1",),
        (),
    )


def phase_wire(angle):
    return Diagram((Generator(GenKind.Z, ("a",), ("b",), angle=angle),), ("a",), ("b",))


class TestRuleTable:
    def test_spider_phase_sees_the_bit_difference(self):
        g = Generator(GenKind.Z, ("a",), ("b",), angle=Angle.pi("1/2"))
        cases = {(1, 0): 1j, (0, 1): -1j, (1, 1): 1.0, (0, 0): 1.0}
        for bits, want in cases.items():
            ((coeff, emitted),) = GROUND_RULES.diffuse(g, GenKind.Z, "in", 0, Token("a", D, bits))
            assert abs(coeff - want) < 1e-12
            assert emitted == (Token("b", D, bits),)

    def test_hadamard_opens_four_branches(self):
        g = Generator(GenKind.H, ("a",), ("b",))
        branches = GROUND_RULES.diffuse(g, GenKind.H, "in", 0, tk("a", D, 1, 1))
        table = {emitted[0].bits: coeff for coeff, emitted in branches}
        assert table == {(0, 0): 0.5, (0, 1): -0.5, (1, 0): -0.5, (1, 1): 0.5}

    def test_bends_pass_the_pair_through(self):
        cup = Generator(GenKind.CUP, ("a", "b"), ())
        ((c, em),) = GROUND_RULES.diffuse(cup, GenKind.CUP, "in", 0, tk("a", D, 1, 0))
        assert c == 1 and em == (tk("b", U, 1, 0),)
        cap = Generator(GenKind.CAP, (), ("a", "b"))
        ((c, em),) = GROUND_RULES.diffuse(cap, GenKind.CAP, "out", 0, tk("a", U, 0, 1))
        assert c == 1 and em == (tk("b", D, 0, 1),)

    def test_discard_keeps_agreeing_pairs_only(self):
        g = Generator(GenKind.GROUND, ("a",), ())
        assert GROUND_RULES.diffuse(g, GenKind.GROUND, "in", 0, tk("a", D, 1, 1)) == [(1, ())]
        assert GROUND_RULES.diffuse(g, GenKind.GROUND, "in", 0, tk("a", D, 1, 0)) == []


class TestDiscardMoves:
    def test_agreeing_token_leaves_a_scalar(self):
        d = lone_ground()
        seed = TokenState.single(1.0, [tk("a", D, 0, 0)])
        site = (term_key([tk("a", D, 0, 0)]), tk("a", D, 0, 0))
        out = diffuse_once(d, seed, site, rules=GROUND_RULES)
        assert out.terms == {(): 1.0}

    def test_disagreeing_token_kills_the_term(self):
        d = lone_ground()
        seed = TokenState.single(1.0, [tk("a", D, 0, 1)])
        site = (term_key([tk("a", D, 0, 1)]), tk("a", D, 0, 1))
        out = diffuse_once(d, seed, site, rules=GROUND_RULES)
        assert len(out) == 0

    def test_trace_out_is_recorded_by_name(self):
        seed = TokenState.single(1.0, [tk("a", D, 1, 1)])
        nf, trace = normalize(lone_ground(), seed, rules=GROUND_RULES)
        assert trace.steps[0].rule == "trace-out"
        assert nf.terms == {(): 1.0}


class TestRuns:
    def test_phase_shows_up_once_per_copy(self):
        d = phase_wire(Angle.pi("1/2"))
        out = step(d, TokenState.single(1.0, [tk("a", D, 1, 0)]), rules=GROUND_RULES)
        assert out.allclose(TokenState.single(1j, [tk("b", D, 1, 0)]))

    def test_measurement_keeps_diagonal_pairs(self):
        seed = TokenState.single(1.0, [tk("a1", D, 1, 1)])
        nf, _ = normalize(measurement(), seed, rules=GROUND_RULES)
        assert nf.allclose(TokenState.single(1.0, [tk("b1", D, 1, 1)]))

    def test_measurement_erases_off_diagonal_pairs(self):
        seed = TokenState.single(1.0, [tk("a1", D, 1, 0)])
        nf, _ = normalize(measurement(), seed, rules=GROUND_RULES)
        assert len(nf) == 0

    def test_pure_diagrams_run_both_copies_at_once(self, trap):
        nf, _ = normalize(trap, TokenState.single(1.0, [tk("a", D, 1, 0)]), rules=GROUND_RULES)
        assert nf.allclose(TokenState.single(1.0, [tk("d", D, 1, 0)]))


def interleave_perm(n):
    # kron block order (plain, conjugate) -> pairwise (plain, conjugate) per wire
    return [2 * (k % n) + (k // n) for k in range(2 * n)]


def grouped_to_interleaved(m, n_out, n_in):
    t = m.reshape((2,) * (2 * n_out + 2 * n_in))
    perm = interleave_perm(n_out) + [2 * n_out + p for p in interleave_perm(n_in)]
    return t.transpose(perm).reshape(4**n_out, 4**n_in)


class TestSuperoperator:
    def test_pure_diagram_doubles(self, cnot):
        from zxtk import interp

        w = interp(cnot)
        want = grouped_to_interleaved(np.kron(w, w.conj()), 2, 2)
        got = g_extract_superoperator(cnot)
        assert np.allclose(got, want, atol=1e-9)
        assert np.allclose(got, interp_cpm(cnot), atol=1e-9)

    def test_lone_ground_is_the_trace(self):
        assert np.allclose(g_extract_superoperator(lone_ground()), [[1, 0, 0, 1]], atol=1e-12)

    def test_basis_change_before_discard_changes_nothing(self):
        assert np.allclose(g_extract_superoperator(ground_after_h()), [[1, 0, 0, 1]], atol=1e-9)

    def test_measurement_dephases(self):
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 3] = 1
        assert np.allclose(g_extract_superoperator(measurement()), want, atol=1e-12)

    def test_trap_is_the_identity_channel(self, trap):
        assert np.allclose(g_extract_superoperator(trap), np.eye(4), atol=1e-12)

    def test_every_seed_edge_agrees(self):
        meas = measurement()
        want = interp_cpm(meas)
        for e in meas.edge_order:
            assert np.allclose(g_extract_superoperator(meas, e), want, atol=1e-9), e


SIM_CASES = [
    ("lone-ground", lone_ground, [("a", D, (1, 1))]),
    ("measurement", measurement, [("a1", D, (0, 0))]),
    ("ground-after-h", ground_after_h, [("a1", D, (1, 1))]),
    ("cnot", cnot_diagram, [("a1", D, (1, 1)), ("a2", D, (0, 0))]),
]


class TestSimulation:
    @pytest.mark.parametrize("name,build,toks", SIM_CASES, ids=[c[0] for c in SIM_CASES])
    def test_every_move_is_matched_on_the_doubled_diagram(self, name, build, toks):
        d = build()
        seed = TokenState.single(1.0, [Token(e, dr, bits) for e, dr, bits in toks])
        report = check_simulation(d, seed)
        assert report.ok, report.message
        for s in report.steps:
            if s.rule == "trace-out":
                assert s.coordinated_diffusions == 1
                assert s.rule_applications == 2  # the bent wire's bounce plus its collision
            else:
                assert s.coordinated_diffusions == 2

    def test_ground_moves_are_counted(self):
        seed = TokenState.single(1.0, [tk("a1", D, 0, 0)])
        assert check_simulation(measurement(), seed).ground_moves == 1
        seed = TokenState.single(1.0, [tk("a1", D, 1, 1), tk("a2", D, 0, 0)])
        assert check_simulation(cnot_diagram(), seed).ground_moves == 0

    def test_pending_pairs_are_refused(self, trap):
        seed = TokenState.single(1.0, [tk("b", D, 0, 0), tk("b", U, 0, 0)])
        with pytest.raises(DiagramError):
            check_simulation(trap, seed)

    def test_doubling_commutes_with_normalization(self):
        meas = measurement()
        seed = TokenState.single(1.0, [tk("a1", D, 1, 1)])
        nf, _ = normalize(meas, seed, rules=GROUND_RULES)
        doubled_nf, _ = normalize(cpm_construct(meas), cpm_map(seed, meas))
        assert cpm_map(nf, meas).allclose(doubled_nf, 1e-9)


GROUNDED = GenConfig(seed=77, max_generators=5, max_inputs=2, max_outputs=2, allow_ground=True)


def boundary_seed(d, rng):
    if d.inputs:
        return TokenState.single(
            1.0, [Token(e, D, (rng.randint(0, 1), rng.randint(0, 1))) for e in d.inputs]
        )
    if d.outputs:
        return TokenState.single(
            1.0, [Token(e, U, (rng.randint(0, 1), rng.randint(0, 1))) for e in d.outputs]
        )
    return None


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=25)
def test_superoperator_matches_the_dense_doubling(index):
    d = random_diagram(GROUNDED, index)
    if not d.edge_order:
        return
    assert np.abs(g_extract_superoperator(d) - interp_cpm(d)).max() < 1e-9


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=25)
def test_doubling_commutes_on_random_diagrams(index):
    d = random_diagram(GROUNDED, index)
    seed = boundary_seed(d, random.Random(index))
    if seed is None:
        return
    nf, _ = normalize(d, seed, rules=GROUND_RULES)
    doubled_nf, _ = normalize(cpm_construct(d), cpm_map(seed, d))
    assert cpm_map(nf, d).allclose(doubled_nf, 1e-9)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=20)
def test_simulation_holds_on_random_diagrams(index):
    d = random_diagram(GROUNDED, index)
    seed = boundary_seed(d, random.Random(7000 + index))
    if seed is None:
        return
    report = check_simulation(d, seed)
    assert report.ok, report.message
