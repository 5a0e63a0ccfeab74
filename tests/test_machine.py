"""The asynchronous token machine: rules, runs, gates, extraction."""

import cmath
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zxtk import (
    Angle,
    Diagram,
    Dir,
    GenKind,
    Generator,
    PURE_RULES,
    Path,
    Token,
    TokenState,
    collide_all,
    diffuse_once,
    enumerate_cycles,
    enumerate_paths,
    extract_matrix,
    extract_matrix_general,
    extract_state,
    interp,
    is_cycle_balanced,
    is_well_formed,
    normalize,
    polarity,
    rewind_witness,
    run_multi_token,
    run_single_token,
    scripted_strategy,
    step,
    tensor,
    term_key,
)
from zxtk import machine
from zxtk.machine import (
    GROUND_RULES,
    _active_sites,
    _apply_rule,
    _collide_term,
    _depth_map,
    _target_endpoint,
    is_frozen,
    make_strategy,
)
from zxtk.diagram import validate_path
from zxtk.textio import serialize_state, serialize_trace
from zxtk.errors import (
    DiagramError,
    FuseExceeded,
    GroundNotAllowed,
    NormalFormReached,
    NotCycleBalanced,
    NotWellFormed,
)
from zxtk.families import (
    cnot_chain,
    cnot_diagram,
    feedback_loop,
    polarity_chain,
    spider_trap,
    spider_z_nn,
)
from zxtk.verify import GenConfig, random_diagram, _random_seed

D, U = Dir.DOWN, Dir.UP
R2 = 2.0**-0.5


def tk(e, d, *bits):
    return Token(e, d, tuple(bits))


class TestTokenState:
    def test_single_and_zero(self):
        s = TokenState.single(0.5, [tk("a", D, 0)])
        assert len(s) == 1 and s.terms[term_key([tk("a", D, 0)])] == 0.5
        assert len(TokenState.zero()) == 0

    def test_duplicate_terms_merge(self):
        s = TokenState([(0.5, [tk("a", D, 0)]), (0.25, [tk("a", D, 0)])])
        assert len(s) == 1 and abs(s.terms[term_key([tk("a", D, 0)])] - 0.75) < 1e-15

    def test_near_zero_terms_pruned(self):
        s = TokenState([(1e-15, [tk("a", D, 0)])])
        assert len(s) == 0

    def test_add_and_scale(self):
        a = TokenState.single(1.0, [tk("a", D, 0)])
        b = TokenState.single(-1.0, [tk("a", D, 0)])
        assert len(a + b) == 0
        assert (a.scaled(2.0)).terms[term_key([tk("a", D, 0)])] == 2.0

    def test_term_key_sorts(self):
        assert term_key([tk("b", D, 0), tk("a", U, 1)]) == term_key([tk("a", U, 1), tk("b", D, 0)])

    def test_str_form(self):
        s = TokenState.single(R2, [tk("b1", D, 1), tk("b2", D, 1)])
        assert str(s) == "(0.707107+0j)(b1↓1)(b2↓1)"

    def test_allclose_tolerance(self):
        a = TokenState.single(1.0, [tk("a", D, 0)])
        b = TokenState.single(1.0 + 1e-12, [tk("a", D, 0)])
        assert a.allclose(b) and not a.allclose(b, 0)


class TestRuleTable:
    def test_green_phase_only_on_one_bits(self):
        g = Generator(GenKind.Z, ("a",), ("b",), angle=Angle.radians(0.7))
        for x, want in ((0, 1.0), (1, cmath.exp(0.7j))):
            branches = PURE_RULES.diffuse(g, GenKind.Z, "in", 0, tk("a", D, x))
            assert len(branches) == 1
            coeff, emitted = branches[0]
            assert abs(coeff - want) < 1e-12
            assert emitted == (tk("b", D, x),)

    def test_green_emissions_cover_all_other_legs(self):
        g = Generator(GenKind.Z, ("a", "b"), ("c", "d"))
        ((_, emitted),) = PURE_RULES.diffuse(g, GenKind.Z, "in", 0, tk("a", D, 1))
        assert set(emitted) == {tk("b", U, 1), tk("c", D, 1), tk("d", D, 1)}

    def test_hadamard_branches_with_sign(self):
        g = Generator(GenKind.H, ("a",), ("b",))
        branches = PURE_RULES.diffuse(g, GenKind.H, "in", 0, tk("a", D, 1))
        table = {emitted[0].bits[0]: coeff for coeff, emitted in branches}
        assert abs(table[0] - R2) < 1e-15 and abs(table[1] + R2) < 1e-15

    def test_hadamard_upward_exits_upward(self):
        g = Generator(GenKind.H, ("a",), ("b",))
        branches = PURE_RULES.diffuse(g, GenKind.H, "out", 0, tk("b", U, 0))
        assert all(emitted[0] == tk("a", U, z) for (_, emitted), z in zip(branches, (0, 1)))

    def test_cup_bounces_up(self):
        g = Generator(GenKind.CUP, ("a", "b"), ())
        ((coeff, emitted),) = PURE_RULES.diffuse(g, GenKind.CUP, "in", 0, tk("a", D, 1))
        assert coeff == 1 and emitted == (tk("b", U, 1),)

    def test_cap_bounces_down(self):
        g = Generator(GenKind.CAP, (), ("a", "b"))
        ((coeff, emitted),) = PURE_RULES.diffuse(g, GenKind.CAP, "out", 1, tk("b", U, 0))
        assert coeff == 1 and emitted == (tk("a", D, 0),)

    def test_ground_rejected_in_single_bit_mode(self):
        g = Generator(GenKind.GROUND, ("a",), ())
        with pytest.raises(GroundNotAllowed):
            PURE_RULES.diffuse(g, GenKind.GROUND, "in", 0, tk("a", D, 0))


class TestTrapRun:
    def test_two_steps_to_normal_form(self, trap):
        nf, trace = normalize(trap, TokenState.single(1.0, [tk("a", D, 0)]))
        assert len(trace) == 2
        assert nf.allclose(TokenState.single(1.0, [tk("d", D, 0)]))

    def test_divergent_choices_without_collisions(self, trap):
        seed = TokenState.single(1.0, [tk("a", D, 0)])
        s1 = diffuse_once(trap, seed, (term_key([tk("a", D, 0)]), tk("a", D, 0)))
        t1 = term_key([tk("b", D, 0), tk("c", D, 0)])
        assert set(s1.terms) == {t1}
        s2 = diffuse_once(trap, s1, (t1, tk("b", D, 0)))
        t2 = term_key([tk("d", D, 0), tk("c", U, 0), tk("c", D, 0)])
        assert set(s2.terms) == {t2}
        s3 = diffuse_once(trap, s2, (t2, tk("c", U, 0)))
        t3 = term_key([tk("d", D, 0), tk("a", U, 0), tk("b", D, 0), tk("c", D, 0)])
        assert set(s3.terms) == {t3}
        # the pending pair on c annihilates once collisions run
        assert collide_all(s2).allclose(TokenState.single(1.0, [tk("d", D, 0)]))

    def test_each_generator_visited_once(self, trap):
        _, trace = normalize(trap, TokenState.single(1.0, [tk("a", D, 0)]))
        visited = [s.gen_index for s in trace.steps]
        assert sorted(visited) == [0, 1]


CNOT_SCRIPT = [
    tk("a1", D, 1), tk("a2", D, 0), tk("e3", D, 0), tk("e3", D, 1),
    tk("e1", D, 1), tk("e1", D, 1), tk("e4", D, 0), tk("e4", D, 1),
]


class TestCnotRun:
    @pytest.fixture
    def scripted(self, cnot):
        seed = TokenState.single(1.0, [tk("a1", D, 1), tk("a2", D, 0)])
        return normalize(cnot, seed, scripted_strategy(CNOT_SCRIPT))

    def test_intermediate_displays(self, scripted):
        _, trace = scripted
        states = list(trace.states())
        assert states[1].allclose(
            TokenState.single(1.0, [tk("b1", D, 1), tk("e1", D, 1), tk("a2", D, 0)])
        )
        assert states[2].allclose(TokenState([
            (R2, [tk("b1", D, 1), tk("e1", D, 1), tk("e3", D, 0)]),
            (R2, [tk("b1", D, 1), tk("e1", D, 1), tk("e3", D, 1)]),
        ]))
        assert states[4].allclose(TokenState([
            (R2, [tk("b1", D, 1), tk("e1", D, 1), tk("e2", U, 0), tk("e4", D, 0)]),
            (R2, [tk("b1", D, 1), tk("e1", D, 1), tk("e2", U, 1), tk("e4", D, 1)]),
        ]))
        assert states[6].allclose(TokenState([
            (0.5, [tk("b1", D, 1), tk("e4", D, 0)]),
            (-0.5, [tk("b1", D, 1), tk("e4", D, 1)]),
        ]))

    def test_final_state(self, scripted):
        nf, trace = scripted
        assert len(trace) == 8
        assert nf.allclose(TokenState.single(R2, [tk("b1", D, 1), tk("b2", D, 1)]))

    def test_trace_records(self, scripted):
        _, trace = scripted
        assert trace.steps[0].rule == "green-diffusion"
        assert trace.steps[4].rule == "hadamard-diffusion"
        assert trace.steps[4].collisions
        assert trace.rule_applications == 12  # 8 diffusions + 4 collision pairs

    def test_any_scheduler_same_answer(self, cnot):
        seed = TokenState.single(1.0, [tk("a1", D, 1), tk("a2", D, 0)])
        want = TokenState.single(R2, [tk("b1", D, 1), tk("b2", D, 1)])
        for sched in ("deterministic", "random:7", "sparse-first", "slice-order"):
            nf, _ = normalize(cnot, seed, sched)
            assert nf.allclose(want), sched


class TestStep:
    def test_one_diffusion_then_all_collisions(self, trap):
        seed = TokenState.single(1.0, [tk("a", D, 0)])
        s1 = step(trap, seed)
        s2 = step(trap, s1)
        assert s2.allclose(TokenState.single(1.0, [tk("d", D, 0)]))

    def test_finished_state_raises(self, trap):
        nf, _ = normalize(trap, TokenState.single(1.0, [tk("a", D, 0)]))
        with pytest.raises(NormalFormReached):
            step(trap, nf)

    def test_diffuse_demands_a_live_site(self, trap):
        seed = TokenState.single(1.0, [tk("a", D, 0)])
        with pytest.raises(DiagramError):
            diffuse_once(trap, seed, (term_key([tk("b", D, 0)]), tk("b", D, 0)))


class TestRunHelpers:
    def test_multi_token_bitstring(self, cnot):
        mt = run_multi_token(cnot, {"10": 1.0})
        assert mt.allclose(TokenState.single(R2, [tk("b1", D, 1), tk("b2", D, 1)]))

    def test_multi_token_vector(self, cnot):
        vec = np.zeros(4)
        vec[2] = 1.0
        assert run_multi_token(cnot, vec).allclose(run_multi_token(cnot, {"10": 1.0}))

    def test_single_token_leaves_other_wires_open(self, cnot):
        st_ = run_single_token(cnot, 0, 1)
        assert len(st_) == 2
        for term in st_.terms:
            assert {t.edge for t in term} == {"a2", "b1", "b2"}
            assert all(t.direction is U for t in term if t.edge == "a2")


class TestExtraction:
    @pytest.mark.parametrize("name", ["trap", "cnot", "loop", "z33", "chain"])
    def test_matches_dense_oracle(self, name):
        d = {
            "trap": spider_trap(),
            "cnot": cnot_diagram(),
            "loop": feedback_loop(),
            "z33": spider_z_nn(3),
            "chain": cnot_chain(3),
        }[name]
        assert np.allclose(extract_matrix(d), interp(d), atol=1e-12)

    def test_every_seed_edge_works(self, cnot):
        want = interp(cnot)
        for e in cnot.edge_order:
            assert np.allclose(extract_matrix(cnot, e), want, atol=1e-12), e

    def test_spider_family_stays_two_terms(self):
        z10 = spider_z_nn(10)
        state = extract_state(z10)
        assert len(state) == 2
        assert all(len(term) == 20 for term in state.terms)

    def test_disconnected_needs_general_form(self, cnot, trap):
        both = tensor(cnot, trap)
        assert np.allclose(extract_matrix_general(both), interp(both), atol=1e-12)

    def test_edgeless_scalar_component(self, cnot):
        sc = Diagram((Generator(GenKind.Z, (), (), angle=Angle.pi()),), (), ())
        both = tensor(sc, cnot)
        assert np.allclose(extract_matrix_general(both), interp(both), atol=1e-12)

    def test_closed_loop_scalar(self):
        circle = Diagram(
            (Generator(GenKind.CAP, (), ("u", "v")), Generator(GenKind.CUP, ("u", "v"), ())),
            (),
            (),
        )
        m = extract_matrix(circle)
        assert m.shape == (1, 1) and abs(m[0, 0] - 2.0) < 1e-12


class TestPolarity:
    def test_signed_count_ignores_bits(self):
        chain = polarity_chain()
        p = Path(tuple(f"e{i}" for i in range(5)), (D,) * 5)
        assert polarity(chain, p, tk("e3", U, 0)) == -1
        assert polarity(chain, p, tk("e3", U, 1)) == -1
        assert polarity(chain, p, term_key([tk("e0", D, 0), tk("e4", U, 0)])) == 0

    def test_whole_states_are_rejected(self):
        chain = polarity_chain()
        p = Path(("e0",), (D,))
        with pytest.raises(DiagramError):
            polarity(chain, p, TokenState.single(1.0, [tk("e0", D, 0)]))


class TestWellFormedGate:
    def test_double_token_same_direction(self):
        chain = polarity_chain()
        dbl = TokenState.single(1.0, [tk("e1", D, 0), tk("e1", D, 1)])
        chk = is_well_formed(chain, dbl)
        assert not chk and abs(chk.witness[2]) == 2
        with pytest.raises(NotWellFormed):
            normalize(chain, dbl)

    def test_inline_pair_is_flagged(self):
        chain = polarity_chain()
        assert not is_well_formed(chain, term_key([tk("e0", D, 0), tk("e2", D, 0)]))

    def test_extraction_pair_is_fine(self, cnot):
        assert is_well_formed(cnot, term_key([tk("e1", D, 0), tk("e1", U, 0)]))

    def test_gate_holds_on_diagrams_with_too_many_paths_to_list(self):
        # cnot_chain(10) has over 100,000 paths; the gate reads no path list
        chain = cnot_chain(10)
        seed = TokenState.single(1.0, [tk("a1", D, 0), tk("a1", D, 1)])
        with pytest.raises(NotWellFormed) as err:
            normalize(chain, seed)
        path, term, value = err.value.witness
        validate_path(chain, path)
        assert value == 2 and polarity(chain, path, term) == 2


class TestCycleGate:
    def test_balance_check(self, loop):
        assert not is_cycle_balanced(loop, TokenState.single(1.0, [tk("e2", D, 0)]))
        ok = TokenState.single(1.0, [tk("e2", D, 0), tk("e3", U, 0)])
        assert is_cycle_balanced(loop, ok)

    def test_unbalanced_seed_rejected_with_witness(self, loop):
        with pytest.raises(NotCycleBalanced) as err:
            normalize(loop, TokenState.single(1.0, [tk("e2", D, 0)]))
        cycle, term, p = err.value.witness
        assert set(cycle.edges) == {"e2", "e3"} and p != 0

    def test_balanced_seed_terminates(self, loop):
        nf, _ = normalize(loop, TokenState.single(1.0, [tk("e2", D, 0), tk("e3", U, 0)]))
        assert len(nf) >= 1

    def test_force_hits_the_fuse(self, loop):
        with pytest.raises(FuseExceeded) as err:
            normalize(loop, TokenState.single(1.0, [tk("e2", D, 0)]), force=True, fuse=200)
        assert err.value.steps == 200
        assert len(err.value.state.terms) >= 1

    def test_exhaustive_mode_agrees(self, loop):
        # the gate against its definition: zero polarity on every simple cycle
        for toks, balanced in (([tk("e2", D, 0)], False), ([tk("e2", D, 0), tk("e3", U, 0)], True)):
            term = term_key(toks)
            assert all(polarity(loop, c, term) == 0 for c in enumerate_cycles(loop)) is balanced
            assert bool(is_cycle_balanced(loop, TokenState.single(1.0, toks))) is balanced


class TestSeedTokens:
    @pytest.mark.parametrize(
        "token,message",
        [
            (tk("zz", D, 0), "not an edge"),
            (tk("a1", D, 2), "0 or 1"),
            (tk("a1", D, 0, 0), "2 bits"),
        ],
    )
    @pytest.mark.parametrize("force", [False, True])
    def test_bad_seed_tokens_are_refused(self, cnot, token, message, force):
        seed = TokenState.single(1.0, [token])
        with pytest.raises(DiagramError, match=message):
            normalize(cnot, seed, force=force)
        with pytest.raises(DiagramError, match=message):
            step(cnot, seed)


class TestFuse:
    def test_env_override(self, cnot, monkeypatch):
        monkeypatch.setenv("ZXTK_FUSE", "2")
        seed = TokenState.single(1.0, [tk("a1", D, 1), tk("a2", D, 0)])
        with pytest.raises(FuseExceeded):
            normalize(cnot, seed)

    def test_explicit_argument_wins(self, cnot, monkeypatch):
        monkeypatch.setenv("ZXTK_FUSE", "2")
        seed = TokenState.single(1.0, [tk("a1", D, 1), tk("a2", D, 0)])
        nf, _ = normalize(cnot, seed, fuse=10_000)
        assert len(nf) == 1


class TestRewind:
    def test_witness_path_polarity(self, cnot):
        seed_term = term_key([tk("a1", D, 1), tk("a2", D, 0)])
        seed = TokenState.single(1.0, seed_term)
        _, trace = normalize(cnot, seed, scripted_strategy(CNOT_SCRIPT))
        p = rewind_witness(cnot, seed_term, trace, tk("b2", D, 1))
        assert p.edges[-1] == "b2" and polarity(cnot, p, seed_term) == 1

    def test_absent_target_rejected(self, cnot):
        seed_term = term_key([tk("a1", D, 1), tk("a2", D, 0)])
        _, trace = normalize(cnot, TokenState.single(1.0, seed_term))
        with pytest.raises(DiagramError):
            rewind_witness(cnot, seed_term, trace, tk("b2", D, 0))


class TestEmptyRuns:
    def test_zero_state(self, cnot):
        nf, trace = normalize(cnot, TokenState.zero())
        assert nf == TokenState.zero() and len(trace) == 0

    def test_scalar_only_term_is_final(self, cnot):
        s = TokenState([(0.5, [])])
        nf, trace = normalize(cnot, s)
        assert len(trace) == 0 and nf.terms == {(): 0.5}


# -- property tests ------------------------------------------------------------

SMALL = GenConfig(seed=31, max_generators=5, max_inputs=2, max_outputs=2)


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30)
def test_extraction_agrees_with_dense_oracle(index):
    d = random_diagram(SMALL, index)
    if d.edge_order:
        assert np.abs(extract_matrix(d) - interp(d)).max() < 1e-9


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30)
def test_normal_forms_have_no_live_tokens(index):
    import random as _random

    d = random_diagram(SMALL, index)
    seed = _random_seed(d, _random.Random(index))
    if seed is None:
        return
    nf, _ = normalize(d, seed)
    for term in nf.terms:
        for t in term:
            assert is_frozen(d, t)


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=25)
def test_collide_all_is_idempotent(index):
    import random as _random

    d = random_diagram(SMALL, index)
    seed = _random_seed(d, _random.Random(1000 + index))
    if seed is None:
        return
    sites = _active_sites(d, seed)
    mid = diffuse_once(d, seed, sites[0]) if sites else seed
    once = collide_all(mid)
    assert once.is_collision_free()
    assert collide_all(once).allclose(once, 1e-12)


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=25)
def test_polarity_is_additive_over_tokens(index):
    import random as _random

    rng = _random.Random(index)
    d = random_diagram(SMALL, index)
    paths = enumerate_paths(d)
    if not paths or not d.edge_order:
        return
    p = rng.choice(paths)
    toks = [tk(rng.choice(d.edge_order), rng.choice((D, U)), rng.randint(0, 1)) for _ in range(3)]
    assert polarity(d, p, term_key(toks[:1])) + polarity(d, p, term_key(toks[1:])) == polarity(
        d, p, term_key(toks)
    )


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=40)
def test_gates_agree_with_the_path_and_cycle_definitions(index, salt):
    rng = random.Random(salt)
    d = random_diagram(SMALL, index)
    if not d.edge_order:
        return
    paths, cycles = enumerate_paths(d), enumerate_cycles(d)
    boundary = list(d.inputs + d.outputs) or list(d.edge_order)
    terms = [
        # anything: mostly unbalanced once the diagram has a cycle
        term_key(tk(rng.choice(d.edge_order), rng.choice((D, U)), 0) for _ in range(rng.randint(1, 4))),
        # boundary tokens and an opposite pair: balanced when the diagram has a boundary, often not well-formed
        term_key(
            [tk(rng.choice(boundary), rng.choice((D, U)), 0) for _ in range(rng.randint(1, 3))]
            + [tk(e, direction, 0) for e in rng.sample(d.edge_order, 1) for direction in (D, U)]
        ),
    ]
    for term in terms:
        balanced = is_cycle_balanced(d, term)
        assert bool(balanced) == all(polarity(d, c, term) == 0 for c in cycles)
        formed = is_well_formed(d, term)
        assert bool(formed) == all(abs(polarity(d, p, term)) <= 1 for p in paths)
        for check, bound in ((balanced, 0), (formed, 1)):
            if not check:
                path, witness_term, value = check.witness
                validate_path(d, path)
                assert witness_term == term and abs(value) > bound
                assert polarity(d, path, term) == value


# -- the incremental engine against the whole-state step ------------------------


def _reference_strategy(spec):
    """The schedulers as they were: ranking whole sites, depths rebuilt per pick."""
    if spec == "deterministic":
        return lambda d, s, sites: sites[0]
    if spec.startswith("random:"):
        rng = random.Random(int(spec.split(":")[1]))
        return lambda d, s, sites: sites[rng.randrange(len(sites))]
    if spec == "sparse-first":
        return lambda d, s, sites: min(sites, key=lambda site: (len(site[0]),) + site)
    assert spec == "slice-order"

    def pick(d, s, sites):
        depth = _depth_map(d)
        return min(sites, key=lambda site: (depth[_target_endpoint(d, site[1])[1]],) + site)

    return pick


def _reference_steps(d, seed, spec, rules):
    """Whole-state steps: sort every term, rebuild the state, collide every term."""
    strategy = _reference_strategy(spec)
    state, steps = seed, []
    while True:
        sites = _active_sites(d, state)
        if not sites:
            return steps
        term, token = strategy(d, state, sites)
        gi, rule, branches = _apply_rule(d, token, rules)
        rest = list(term)
        rest.remove(token)
        pairs = [(v, k) for k, v in state.terms.items() if k != term]
        pairs += [(state.terms[term] * factor, tuple(rest) + emitted) for factor, emitted in branches]
        diffused = TokenState(pairs)
        records = tuple(r for key in diffused.terms for r in _collide_term(key)[2])
        state = collide_all(diffused)
        steps.append((term, token, gi, rule, tuple(branches), records, state))


def _pair_seed(d, edge, width):
    """Every bit pattern's extraction pair on `edge`, one term each."""
    patterns = [tuple((p >> (width - 1 - j)) & 1 for j in range(width)) for p in range(2**width)]
    return TokenState((1.0, [tk(edge, D, *bits), tk(edge, U, *bits)]) for bits in patterns)


def _equivalence_cases():
    for k in (2, 3):
        chain = cnot_chain(k)
        mid = chain.edge_order[len(chain.edge_order) // 2]
        inputs = TokenState.single(1.0, [tk(e, D, 1) for e in chain.inputs])
        yield f"chain{k}-inputs", chain, inputs, PURE_RULES
        yield f"chain{k}-pair", chain, TokenState.single(1.0, [tk(mid, D, 1), tk(mid, U, 1)]), PURE_RULES
        yield f"chain{k}-pairs", chain, _pair_seed(chain, mid, 1), PURE_RULES
    # slice-order spreads this run's sites over many ranks, tied across terms
    chain = cnot_chain(5)
    yield "chain5-inputs", chain, TokenState.single(1.0, [tk(e, D, 1) for e in chain.inputs]), PURE_RULES
    # duplicate tokens break well-formedness, so only forced runs meet them;
    # their runs grow fast, so the smallest circuit
    cnot = cnot_diagram()
    for bits in ((1, 1), (0, 1)):
        doubled = [tk(cnot.inputs[0], D, b) for b in bits] + [tk(cnot.inputs[1], D, 0)]
        yield f"cnot-double{bits}", cnot, TokenState.single(1.0, doubled), PURE_RULES
    for ground, rules, width in ((False, PURE_RULES, 1), (True, GROUND_RULES, 2)):
        cfg = GenConfig(seed=1, max_generators=6, max_inputs=2, max_outputs=2, allow_ground=ground)
        for i in range(12):
            d = random_diagram(cfg, i)
            if not d.edge_order:
                continue
            yield f"g{int(ground)}-{i}-pairs", d, _pair_seed(d, d.edge_order[0], width), rules
            yield f"g{int(ground)}-{i}-loose", d, _random_seed(d, random.Random(i), width), rules


@pytest.mark.parametrize("spec", ["deterministic", "sparse-first", "slice-order", "random:5"])
def test_incremental_steps_match_the_whole_state_step(spec):
    for label, d, seed, rules in _equivalence_cases():
        want = _reference_steps(d, seed, spec, rules)
        nf, trace = normalize(d, seed, spec, rules=rules, force=True)
        assert len(trace.steps) == len(want), label
        for got, (term, token, gi, rule, produced, records, state) in zip(trace.steps, want):
            assert (got.term, got.token, got.gen_index, got.rule) == (term, token, gi, rule), label
            assert got.produced == produced and got.collisions == records, label
            # reprs keep the sign of zero, and the key order fixes the order of later sums
            assert repr(list(got.state_after.terms.items())) == repr(list(state.terms.items())), label
        assert serialize_state(nf) == serialize_state(want[-1][-1] if want else seed), label
        if want:
            first = step(d, seed, spec, rules=rules)
            assert serialize_state(first) == serialize_state(want[0][-1]), label


# -- traces pinned to bytes ---------------------------------------------------------

PINNED_SCHEDULERS = ("deterministic", "sparse-first", "slice-order", "random:5")

# SHA-256 over the serialized trace and final term order of every _pinned_corpus
# run, scheduler by scheduler; a change to the engine or a scheduler must keep it
PINNED_TRACE_DIGEST = "9aa3575e4116f826c82381a0febc9b32dad1286d7b1e2bf76b54604cbdca0e23"


def _pinned_corpus(spec):
    for k in range(1, 6):
        chain = cnot_chain(k)
        for bits in ((0, 1), (1, 1)):
            yield chain, TokenState.single(1.0, [tk(e, D, b) for e, b in zip(chain.inputs, bits)]), PURE_RULES
        # random runs of the longer chains from a pair write traces of hundreds of MB
        if k <= 3 or not spec.startswith("random"):
            a = chain.inputs[0]
            yield chain, TokenState.single(1.0, [tk(a, D, 1), tk(a, U, 1)]), PURE_RULES
    for ground, rules, width in ((False, PURE_RULES, 1), (True, GROUND_RULES, 2)):
        cfg = GenConfig(seed=3, max_generators=8, max_inputs=3, max_outputs=3, allow_ground=ground)
        for i in range(40):
            d = random_diagram(cfg, i)
            seed = _random_seed(d, random.Random(i), width)
            if seed is not None:
                yield d, seed, rules


def _pinned_digest():
    digest = hashlib.sha256()
    for spec in PINNED_SCHEDULERS:
        for d, seed, rules in _pinned_corpus(spec):
            nf, trace = normalize(d, seed, spec, rules=rules)
            digest.update(serialize_trace(trace).encode())
            digest.update(repr(list(nf.terms.items())).encode())
    return digest.hexdigest()


def test_traces_match_their_pinned_bytes():
    assert _pinned_digest() == PINNED_TRACE_DIGEST


def test_scheduler_order_survives_wrapping(monkeypatch):
    chain = cnot_chain(4)
    seeds = [
        TokenState.single(1.0, [tk(e, D, 1) for e in chain.inputs]),
        TokenState.single(1.0, [tk(chain.inputs[0], D, 1), tk(chain.inputs[0], U, 1)]),
    ]
    specs = ("sparse-first", "slice-order")
    want = [serialize_trace(normalize(chain, seed, spec)[1]) for spec in specs for seed in seeds]
    strategy = make_strategy("slice-order")
    assert serialize_trace(normalize(chain, seeds[0], strategy)[1]) == want[len(seeds)]
    # a tracer hands the run a bare closure around whatever the factory built
    factory = machine.make_strategy

    def wrapped(spec):
        inner = factory(spec)
        return lambda d, s, sites: inner(d, s, sites)

    monkeypatch.setattr(machine, "make_strategy", wrapped)
    assert [serialize_trace(normalize(chain, seed, spec)[1]) for spec in specs for seed in seeds] == want


# -- the rule table against the pure and two-bit tables it replaced -------------


class _PureReference:
    """The one-bit table as two hand-written classes had it."""

    @staticmethod
    def _spider_emissions(g, port_side, port, bits):
        out = []
        for p, e in enumerate(g.ins):
            if not (port_side == "in" and p == port):
                out.append(Token(e, Dir.UP, bits))
        for p, e in enumerate(g.outs):
            if not (port_side == "out" and p == port):
                out.append(Token(e, Dir.DOWN, bits))
        return tuple(out)

    def diffuse(self, g, gen_kind, port_side, port, token):
        (x,) = token.bits
        if gen_kind is GenKind.Z:
            phase = cmath.exp(1j * g.angle.to_radians * x)
            return [(phase, self._spider_emissions(g, port_side, port, (x,)))]
        if gen_kind is GenKind.H:
            other = g.outs[0] if port_side == "in" else g.ins[0]
            direction = Dir.DOWN if port_side == "in" else Dir.UP
            return [
                (((-1.0) ** (x * z)) * 2.0**-0.5, (Token(other, direction, (z,)),))
                for z in (0, 1)
            ]
        if gen_kind is GenKind.CUP:
            return [(1.0 + 0j, (Token(g.ins[1 - port], Dir.UP, (x,)),))]
        if gen_kind is GenKind.CAP:
            return [(1.0 + 0j, (Token(g.outs[1 - port], Dir.DOWN, (x,)),))]
        raise GroundNotAllowed("pure tokens cannot enter a ground")


class _GroundReference(_PureReference):
    """The two-bit table as two hand-written classes had it."""

    def diffuse(self, g, gen_kind, port_side, port, token):
        x, y = token.bits
        if gen_kind is GenKind.Z:
            phase = cmath.exp(1j * g.angle.to_radians * (x - y))
            return [(phase, self._spider_emissions(g, port_side, port, (x, y)))]
        if gen_kind is GenKind.H:
            other = g.outs[0] if port_side == "in" else g.ins[0]
            direction = Dir.DOWN if port_side == "in" else Dir.UP
            return [
                (0.5 * ((-1.0) ** (x * z + y * zz)), (Token(other, direction, (z, zz)),))
                for z in (0, 1)
                for zz in (0, 1)
            ]
        if gen_kind is GenKind.CUP:
            return [(1.0 + 0j, (Token(g.ins[1 - port], Dir.UP, (x, y)),))]
        if gen_kind is GenKind.CAP:
            return [(1.0 + 0j, (Token(g.outs[1 - port], Dir.DOWN, (x, y)),))]
        if x == y:
            return [(1.0 + 0j, ())]
        return []


def _entries(d):
    """Every (generator, side, port, edge, direction) a token can enter by."""
    for g in d.generators:
        for side, edges, direction in (("in", g.ins, D), ("out", g.outs, U)):
            for port, e in enumerate(edges):
                yield g, side, port, e, direction


@pytest.mark.parametrize(
    "rules,reference", [(PURE_RULES, _PureReference()), (GROUND_RULES, _GroundReference())]
)
def test_rule_table_equals_the_tables_it_replaced(rules, reference):
    pool = (Fraction(0), Fraction(1, 4), Fraction(-3, 4), Fraction(1), 0.7)
    entered = set()
    for ground in (False, True):
        cfg = GenConfig(seed=3, max_generators=10, angle_pool=pool, allow_ground=ground)
        for i in range(40):
            for g, side, port, e, direction in _entries(random_diagram(cfg, i)):
                for bits in itertools.product((0, 1), repeat=rules.bit_width):
                    token = Token(e, direction, bits)
                    try:
                        want = reference.diffuse(g, g.kind, side, port, token)
                    except GroundNotAllowed:
                        with pytest.raises(GroundNotAllowed):
                            rules.diffuse(g, g.kind, side, port, token)
                        continue
                    got = rules.diffuse(g, g.kind, side, port, token)
                    # exact: the factors feed every later sum, so a last-bit change shows in traces
                    assert got == want, (g, side, port, bits)
                    assert [type(f) for f, _ in got] == [type(f) for f, _ in want]
                    entered.add((g.kind, side))
    kinds = set(GenKind) if rules is GROUND_RULES else set(GenKind) - {GenKind.GROUND}
    assert {kind for kind, _ in entered} == kinds
