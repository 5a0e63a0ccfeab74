"""Structure: generators, wiring validation, surgery, paths and cycles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zxtk import (
    Angle,
    Cycle,
    Diagram,
    Dir,
    GenKind,
    Generator,
    Path,
    canonical_relabel,
    compose,
    conjugate,
    connected_components,
    cpm_construct,
    cycle_basis,
    empty_diagram,
    enumerate_cycles,
    enumerate_paths,
    identity_wire,
    interp,
    make_generator,
    red_spider,
    rename_edges,
    swap_wires,
    tensor,
)
from zxtk.diagram import conj_edge_name, path_vertices, validate_path, vertex_of
from zxtk.errors import ArityError, CompositionError, DiagramError
from zxtk.families import cnot_diagram, feedback_loop, polarity_chain, spider_trap
from zxtk.verify import GenConfig, random_diagram

D, U = Dir.DOWN, Dir.UP


class TestAngle:
    def test_exact_pi_multiples(self):
        a = Angle.pi(Fraction(3, 4))
        assert a.pi_multiple == Fraction(3, 4)
        assert a.to_radians == pytest.approx(3 * np.pi / 4)

    def test_radians_fallback(self):
        a = Angle.radians(0.5)
        assert a.pi_multiple is None
        assert a.raw_radians == 0.5

    def test_of_coerces(self):
        assert Angle.of(None).is_zero
        assert Angle.of(Fraction(1, 2)).pi_multiple == Fraction(1, 2)
        assert Angle.of(Angle.pi()) == Angle.pi()

    def test_negation_stays_exact(self):
        assert (-Angle.pi(Fraction(1, 4))).pi_multiple == Fraction(-1, 4)
        assert (-Angle.radians(0.5)).raw_radians == -0.5

    def test_zero(self):
        assert Angle.zero().is_zero
        assert not Angle.pi().is_zero


class TestDir:
    def test_flip(self):
        assert D.flipped is U and U.flipped is D

    def test_arrows(self):
        assert D.arrow + U.arrow == "↓↑"


class TestConstruction:
    def test_trap_shape(self, trap):
        assert trap.n_inputs == 1 and trap.n_outputs == 1
        assert set(trap.edge_order) == {"a", "b", "c", "d"}

    def test_every_edge_one_top_one_bottom(self, cnot):
        for e in cnot.edge_order:
            top, bottom = cnot.endpoints(e)
            assert top != bottom

    def test_two_tops_rejected(self):
        with pytest.raises(DiagramError):
            Diagram(
                (Generator(GenKind.Z, (), ("e", "e")),),
                (),
                (),
            )

    def test_dangling_edge_rejected(self):
        with pytest.raises(DiagramError):
            Diagram((Generator(GenKind.Z, ("a",), ()),), (), ())

    def test_fixed_arity_kinds_rejected(self):
        with pytest.raises(ArityError):
            Generator(GenKind.H, ("a", "b"), ("c",))
        with pytest.raises(ArityError):
            Generator(GenKind.GROUND, ("a",), ("b",))

    def test_only_green_takes_an_angle(self):
        with pytest.raises(ArityError):
            Generator(GenKind.H, ("a",), ("b",), angle=Angle.pi())

    def test_has_ground(self):
        d = Diagram((Generator(GenKind.GROUND, ("a",), ()),), ("a",), ())
        assert d.has_ground() and not cnot_diagram().has_ground()


class TestCombinators:
    def test_compose_matches_matrix_product(self):
        z = make_generator(GenKind.Z, 1, 1, Angle.pi(Fraction(1, 2)))
        h = make_generator(GenKind.H, 1, 1)
        assert np.allclose(interp(compose(z, h)), interp(h) @ interp(z), atol=1e-12)

    def test_tensor_matches_kron(self):
        z = make_generator(GenKind.Z, 1, 1, Angle.pi())
        h = make_generator(GenKind.H, 1, 1)
        assert np.allclose(interp(tensor(z, h)), np.kron(interp(z), interp(h)), atol=1e-12)

    def test_operator_sugar(self):
        a, b = identity_wire(), make_generator(GenKind.H, 1, 1)
        assert interp(a >> b).tolist() == interp(compose(a, b)).tolist()
        assert interp(a @ b).tolist() == interp(tensor(a, b)).tolist()

    def test_compose_arity_mismatch(self):
        with pytest.raises(CompositionError):
            compose(make_generator(GenKind.Z, 1, 2), identity_wire())

    def test_compose_renames_clashing_labels(self, trap):
        d = compose(trap, trap)
        assert d.n_inputs == 1 and d.n_outputs == 1
        assert np.allclose(interp(d), interp(trap) @ interp(trap), atol=1e-12)

    def test_empty_diagram_is_unit(self, cnot):
        assert interp(tensor(empty_diagram(), cnot)).tolist() == interp(cnot).tolist()

    def test_swap(self):
        assert np.allclose(interp(swap_wires()), np.eye(4)[[0, 2, 1, 3]], atol=1e-15)


class TestSurgery:
    def test_rename_edges(self, trap):
        d = rename_edges(trap, {"a": "x"})
        assert d.inputs == ("x",)
        assert np.allclose(interp(d), interp(trap), atol=1e-15)

    def test_rename_collision_rejected(self, trap):
        with pytest.raises(DiagramError):
            rename_edges(trap, {"a": "b"})

    def test_canonical_relabel_names_and_interp(self, cnot):
        d = canonical_relabel(rename_edges(cnot, {"e1": "zz9"}))
        assert d.inputs == ("a1", "a2") and d.outputs == ("b1", "b2")
        assert all(e.startswith("e") for e in d.edge_order if e not in d.inputs + d.outputs)
        assert np.allclose(interp(d), interp(cnot), atol=1e-15)
        assert canonical_relabel(d) == d

    def test_conjugate_conjugates_matrix(self):
        d = make_generator(GenKind.Z, 1, 1, Angle.pi(Fraction(1, 4)))
        assert np.allclose(interp(conjugate(d)), interp(d).conj(), atol=1e-15)


class TestPaths:
    def test_full_chain_is_a_path(self):
        chain = polarity_chain()
        p = Path(tuple(f"e{i}" for i in range(5)), (D,) * 5)
        validate_path(chain, p)
        assert len(path_vertices(chain, p)) == 6

    def test_reversed(self):
        p = Path(("e0", "e1"), (D, D))
        assert p.reversed() == Path(("e1", "e0"), (U, U))

    def test_disconnected_steps_rejected(self):
        chain = polarity_chain()
        with pytest.raises(DiagramError):
            validate_path(chain, Path(("e0", "e3"), (D, D)))

    def test_enumerate_paths_contains_chain(self):
        chain = polarity_chain()
        full = Path(tuple(f"e{i}" for i in range(5)), (D,) * 5)
        paths = enumerate_paths(chain)
        assert full in paths or full.reversed() in paths


class TestCycles:
    def test_cnot_is_acyclic(self, cnot):
        assert enumerate_cycles(cnot) == []
        assert cycle_basis(cnot) == []

    def test_trap_parallel_edges_form_a_cycle(self, trap):
        basis = cycle_basis(trap)
        assert len(basis) == 1 and set(basis[0].edges) == {"b", "c"}

    def test_feedback_loop_cycle(self, loop):
        basis = cycle_basis(loop)
        assert len(basis) == 1
        assert set(basis[0].edges) == {"e2", "e3"}
        assert enumerate_cycles(loop)

    def test_circle_two_edge_cycle(self):
        circle = Diagram(
            (Generator(GenKind.CAP, (), ("u", "v")), Generator(GenKind.CUP, ("u", "v"), ())),
            (),
            (),
        )
        assert any(set(c.edges) == {"u", "v"} for c in enumerate_cycles(circle))

    def test_cycles_are_cycle_instances(self, loop):
        assert all(isinstance(c, Cycle) for c in enumerate_cycles(loop))


class TestComponents:
    def test_split_and_maps(self, cnot, trap):
        both = tensor(cnot, trap)
        comps = connected_components(both)
        assert len(comps) == 2
        sizes = sorted(len(piece.generators) for piece, _ in comps)
        assert sizes == [2, 5]
        for piece, cmap in comps:
            assert all(both.generators[i].kind == g.kind
                       for i, g in zip(cmap.generator_indices, piece.generators))


class TestDoubling:
    def test_pure_doubling_shape(self, cnot):
        dd = cpm_construct(cnot)
        assert not dd.has_ground()
        assert dd.inputs == ("a1", conj_edge_name("a1"), "a2", conj_edge_name("a2"))
        assert len(dd.generators) == 2 * len(cnot.generators)

    def test_ground_becomes_cup(self):
        meas = Diagram(
            (Generator(GenKind.Z, ("a1",), ("b1", "e1")), Generator(GenKind.GROUND, ("e1",), ())),
            ("a1",),
            ("b1",),
        )
        dd = cpm_construct(meas)
        cups = [g for g in dd.generators if g.kind is GenKind.CUP]
        assert len(cups) == 1 and set(cups[0].ins) == {"e1", conj_edge_name("e1")}

    def test_conjugate_copy_negates_angles(self):
        d = make_generator(GenKind.Z, 1, 1, Angle.pi(Fraction(1, 4)))
        dd = cpm_construct(d)
        angles = sorted(g.angle.pi_multiple for g in dd.generators)
        assert angles == [Fraction(-1, 4), Fraction(1, 4)]


class TestRedSpider:
    def test_not_pi_copies(self):
        x = red_spider(1, 1, Angle.pi())
        want = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(interp(x), want, atol=1e-12)

    def test_is_hadamard_conjugated_green(self):
        h = interp(make_generator(GenKind.H, 1, 1))
        z = interp(make_generator(GenKind.Z, 2, 1, Angle.pi(Fraction(1, 4))))
        want = h @ z @ np.kron(h, h)
        assert np.allclose(interp(red_spider(2, 1, Angle.pi(Fraction(1, 4)))), want, atol=1e-12)
        assert np.allclose(interp(red_spider(0, 1)), [[2**0.5], [0]], atol=1e-12)


@given(st.integers(min_value=0, max_value=80))
def test_relabel_is_stable_and_semantics_preserving(index):
    d = random_diagram(GenConfig(seed=97, max_generators=5), index)
    r = canonical_relabel(d)
    assert canonical_relabel(r) == r
    assert np.allclose(interp(r), interp(d), atol=1e-12)


@given(st.integers(min_value=0, max_value=80))
def test_components_partition_generators(index):
    d = random_diagram(GenConfig(seed=98, require_connected=False), index)
    comps = connected_components(d)
    indices = sorted(i for _, cmap in comps for i in cmap.generator_indices)
    assert indices == list(range(len(d.generators)))
    # pieces come in first-appearance order: input slots, output slots, generators
    order = [("in", k) for k in range(d.n_inputs)] + [("out", k) for k in range(d.n_outputs)]
    order += [("gen", i) for i in range(len(d.generators))]
    piece_of = {}
    for n, (_, cmap) in enumerate(comps):
        piece_of.update((("in", k), n) for k in cmap.input_slots)
        piece_of.update((("out", k), n) for k in cmap.output_slots)
        piece_of.update((("gen", i), n) for i in cmap.generator_indices)
    firsts = list(dict.fromkeys(piece_of[v] for v in order))
    assert firsts == list(range(len(comps)))
    # and no edge joins two pieces
    for e in d.edge_order:
        assert piece_of[vertex_of(d.top_of(e))] == piece_of[vertex_of(d.bottom_of(e))]


@given(st.integers(min_value=0, max_value=80), st.booleans())
def test_cycle_basis_is_empty_exactly_when_acyclic(index, connected):
    d = random_diagram(GenConfig(seed=99, require_connected=connected), index)
    assert bool(cycle_basis(d)) == bool(enumerate_cycles(d))


def test_vertex_of_boundary_and_generator():
    assert vertex_of(("in", 0)) != vertex_of(("out", 0))
    trap = spider_trap()
    top = trap.top_of("b")
    assert top[0] == "gen"
