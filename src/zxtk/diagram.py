"""Open ZX diagrams as port multigraphs.

A diagram is a set of generators (green spiders, Hadamard boxes, cups,
caps, grounds) wired together by named edges, plus ordered boundary
wires.  Identity and swap are pure wiring, not generators: an edge may
run straight from an input slot to an output slot.

Every edge name occurs exactly twice across the structure: once at a
"top" attachment (a generator output port or an input boundary slot)
and once at a "bottom" attachment (a generator input port or an output
boundary slot).  Diagrams are read top to bottom, so a token moving
"down" an edge heads for its bottom attachment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import (
    ArityError,
    CompositionError,
    DiagramError,
    PathLimitExceeded,
)

DEFAULT_PATH_LIMIT = 200_000


class Dir(IntEnum):
    """Travel direction along an edge: DOWN is top-to-bottom."""

    DOWN = 0
    UP = 1

    @property
    def flipped(self) -> "Dir":
        return Dir.UP if self is Dir.DOWN else Dir.DOWN

    @property
    def arrow(self) -> str:
        return "↓" if self is Dir.DOWN else "↑"


class GenKind(str, Enum):
    Z = "Z"
    H = "H"
    CUP = "cup"
    CAP = "cap"
    GROUND = "ground"


@dataclass(frozen=True)
class Angle:
    """A spider phase: either an exact rational multiple of pi or a float.

    Exactly one of `pi_multiple` / `raw_radians` is set.  Exact angles
    survive serialization byte-identically; floats are only produced
    when the user writes a decimal.
    """

    pi_multiple: Fraction | None = None
    raw_radians: float | None = None

    def __post_init__(self):
        if (self.pi_multiple is None) == (self.raw_radians is None):
            raise ValueError("Angle needs exactly one of pi_multiple, raw_radians")

    @staticmethod
    def zero() -> "Angle":
        return Angle(pi_multiple=Fraction(0))

    @staticmethod
    def pi(multiple: Fraction | int | str = 1) -> "Angle":
        return Angle(pi_multiple=Fraction(multiple))

    @staticmethod
    def radians(value: float) -> "Angle":
        return Angle(raw_radians=float(value))

    @staticmethod
    def of(value: "Angle | float | int | Fraction | None") -> "Angle":
        """Coerce: None -> 0, Fraction -> multiple of pi, float/int -> radians."""
        if value is None:
            return Angle.zero()
        if isinstance(value, Angle):
            return value
        if isinstance(value, Fraction):
            return Angle(pi_multiple=value)
        return Angle(raw_radians=float(value))

    @property
    def to_radians(self) -> float:
        if self.pi_multiple is not None:
            return float(self.pi_multiple) * math.pi
        return self.raw_radians

    @property
    def is_zero(self) -> bool:
        return self.to_radians == 0.0

    def __neg__(self) -> "Angle":
        if self.pi_multiple is not None:
            return Angle(pi_multiple=-self.pi_multiple)
        return Angle(raw_radians=-self.raw_radians)

    def __str__(self) -> str:
        if self.pi_multiple is not None:
            f = self.pi_multiple
            if f == 0:
                return "0"
            num = "" if abs(f.numerator) == 1 else str(abs(f.numerator))
            sign = "-" if f < 0 else ""
            den = "" if f.denominator == 1 else f"/{f.denominator}"
            return f"{sign}{num}pi{den}"
        return repr(self.raw_radians)


# Arity table: kind -> (n_inputs, n_outputs); None means free.
_FIXED_ARITY = {
    GenKind.H: (1, 1),
    GenKind.CUP: (2, 0),
    GenKind.CAP: (0, 2),
    GenKind.GROUND: (1, 0),
}


@dataclass(frozen=True)
class Generator:
    """One node: a kind, ordered input edges, ordered output edges.

    Only Z spiders carry an angle.
    """

    kind: GenKind
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    angle: Angle | None = None

    def __post_init__(self):
        if self.kind in _FIXED_ARITY:
            n, m = _FIXED_ARITY[self.kind]
            if len(self.ins) != n or len(self.outs) != m:
                raise ArityError(
                    f"{self.kind.value} must be {n}->{m}, "
                    f"got {len(self.ins)}->{len(self.outs)}"
                )
            if self.angle is not None:
                raise ArityError(f"{self.kind.value} takes no angle")
        elif self.kind is GenKind.Z:
            if self.angle is None:
                object.__setattr__(self, "angle", Angle.zero())
        else:
            raise ArityError(f"unknown generator kind {self.kind!r}")

    @property
    def arity(self) -> int:
        return len(self.ins) + len(self.outs)

    def __str__(self) -> str:
        if self.kind is GenKind.Z:
            return f"Z({len(self.ins)},{len(self.outs)},{self.angle})"
        return self.kind.value


# An attachment point of an edge end:
#   ("gen", gen_index, "in"|"out", port)   generator port
#   ("in", slot) / ("out", slot)           boundary slot
Endpoint = tuple


def vertex_of(endpoint: Endpoint) -> tuple:
    """Collapse an endpoint to its vertex: ("gen", i) or a boundary slot."""
    if endpoint[0] == "gen":
        return ("gen", endpoint[1])
    return endpoint


@dataclass(frozen=True)
class Diagram:
    """An open diagram.  Immutable; all edits build new diagrams."""

    generators: tuple[Generator, ...] = ()
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        self._validate()

    def _validate(self) -> None:
        tops: dict[str, Endpoint] = {}
        bottoms: dict[str, Endpoint] = {}

        def add(table: dict, name: str, endpoint: Endpoint, role: str) -> None:
            if not isinstance(name, str) or not name:
                raise DiagramError(f"bad edge name {name!r}")
            if name in table:
                raise DiagramError(
                    f"edge {name!r} has two {role} attachments: "
                    f"{table[name]} and {endpoint}"
                )
            table[name] = endpoint

        for k, e in enumerate(self.inputs):
            add(tops, e, ("in", k), "top")
        for k, e in enumerate(self.outputs):
            add(bottoms, e, ("out", k), "bottom")
        for i, g in enumerate(self.generators):
            for p, e in enumerate(g.ins):
                add(bottoms, e, ("gen", i, "in", p), "bottom")
            for p, e in enumerate(g.outs):
                add(tops, e, ("gen", i, "out", p), "top")
        if set(tops) != set(bottoms):
            dangling = set(tops) ^ set(bottoms)
            raise DiagramError(f"dangling edge ends: {sorted(dangling)}")
        object.__setattr__(self, "_tops", tops)
        object.__setattr__(self, "_bottoms", bottoms)

    # -- derived structure ------------------------------------------------

    def top_of(self, edge: str) -> Endpoint:
        """The top attachment (generator out-port or input slot)."""
        return self._tops[edge]

    def bottom_of(self, edge: str) -> Endpoint:
        """The bottom attachment (generator in-port or output slot)."""
        return self._bottoms[edge]

    @cached_property
    def edge_order(self) -> tuple[str, ...]:
        """Edges in first-occurrence order: inputs, generator ports, outputs."""
        seen: dict[str, None] = {}
        for e in self.inputs:
            seen.setdefault(e)
        for g in self.generators:
            for e in g.ins:
                seen.setdefault(e)
            for e in g.outs:
                seen.setdefault(e)
        for e in self.outputs:
            seen.setdefault(e)
        return tuple(seen)

    @property
    def edges(self) -> frozenset[str]:
        return frozenset(self.edge_order)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @cached_property
    def incidence(self) -> dict[tuple, tuple[tuple[str, str], ...]]:
        """vertex -> ((edge, "top"|"bottom"), ...) attachments at that vertex."""
        table: dict[tuple, list] = {}
        for e in self.edge_order:
            for which, endpoint in (("top", self.top_of(e)), ("bottom", self.bottom_of(e))):
                table.setdefault(vertex_of(endpoint), []).append((e, which))
        for i in range(len(self.generators)):
            table.setdefault(("gen", i), [])
        return {v: tuple(atts) for v, atts in table.items()}

    @cached_property
    def _forest(self) -> "_Forest":
        """The spanning forest: cycles, components and both seed gates read it."""
        return _Forest(self)

    @cached_property
    def _moves(self) -> "dict[tuple[str, Dir], tuple[int, tuple[tuple[str, Dir], ...]] | None]":
        """The machine's move table: (edge, direction) -> (generator index, legs).

        A token in that slot enters the generator, and `legs` lists its
        other legs with the direction that leaves it: inputs up, outputs
        down.  The slot maps to None where the token heads for a boundary
        slot instead, so nothing moves it.
        """
        moves: dict = dict.fromkeys((e, o) for e in self.edge_order for o in Dir)
        for i, g in enumerate(self.generators):
            legs = tuple((e, Dir.UP) for e in g.ins) + tuple((e, Dir.DOWN) for e in g.outs)
            for k, (e, out) in enumerate(legs):
                moves[e, out.flipped] = (i, legs[:k] + legs[k + 1 :])
        return moves

    def endpoints(self, edge: str) -> tuple[Endpoint, Endpoint]:
        return (self.top_of(edge), self.bottom_of(edge))

    def has_ground(self) -> bool:
        return any(g.kind is GenKind.GROUND for g in self.generators)

    def __rshift__(self, other: "Diagram") -> "Diagram":
        return compose(self, other)

    def __matmul__(self, other: "Diagram") -> "Diagram":
        return tensor(self, other)

    def __str__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return (
            f"Diagram({len(self.inputs)}->{len(self.outputs)}, "
            f"gens=[{gens}], edges={len(self.edge_order)})"
        )


# -- constructors ---------------------------------------------------------


def make_generator(
    kind: GenKind | str,
    n_in: int | None = None,
    n_out: int | None = None,
    angle: "Angle | float | int | Fraction | None" = None,
) -> Diagram:
    """A single generator with fresh boundary edges a1..an / b1..bm."""
    kind = GenKind(kind)
    if kind in _FIXED_ARITY:
        fn, fm = _FIXED_ARITY[kind]
        if n_in is not None and n_in != fn or n_out is not None and n_out != fm:
            raise ArityError(f"{kind.value} is always {fn}->{fm}")
        n_in, n_out = fn, fm
        ang = None
        if angle is not None:
            raise ArityError(f"{kind.value} takes no angle")
    else:
        if n_in is None or n_out is None or n_in < 0 or n_out < 0:
            raise ArityError("Z spider needs n_in >= 0 and n_out >= 0")
        ang = Angle.of(angle)
    ins = tuple(f"a{i + 1}" for i in range(n_in))
    outs = tuple(f"b{i + 1}" for i in range(n_out))
    gen = Generator(kind, ins, outs, ang)
    return Diagram((gen,), ins, outs)


def empty_diagram() -> Diagram:
    return Diagram((), (), ())


def identity_wire() -> Diagram:
    """One bare wire from input slot 0 to output slot 0."""
    return Diagram((), ("a1",), ("a1",))


def swap_wires() -> Diagram:
    """Two bare wires crossing: inputs (a1,a2) exit as (a2,a1)."""
    return Diagram((), ("a1", "a2"), ("a2", "a1"))


def red_spider(
    n_in: int,
    n_out: int,
    angle: "Angle | float | int | Fraction | None" = None,
) -> Diagram:
    """Red spider by colour change: H on every leg of a green spider."""
    d: Diagram = empty_diagram()
    for _ in range(n_in):
        d = tensor(d, make_generator(GenKind.H))
    d = compose(d, make_generator(GenKind.Z, n_in, n_out, angle))
    hs: Diagram = empty_diagram()
    for _ in range(n_out):
        hs = tensor(hs, make_generator(GenKind.H))
    return compose(d, hs)


# -- renaming -------------------------------------------------------------


def rename_edges(d: Diagram, mapping: dict[str, str]) -> Diagram:
    """Apply a simultaneous edge rename; names must stay pairwise distinct."""

    def r(e: str) -> str:
        return mapping.get(e, e)

    new_names = [r(e) for e in d.edge_order]
    if len(set(new_names)) != len(new_names):
        raise DiagramError("rename would collide edge names")
    gens = tuple(
        replace(g, ins=tuple(r(e) for e in g.ins), outs=tuple(r(e) for e in g.outs))
        for g in d.generators
    )
    return Diagram(gens, tuple(r(e) for e in d.inputs), tuple(r(e) for e in d.outputs))


def _fresh_namer(taken: set[str]) -> "Iterator[str]":
    k = 1
    while True:
        name = f"e{k}"
        k += 1
        if name not in taken:
            taken.add(name)
            yield name


def canonical_relabel(d: Diagram) -> Diagram:
    """Deterministic names: inputs a1.., outputs b1.. (by slot), internal e1..

    A direct input-to-output wire keeps its a-name on both boundaries.
    """
    mapping: dict[str, str] = {}
    for k, e in enumerate(d.inputs):
        mapping[e] = f"a{k + 1}"
    for k, e in enumerate(d.outputs):
        if e not in mapping:
            mapping[e] = f"b{k + 1}"
    taken = set(mapping.values())
    fresh = _fresh_namer(taken)
    for e in d.edge_order:
        if e not in mapping:
            mapping[e] = next(fresh)
    return rename_edges(d, mapping)


def _merge_renamed(base_names: set[str], d2: Diagram, pinned: dict[str, str]) -> Diagram:
    """Rename d2's edges so they avoid base_names; `pinned` renames win."""
    taken = set(base_names) | set(pinned.values())
    mapping = dict(pinned)
    fresh = _fresh_namer(taken)
    for e in d2.edge_order:
        if e in mapping:
            continue
        if e not in taken:
            mapping[e] = e
            taken.add(e)
        else:
            mapping[e] = next(fresh)
    return rename_edges(d2, mapping)


# -- composition ----------------------------------------------------------


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Sequential composition, d1 on top: d1's outputs feed d2's inputs.

    Joined wires fuse into single edges keeping d1's output names; d2's
    other names survive unless they collide with d1's.
    """
    if len(d1.outputs) != len(d2.inputs):
        raise CompositionError(
            f"cannot compose {len(d1.outputs)} outputs into {len(d2.inputs)} inputs"
        )
    pinned = {e2: e1 for e2, e1 in zip(d2.inputs, d1.outputs)}
    d2r = _merge_renamed(set(d1.edge_order), d2, pinned)
    return Diagram(
        d1.generators + d2r.generators,
        d1.inputs,
        d2r.outputs,
    )


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Side-by-side composition; d1's wires come first (most significant)."""
    d2r = _merge_renamed(set(d1.edge_order), d2, {})
    return Diagram(
        d1.generators + d2r.generators,
        d1.inputs + d2r.inputs,
        d1.outputs + d2r.outputs,
    )


# -- paths and cycles -----------------------------------------------------


@dataclass(frozen=True)
class Path:
    """A vertex-simple trail: edges plus per-edge travel direction.

    Consecutive edges meet at a shared generator, and every vertex
    touched (including the two free ends) is distinct.
    """

    edges: tuple[str, ...]
    dirs: tuple[Dir, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.dirs) or not self.edges:
            raise DiagramError("path needs one direction per edge, and >= 1 edge")

    def __len__(self) -> int:
        return len(self.edges)

    def reversed(self) -> "Path":
        return type(self)(
            tuple(reversed(self.edges)),
            tuple(d.flipped for d in reversed(self.dirs)),
        )

    def orientation_of(self, edge: str) -> Dir | None:
        """Travel direction of `edge` in this path, or None if absent."""
        try:
            return self.dirs[self.edges.index(edge)]
        except ValueError:
            return None

    def __str__(self) -> str:
        return ";".join(f"{e}{d.arrow}" for e, d in zip(self.edges, self.dirs))


@dataclass(frozen=True)
class Cycle(Path):
    """A closed path: the head of the last edge is the tail of the first."""


def _tail_head(d: Diagram, edge: str, direction: Dir) -> tuple[tuple, tuple]:
    top = vertex_of(d.top_of(edge))
    bottom = vertex_of(d.bottom_of(edge))
    return (top, bottom) if direction is Dir.DOWN else (bottom, top)


def path_vertices(d: Diagram, p: Path) -> list[tuple]:
    """Vertex sequence visited by p (length len(p)+1)."""
    verts = []
    for e, o in zip(p.edges, p.dirs):
        tail, head = _tail_head(d, e, o)
        if not verts:
            verts.append(tail)
        verts.append(head)
    return verts


def validate_path(d: Diagram, p: Path) -> None:
    """Raise DiagramError unless p is a valid path (or cycle) in d."""
    verts = path_vertices(d, p)
    run = None
    for e, o in zip(p.edges, p.dirs):
        tail, head = _tail_head(d, e, o)
        if run is not None and tail != run:
            raise DiagramError(f"path breaks at {e}: {tail} != {run}")
        if run is not None and tail[0] != "gen":
            raise DiagramError("path passes through a boundary slot")
        run = head
    closed = verts[0] == verts[-1] and len(verts) > 1
    interior = verts[:-1] if closed else verts
    if len(set(interior)) != len(interior):
        raise DiagramError("path revisits a vertex")
    if len(set(p.edges)) != len(p.edges):
        raise DiagramError("path repeats an edge")
    if isinstance(p, Cycle):
        if not closed:
            raise DiagramError("cycle does not close")
        for v in interior:
            if v[0] != "gen":
                raise DiagramError("cycle passes through a boundary slot")
    elif closed:
        raise DiagramError("path closes on itself; use Cycle")


def _leaving(d: Diagram, vertex: tuple, via: str | None) -> list[tuple[str, Dir]]:
    """Edges leaving `vertex`, excluding the arrival edge `via`."""
    if vertex[0] != "gen":
        return []
    out = []
    for e, which in d.incidence[vertex]:
        if e == via:
            continue
        out.append((e, Dir.DOWN if which == "top" else Dir.UP))
    return out


def _iter_directed_paths(
    d: Diagram, start: tuple[str, Dir], limit_counter: list[int], cap: int
) -> Iterator[tuple[tuple[str, Dir], ...]]:
    """All vertex-simple directed paths beginning with `start`."""
    e0, o0 = start
    tail0, head0 = _tail_head(d, e0, o0)
    if tail0 == head0:  # self-loop: in no path
        return
    stack: list[tuple[tuple, tuple, frozenset]] = [
        (((e0, o0),), head0, frozenset((tail0, head0)))
    ]
    while stack:
        steps, head, visited = stack.pop()
        limit_counter[0] += 1
        if limit_counter[0] > cap:
            raise PathLimitExceeded(f"more than {cap} paths")
        yield steps
        for e, o in _leaving(d, head, steps[-1][0]):
            _, nxt = _tail_head(d, e, o)
            if nxt in visited:
                continue
            stack.append((steps + ((e, o),), nxt, visited | {nxt}))


def enumerate_paths(d: Diagram) -> list[Path]:
    """Every path of d, one representative per direction-reversal pair.

    Exponential in general: raises PathLimitExceeded past
    `DEFAULT_PATH_LIMIT` directed paths.
    """
    found: dict[tuple, None] = {}
    counter = [0]
    for e in d.edge_order:
        for o in (Dir.DOWN, Dir.UP):
            for steps in _iter_directed_paths(d, (e, o), counter, DEFAULT_PATH_LIMIT):
                found[min(steps, tuple((f, q.flipped) for f, q in reversed(steps)))] = None
    return [Path(*zip(*steps)) for steps in found]


def enumerate_cycles(d: Diagram) -> list[Cycle]:
    """Every simple cycle, one representative per rotation/reversal class.

    A cycle is a path from a generator, walked as `enumerate_paths` walks
    it, that one more leaving edge closes back to its start, or a
    self-loop.  Raises PathLimitExceeded past `DEFAULT_PATH_LIMIT` walked
    paths.  To learn only whether a cycle exists, test `cycle_basis`.
    """
    found: dict[tuple, tuple] = {}  # canonical rotation -> the first walk that closed it
    counter = [0]

    def close(steps: tuple[tuple[str, Dir], ...]) -> None:
        back = tuple((f, q.flipped) for f, q in reversed(steps))
        rotations = (seq[r:] + seq[:r] for seq in (steps, back) for r in range(len(seq)))
        found.setdefault(min(rotations), steps)

    for e in d.edge_order:
        for o in (Dir.DOWN, Dir.UP):
            tail0, head0 = _tail_head(d, e, o)
            if tail0[0] != "gen":
                continue
            if tail0 == head0:
                close(((e, o),))
            for steps in _iter_directed_paths(d, (e, o), counter, DEFAULT_PATH_LIMIT):
                head = _tail_head(d, *steps[-1])[1]
                for f, q in _leaving(d, head, steps[-1][0]):
                    if _tail_head(d, f, q)[1] == tail0:
                        close(steps + ((f, q),))
    return [Cycle(*zip(*steps)) for steps in found.values()]


class _Forest:
    """A breadth-first spanning forest of the vertex graph, boundary slots included.

    Every structural question about the diagram is read off it.
    `trees` lists each connected component's vertices, its first vertex
    (the root) first and every parent before its children; `links` maps
    each other vertex to (parent, edge, direction from the parent).  The
    edges off the forest are its `chords` (edge, top vertex, bottom
    vertex), self-loops included, so the diagram has a cycle exactly
    when it has a chord; `basis` holds the fundamental cycle of each:
    down the chord, then back through the forest.  A boundary slot has
    one edge, so no chord ends at it and no forest path passes through
    it.
    """

    def __init__(self, d: Diagram):
        self.links: dict[tuple, tuple[tuple, str, Dir]] = {}
        self.depth: dict[tuple, int] = {}
        tree_edges: set[str] = set()
        trees = []
        for root in d.incidence:
            if root in self.depth:
                continue
            self.depth[root] = 0
            tree = [root]
            for v in tree:  # grows while it is read: a breadth-first queue
                for e, which in d.incidence[v]:
                    w = vertex_of(d.bottom_of(e) if which == "top" else d.top_of(e))
                    if w not in self.depth:
                        self.depth[w] = self.depth[v] + 1
                        self.links[w] = (v, e, Dir.DOWN if which == "top" else Dir.UP)
                        tree_edges.add(e)
                        tree.append(w)
            trees.append(tuple(tree))
        self.trees = tuple(trees)
        self.chords = tuple(
            (e, vertex_of(d.top_of(e)), vertex_of(d.bottom_of(e)))
            for e in d.edge_order
            if e not in tree_edges
        )
        basis = []
        for e, top, bottom in self.chords:
            steps = [(e, Dir.DOWN)] + self.steps(bottom, top)
            basis.append(Cycle(tuple(s[0] for s in steps), tuple(s[1] for s in steps)))
        self.basis = tuple(basis)

    def steps(self, a: tuple, b: tuple) -> list[tuple[str, Dir]]:
        """The forest path from vertex a to vertex b of the same tree."""
        up: list[tuple[str, Dir]] = []
        down: list[tuple[str, Dir]] = []
        while a != b:
            if self.depth[a] >= self.depth[b]:
                a, e, o = self.links[a]
                up.append((e, o.flipped))
            else:
                b, e, o = self.links[b]
                down.append((e, o))
        return up + down[::-1]


def cycle_basis(d: Diagram) -> list[Cycle]:
    """A fundamental cycle basis of the generator graph: one cycle per chord.

    Spans the cycle space: zero circulation on these implies zero on
    every simple cycle, so balance checks may use this instead of full
    enumeration, and the basis is empty exactly when d has no cycle.
    Built once per diagram with its spanning forest, in time linear in
    the diagram plus the length of the cycles.
    """
    return list(d._forest.basis)


# -- components -----------------------------------------------------------


@dataclass(frozen=True)
class ComponentMap:
    """Where a component's boundary sits inside the parent diagram."""

    input_slots: tuple[int, ...]
    output_slots: tuple[int, ...]
    generator_indices: tuple[int, ...]


def connected_components(d: Diagram) -> list[tuple[Diagram, ComponentMap]]:
    """Split into connected pieces, labels preserved: one per spanning tree.

    Ordered by first appearance (input slots, then output slots, then
    generator index).
    """
    scan: list[tuple] = [("in", k) for k in range(d.n_inputs)]
    scan += [("out", k) for k in range(d.n_outputs)]
    scan += [("gen", i) for i in range(len(d.generators))]
    rank = {v: n for n, v in enumerate(scan)}
    pieces = []
    trees = [sorted(tree, key=rank.__getitem__) for tree in d._forest.trees]
    for tree in sorted(trees, key=lambda t: rank[t[0]]):
        in_slots = tuple(k for kind, k in tree if kind == "in")
        out_slots = tuple(k for kind, k in tree if kind == "out")
        gen_idx = tuple(i for kind, i in tree if kind == "gen")
        piece = Diagram(
            tuple(d.generators[i] for i in gen_idx),
            tuple(d.inputs[k] for k in in_slots),
            tuple(d.outputs[k] for k in out_slots),
        )
        pieces.append((piece, ComponentMap(in_slots, out_slots, gen_idx)))
    return pieces


# -- conjugation and doubling ---------------------------------------------


def conjugate(d: Diagram) -> Diagram:
    """Entrywise complex conjugate: negate every spider angle."""
    gens = tuple(
        replace(g, angle=-g.angle) if g.kind is GenKind.Z else g
        for g in d.generators
    )
    return Diagram(gens, d.inputs, d.outputs)


def conj_edge_name(e: str) -> str:
    """Name of the conjugate-copy twin of edge e in a doubled diagram."""
    return "~" + e


def cpm_construct(d: Diagram) -> Diagram:
    """Double d: d beside its conjugate, grounds replaced by cups.

    Every edge e of d appears as e (plain copy) and ~e (conjugate copy);
    boundary wires interleave as (e, ~e) per original wire.  The result
    is always pure.
    """
    clash = {conj_edge_name(e) for e in d.edge_order} & set(d.edge_order)
    if clash:
        raise DiagramError(f"edge names collide with conjugate prefix: {sorted(clash)}")
    conj_map = {e: conj_edge_name(e) for e in d.edge_order}

    gens1 = []
    cups = []
    for g in d.generators:
        if g.kind is GenKind.GROUND:
            e = g.ins[0]
            cups.append(Generator(GenKind.CUP, (e, conj_map[e]), ()))
        else:
            gens1.append(g)
    gens2 = []
    for g in d.generators:
        if g.kind is GenKind.GROUND:
            continue
        angle = -g.angle if g.kind is GenKind.Z else None
        gens2.append(
            Generator(
                g.kind,
                tuple(conj_map[e] for e in g.ins),
                tuple(conj_map[e] for e in g.outs),
                angle,
            )
        )
    inputs = tuple(x for e in d.inputs for x in (e, conj_map[e]))
    outputs = tuple(x for e in d.outputs for x in (e, conj_map[e]))
    return Diagram(tuple(gens1 + gens2 + cups), inputs, outputs)
