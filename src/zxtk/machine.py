"""The asynchronous token machine.

Token states are complex-weighted multisets of tokens (polynomials:
terms are token products, the state is their weighted sum).  Evolution
interleaves two rule families: a diffusion rewrites one chosen token at
the generator it points into, inside its term only; afterwards every
edge holding an opposite-direction token pair collides, erasing the
pair on equal bits and killing the term on unequal bits.  A step is one
diffusion followed by all collisions, so collisions always have
priority; a state where every token points at a boundary slot is a
normal form.

The same engine drives both machines: pure tokens carry one bit,
mixed-process tokens two (see `ground`).  The rule table is a
parameter.  Seeds are allowed to start with collision pairs on an edge
(that is how whole-matrix extraction is seeded); collisions only fire
after the first diffusion, which consumes half of the pair.

Collision invariant: the state after every step is collision-free.
The first step collides every term of the seed; after that a pair can
only appear in a branch term the step's diffusion just emitted, so
`normalize` collides those terms alone.  It also keeps the active sites
of every live term in canonical order across steps.  A step therefore
costs one copy of the term dict (each step's state is kept in the
trace) plus work proportional to the terms it touches: the consumed
term and its branches.  The sites sit in buckets by the scheduler's
rank, so a ranked scheduler takes the first site of the lowest bucket
and scans nothing.
"""

from __future__ import annotations

import cmath
import itertools
import os
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .diagram import (
    Diagram,
    Dir,
    GenKind,
    Path,
    cycle_basis,
    enumerate_paths,
    vertex_of,
)
from .errors import (
    ConfigError,
    DiagramError,
    FuseExceeded,
    GroundNotAllowed,
    NormalFormReached,
    NotCycleBalanced,
    NotWellFormed,
)

PRUNE_EPS = 1e-12


class Token(NamedTuple):
    """One token: an edge, a travel direction, and its bit payload.

    Pure tokens carry one bit, ground tokens two.  Field order doubles
    as the canonical sort order of tokens inside a term.
    """

    edge: str
    direction: Dir
    bits: tuple[int, ...]

    def __str__(self) -> str:
        return f"({self.edge}{self.direction.arrow}{','.join(map(str, self.bits))})"


# A term is the canonically sorted token multiset; the scalar term is ().
Term = tuple[Token, ...]


def term_key(tokens: Iterable[Token]) -> Term:
    return tuple(sorted(tokens))


class TokenState:
    """A polynomial over tokens: like terms merged, zero terms pruned.

    The empty term () is the scalar monomial 1; a state with no terms
    at all is the zero polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Term, complex] | Iterable[tuple[complex, Iterable[Token]]] = ()):
        acc: dict[Term, complex] = {}
        pairs = terms.items() if isinstance(terms, Mapping) else ((term_key(toks), complex(c)) for c, toks in terms)
        for key, coeff in pairs:
            acc[key] = acc.get(key, 0j) + complex(coeff)
        self.terms = {k: v for k, v in acc.items() if abs(v) > PRUNE_EPS}

    @classmethod
    def single(cls, coeff: complex, tokens: Iterable[Token]) -> "TokenState":
        return cls([(coeff, tuple(tokens))])

    @classmethod
    def zero(cls) -> "TokenState":
        return cls()

    @classmethod
    def coerce(cls, value) -> "TokenState":
        if isinstance(value, cls):
            return value
        return cls(value)

    def canonical(self) -> tuple[tuple[Term, complex], ...]:
        """Terms in sorted order; the stable form used for comparison."""
        return tuple((k, self.terms[k]) for k in sorted(self.terms))

    def deviation(self, other: "TokenState") -> float:
        """Largest coefficient difference over the terms of either state."""
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys), default=0.0)

    def allclose(self, other: "TokenState", atol: float = 1e-9) -> bool:
        return self.deviation(other) <= atol

    def __add__(self, other: "TokenState") -> "TokenState":
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, 0j) + v
        return TokenState(acc)

    def scaled(self, factor: complex) -> "TokenState":
        return TokenState({k: v * factor for k, v in self.terms.items()})

    def copy(self) -> "TokenState":
        s = TokenState.__new__(TokenState)
        s.terms = dict(self.terms)
        return s

    def tokens(self) -> set[Token]:
        return {t for term in self.terms for t in term}

    def is_collision_free(self) -> bool:
        """No term has an edge carrying tokens in both directions."""
        for term in self.terms:
            dirs: dict[str, set[Dir]] = {}
            for t in term:
                dirs.setdefault(t.edge, set()).add(t.direction)
                if len(dirs[t.edge]) == 2:
                    return False
        return True

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, TokenState) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for key, coeff in self.canonical():
            toks = "".join(map(str, key)) if key else "1"
            chunks.append(f"({coeff:.6g}){toks}")
        return " + ".join(chunks)

    __repr__ = __str__


# -- rule tables ------------------------------------------------------------

Branch = tuple[complex, tuple[Token, ...]]


class RuleTable:
    """Diffusion rules over w = len(signs) conjugate copies of the diagram.

    A token carries one bit per copy, and copy c sees every phase with
    sign signs[c].  The pure machine runs one copy; the mixed-process
    machine runs the diagram beside its conjugate, the doubled diagram
    of the CPM construction, where a ground is a cup joining the copies.

    `diffuse` returns the branches replacing a token that entered
    generator `g` at the given side/port: a list of (factor, emitted
    tokens).  An empty list means the term is erased (factor 0).
    """

    def __init__(self, name: str, signs: tuple[int, ...]):
        self.name = name
        self.bit_width = w = len(signs)
        self._patterns = tuple(itertools.product((0, 1), repeat=w))
        # Z spiders: the phase multiple sum_c s_c x_c of each payload; the
        # keys are exactly the payloads these rules accept
        self._weight = {x: sum(s * b for s, b in zip(signs, x)) for x in self._patterns}
        # H: one branch per z in product order, 2^(-w/2) (-1)^(x.z); the
        # scale is one power of 2.0, as (2 ** -0.5) ** 2 is not 0.5
        scale = 2.0 ** (-w / 2)
        self._hadamard = {
            x: tuple(
                ((-1.0) ** sum(a * b for a, b in zip(x, z)) * scale, z) for z in self._patterns
            )
            for x in self._patterns
        }

    @staticmethod
    def _spider_emissions(g, port_side: str, port: int, bits: tuple[int, ...]) -> tuple[Token, ...]:
        # every other leg of the spider fires away from it: inputs up, outputs down
        out = []
        for p, e in enumerate(g.ins):
            if not (port_side == "in" and p == port):
                out.append(Token(e, Dir.UP, bits))
        for p, e in enumerate(g.outs):
            if not (port_side == "out" and p == port):
                out.append(Token(e, Dir.DOWN, bits))
        return tuple(out)

    def diffuse(self, g, gen_kind: GenKind, port_side: str, port: int, token: Token) -> list[Branch]:
        bits = token.bits
        if gen_kind is GenKind.Z:
            phase = cmath.exp(1j * g.angle.to_radians * self._weight[bits])
            return [(phase, self._spider_emissions(g, port_side, port, bits))]
        if gen_kind is GenKind.H:
            other = g.outs[0] if port_side == "in" else g.ins[0]
            direction = Dir.DOWN if port_side == "in" else Dir.UP
            return [(factor, (Token(other, direction, z),)) for factor, z in self._hadamard[bits]]
        if gen_kind is GenKind.CUP:
            return [(1.0 + 0j, (Token(g.ins[1 - port], Dir.UP, bits),))]
        if gen_kind is GenKind.CAP:
            return [(1.0 + 0j, (Token(g.outs[1 - port], Dir.DOWN, bits),))]
        if self.bit_width == 1:
            raise GroundNotAllowed(
                "pure tokens cannot enter a ground; run the two-bit machine or double the diagram"
            )
        # trace-out: the token is erased; copies that disagree erase the whole term
        if bits.count(bits[0]) == len(bits):
            return [(1.0 + 0j, ())]
        return []


PURE_RULES = RuleTable("pure", (1,))
GROUND_RULES = RuleTable("ground", (1, -1))


# -- single rewrites --------------------------------------------------------


def _target_endpoint(d: Diagram, token: Token):
    """The attachment the token is heading for."""
    if token.direction is Dir.DOWN:
        return d.bottom_of(token.edge)
    return d.top_of(token.edge)


def is_frozen(d: Diagram, token: Token) -> bool:
    """True when the token points at a boundary slot: no rule applies."""
    return _target_endpoint(d, token)[0] != "gen"


def _remove_one(term: Term, token: Token) -> tuple[Token, ...]:
    i = term.index(token)
    return term[:i] + term[i + 1 :]


_RULE_NAMES = {
    GenKind.Z: "green-diffusion",
    GenKind.H: "hadamard-diffusion",
    GenKind.CUP: "cup-diffusion",
    GenKind.CAP: "cap-diffusion",
    GenKind.GROUND: "trace-out",
}


def _check_payload(token: Token, rules: RuleTable) -> None:
    """Refuse bits that are not one 0 or 1 per copy of the rule table."""
    if token.bits not in rules._weight:
        if len(token.bits) != rules.bit_width:
            raise DiagramError(
                f"token {token} carries {len(token.bits)} bits; these rules want {rules.bit_width}"
            )
        raise DiagramError(f"token {token} carries a bit other than 0 or 1")


def _apply_rule(d: Diagram, token: Token, rules: RuleTable) -> tuple[int, str, list[Branch]]:
    """Run the diffusion rule for `token`; returns (gen index, rule name, branches)."""
    _check_payload(token, rules)
    endpoint = _target_endpoint(d, token)
    if endpoint[0] != "gen":
        raise DiagramError(f"token {token} points at boundary slot {endpoint}; nothing to diffuse")
    _, gi, port_side, port = endpoint
    g = d.generators[gi]
    return gi, _RULE_NAMES[g.kind], rules.diffuse(g, g.kind, port_side, port, token)


def diffuse_once(
    d: Diagram,
    s: TokenState,
    site: tuple[Term, Token],
    *,
    rules: RuleTable = PURE_RULES,
    branches: Sequence[Branch] | None = None,
) -> TokenState:
    """Apply one diffusion at (term, token), inside that term only.

    No collisions are performed; see `step` for the full machine move.
    `branches` is the rule's output for the token, for a caller that
    has already run the rule.  Only the branch terms are summed and
    pruned; every other term keeps its coefficient.
    """
    term, token = site
    term = term_key(term)
    coeff = s.terms.get(term)
    if coeff is None:
        raise DiagramError("site term is not present in the state")
    if token not in term:
        raise DiagramError(f"token {token} is not in the chosen term")
    if branches is None:
        _, _, branches = _apply_rule(d, token, rules)
    rest = _remove_one(term, token)
    terms = dict(s.terms)
    del terms[term]
    keys = [term_key(rest + emitted) for _, emitted in branches]
    for (factor, _), key in zip(branches, keys):
        terms[key] = terms.get(key, 0j) + complex(coeff * factor)
    for key in keys:
        if key in terms and abs(terms[key]) <= PRUNE_EPS:
            del terms[key]
    out = TokenState.__new__(TokenState)
    out.terms = terms
    return out


# collision record: (edge, down token, up token, bits matched?)
Collision = tuple[str, Token, Token, bool]


def _collide_term(term: Term) -> tuple[complex, Term, tuple[Collision, ...]]:
    """Resolve all collisions inside one term.

    On every edge holding both directions, the sorted down-tokens pair
    with the sorted up-tokens in order.  Returns the coefficient factor
    (0 or 1), the surviving term, and the pair records.
    """
    by_edge: dict[str, tuple[list[Token], list[Token]]] = {}
    for t in term:
        slot = by_edge.setdefault(t.edge, ([], []))
        slot[0 if t.direction is Dir.DOWN else 1].append(t)
    records: list[Collision] = []
    dead = False
    removed: list[Token] = []
    for edge in sorted(by_edge):
        downs, ups = by_edge[edge]
        for down, up in zip(sorted(downs), sorted(ups)):
            matched = down.bits == up.bits
            records.append((edge, down, up, matched))
            removed.extend((down, up))
            if not matched:
                dead = True
    if not records:
        return 1.0 + 0j, term, ()
    if dead:
        return 0j, (), tuple(records)
    survivors = list(term)
    for t in removed:
        survivors.remove(t)
    return 1.0 + 0j, term_key(survivors), tuple(records)


def collide_all(s: TokenState) -> TokenState:
    """Apply every possible collision; the result is collision-free."""
    state, _ = _collide_all_recorded(s)
    return state


def _collide_all_recorded(s: TokenState) -> tuple[TokenState, tuple[Collision, ...]]:
    pairs = []
    records: list[Collision] = []
    for term, coeff in s.terms.items():
        factor, survivor, recs = _collide_term(term)
        records.extend(recs)
        if factor != 0:
            pairs.append((coeff * factor, survivor))
    return TokenState(pairs), tuple(records)


def _meets_opposite(term: Term, tokens: Iterable[Token]) -> bool:
    """True when `term` holds an opposite-direction token on the edge of one of `tokens`."""
    for token in tokens:
        probe = (token.edge, token.direction.flipped)
        at = bisect_left(term, probe)
        if at < len(term) and term[at][:2] == probe:
            return True
    return False


def _collide_dirty(
    terms: dict[Term, complex], dirty: Iterable[Term]
) -> tuple[tuple[Collision, ...], list[Term]]:
    """Collide, in place, the terms of `dirty` that hold a pair.

    Gives the coefficients, records and key order that a whole-state
    pass (`_collide_all_recorded`) would: that pass rebuilds the dict in
    order, so the keys before the first colliding one keep their place
    and only the keys from there to the end are re-added.  Once the state
    is collision-free, colliding keys are new branch terms at the end of
    the dict, so that tail is a handful of keys.  Returns the records and
    every key re-added or created.
    """
    hits = {}
    for key in dirty:
        if key in terms and key not in hits:
            hit = _collide_term(key)
            if hit[2]:
                hits[key] = hit
    if not hits:
        return (), []
    tail: list[Term] = []
    left = len(hits)
    for key in reversed(terms):
        tail.append(key)
        if key in hits:
            left -= 1
            if not left:
                break
    tail.reverse()
    coeffs = [terms.pop(key) for key in tail]
    records: list[Collision] = []
    added: list[Term] = []
    for key, coeff in zip(tail, coeffs):
        factor, survivor, recs = hits.get(key, (1.0 + 0j, key, ()))
        records.extend(recs)
        if factor != 0:
            terms[survivor] = terms.get(survivor, 0j) + complex(coeff * factor)
            added.append(survivor)
    for key in added:
        if key in terms and abs(terms[key]) <= PRUNE_EPS:
            del terms[key]
    return tuple(records), tail + added


# -- schedulers -------------------------------------------------------------

Site = tuple[Term, Token]
Strategy = Callable[[Diagram, TokenState, Sequence[Site]], Site]


def _frozen_table(d: Diagram) -> dict[tuple[str, Dir], bool]:
    """(edge, direction) -> True when a token there points at a boundary slot."""
    return {
        (e, direction): is_frozen(d, Token(e, direction, ()))
        for e in d.edge_order
        for direction in Dir
    }


def _term_sites(term: Term, frozen: Mapping[tuple[str, Dir], bool]) -> tuple[Site, ...]:
    """The term's diffusible sites; duplicate tokens of a multiset share one."""
    sites = []
    previous = None
    for token in term:
        if token != previous and not frozen[token[:2]]:
            sites.append((term, token))
        previous = token
    return tuple(sites)


def _active_sites(d: Diagram, s: TokenState) -> list[Site]:
    """Diffusible (term, token) sites in canonical order."""
    sites: list[Site] = []
    for term in sorted(s.terms):
        seen: set[Token] = set()
        for token in term:
            if token in seen:
                continue  # duplicate tokens in a multiset share one site
            seen.add(token)
            if not is_frozen(d, token):
                sites.append((term, token))
    return sites


def _depth_map(d: Diagram) -> dict[int, int]:
    """Rough top-to-bottom rank of each generator, input boundary = 0."""
    depth = {i: 0 for i in range(len(d.generators))}
    feeds: list[tuple[int, int]] = []  # (upper gen, lower gen)
    roots: set[int] = set()
    for e in d.edge_order:
        top, bottom = vertex_of(d.top_of(e)), vertex_of(d.bottom_of(e))
        if bottom[0] == "gen":
            if top[0] == "gen":
                feeds.append((top[1], bottom[1]))
            else:
                roots.add(bottom[1])
    for _ in range(len(d.generators)):
        changed = False
        for up, down in feeds:
            want = depth[up] + 1
            if depth[down] < want and down not in roots:
                depth[down] = min(want, len(d.generators))
                changed = True
        if not changed:
            break
    return depth


def _slice_rank(d: Diagram) -> Callable[[Term, Token], int]:
    """A site's rank: the depth of the generator its token enters."""
    depth = _depth_map(d)
    targets = {
        (e, direction): _target_endpoint(d, Token(e, direction, ()))
        for e in d.edge_order
        for direction in Dir
    }
    ranks = {slot: depth[end[1]] for slot, end in targets.items() if end[0] == "gen"}
    return lambda term, token: ranks[token[:2]]


# scheduler name -> per-diagram rank of a site; the run offers the lowest rank only
_RANKS = {"sparse-first": lambda d: lambda term, token: len(term), "slice-order": _slice_rank}


def make_strategy(spec: "str | Strategy") -> Strategy:
    """Build a scheduler from its name.

    deterministic        lexicographically least active site (default)
    random[:seed]        uniform choice, reproducible per run
    sparse-first         smallest term first, ties lexicographic
    slice-order          sweep generators top to bottom, mimicking
                         slice-by-slice evaluation of the matrix

    The run keeps its sites in buckets by the rank named in `_RANKS`
    and offers the lowest bucket, in canonical order; the ranked
    schedulers take its first site, so ties break lexicographically.
    The strategy carries its rank as `rank`, so passing it back as a
    scheduler keeps its order.
    """
    if callable(spec):
        return spec
    if spec == "deterministic" or spec in _RANKS:

        def first(d: Diagram, s: TokenState, sites: Sequence[Site]) -> Site:
            return sites[0]

        first.rank = _RANKS.get(spec)
        return first
    if spec == "random" or spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1]) if ":" in spec else 0
        except ValueError:
            raise DiagramError(f"scheduler {spec!r} wants an integer seed after 'random:'") from None
        rng = random.Random(seed)
        return lambda d, s, sites: sites[rng.randrange(len(sites))]
    raise DiagramError(f"unknown scheduler {spec!r}")


def scripted_strategy(tokens: Sequence[Token]) -> Strategy:
    """Replay a fixed token order; each call consumes the next entry.

    When several terms hold the listed token, the canonically first
    term is chosen.
    """
    queue = list(tokens)

    def pick(d: Diagram, s: TokenState, sites: Sequence[Site]) -> Site:
        if not queue:
            raise DiagramError("scripted scheduler ran out of entries")
        want = queue.pop(0)
        for site in sites:
            if site[1] == want:
                return site
        raise DiagramError(f"scripted token {want} is not an active site")

    return pick


# -- the machine ------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    """One machine move: a diffusion plus the collisions it triggered."""

    index: int
    rule: str
    gen_index: int
    term: Term
    token: Token
    produced: tuple[Branch, ...]
    collisions: tuple[Collision, ...]
    state_after: TokenState

    @property
    def rule_applications(self) -> int:
        """Rewrite rules fired in this move: the diffusion plus each collision pair."""
        return 1 + len(self.collisions)


@dataclass
class Trace:
    initial: TokenState
    steps: list[TraceStep]

    @property
    def final(self) -> TokenState:
        return self.steps[-1].state_after if self.steps else self.initial

    def states(self) -> Iterable[TokenState]:
        yield self.initial
        for st in self.steps:
            yield st.state_after

    @property
    def rule_applications(self) -> int:
        return sum(st.rule_applications for st in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


class _Run:
    """The machine state kept across the steps of one run.

    Holds the current state, the active sites of every live term
    (`sites_of`, as (rank, sites) groups, and `buckets`, each rank's
    sites in canonical order; an unranked run has one bucket), and
    whether the state is collision-free yet: the seed may hold pairs, so
    the first step collides every term and later steps only their
    branches.
    The seed's tokens are checked on entry: each must sit on an edge of
    the diagram and carry one 0 or 1 per copy of the rule table.
    """

    def __init__(self, d: Diagram, state: TokenState, rules: RuleTable, scheduler: "str | Strategy"):
        edges = d.edges
        for token in state.tokens():
            if token.edge not in edges:
                raise DiagramError(f"token {token} sits on {token.edge!r}, not an edge of the diagram")
            _check_payload(token, rules)
        self.d = d
        self.rules = rules
        self.state = state
        self.frozen = _frozen_table(d)
        ranked = _RANKS.get(scheduler) if isinstance(scheduler, str) else getattr(scheduler, "rank", None)
        self.rank = ranked and ranked(d)
        self.sites_of: dict[Term, tuple[tuple[int, Sequence[Site]], ...]] = {}
        self.buckets: dict[int, list[Site]] = {}
        self._resite(state.terms, sorted(state.terms))
        self.settled = False

    def step(self, strategy: Strategy, index: int) -> TraceStep:
        if not self.buckets:
            raise NormalFormReached("every token points at a boundary slot")
        d, rules = self.d, self.rules
        term, token = strategy(d, self.state, self.buckets[min(self.buckets)])
        gi, rule_name, branches = _apply_rule(d, token, rules)
        after = diffuse_once(d, self.state, (term, token), rules=rules, branches=branches)
        rest = _remove_one(term, token)
        touched = [term] + [term_key(rest + emitted) for _, emitted in branches]
        if self.settled:  # rest is collision-free: a pair needs an emitted token
            dirty = [
                key for key, (_, emitted) in zip(touched[1:], branches) if _meets_opposite(key, emitted)
            ]
        else:
            dirty = list(after.terms)
        collisions, changed = _collide_dirty(after.terms, dirty)
        self.settled = True
        self._resite(after.terms, touched + changed)
        self.state = after
        return TraceStep(
            index=index,
            rule=rule_name,
            gen_index=gi,
            term=term,
            token=token,
            produced=tuple(branches),
            collisions=collisions,
            state_after=after,
        )

    def _resite(self, terms: dict[Term, complex], keys: Iterable[Term]) -> None:
        """Bring the sites of `keys` in line with their presence in `terms`."""
        buckets = self.buckets
        for key in keys:
            tracked = key in self.sites_of
            if tracked == (key in terms):
                continue
            if tracked:
                for rank, group in self.sites_of.pop(key):
                    bucket = buckets[rank]
                    at = bisect_left(bucket, (key,))
                    del bucket[at : at + len(group)]
                    if not bucket:
                        del buckets[rank]
                continue
            found = _term_sites(key, self.frozen)
            if self.rank is None:
                groups = ((0, found),) if found else ()
            else:
                by_rank: dict[int, list[Site]] = {}
                for site in found:
                    by_rank.setdefault(self.rank(*site), []).append(site)
                groups = tuple(by_rank.items())
            self.sites_of[key] = groups
            for rank, group in groups:
                bucket = buckets.setdefault(rank, [])
                at = bisect_left(bucket, (key,))
                bucket[at:at] = group


def step(
    d: Diagram,
    s: TokenState,
    scheduler: "str | Strategy" = "deterministic",
    *,
    rules: RuleTable = PURE_RULES,
) -> TokenState:
    """One machine move: a scheduled diffusion, then all collisions."""
    return _Run(d, TokenState.coerce(s), rules, scheduler).step(make_strategy(scheduler), 0).state_after


def _resolve_fuse(d: Diagram, s: TokenState, rules: RuleTable, fuse: int | None) -> int:
    if fuse is not None:
        return fuse
    env = os.environ.get("ZXTK_FUSE")
    if env:
        try:
            limit = int(env)
        except ValueError:
            raise ConfigError(f"ZXTK_FUSE wants a positive step count, got {env!r}") from None
        if limit < 1:
            raise ConfigError(f"ZXTK_FUSE wants a positive step count, got {env!r}")
        return limit
    n_h = sum(1 for g in d.generators if g.kind is GenKind.H)
    terms_bound = max(1, len(s.terms)) * (2**rules.bit_width) ** min(n_h, 20)
    return 4 * max(1, len(d.generators)) * terms_bound


def normalize(
    d: Diagram,
    s: "TokenState | Iterable",
    scheduler: "str | Strategy" = "deterministic",
    *,
    rules: RuleTable = PURE_RULES,
    fuse: int | None = None,
    force: bool = False,
) -> tuple[TokenState, Trace]:
    """Drive the state to its normal form.

    Every seed token must sit on an edge of the diagram and carry one
    0 or 1 per copy of `rules`, even under `force`.  The seed must also
    be cycle-balanced (or the run would diverge) and well-formed; both
    are checked up front unless `force` is set, and nothing else skips
    them.  Both gates read the diagram's spanning forest, built once per
    diagram, and decide the seed by its vertex potential in time linear
    in the diagram, however many cycles and paths it has.

    Every step's state is collision-free: the first step collides the
    whole seed, and each later step collides only the branch terms its
    diffusion emitted.  Live terms keep their sites between steps, so a
    step costs a copy of the term dict plus work on the touched terms,
    not a re-sort and re-collision of the whole state.
    """
    state = TokenState.coerce(s)
    run = _Run(d, state, rules, scheduler)
    if not force:
        balanced = is_cycle_balanced(d, state)
        if not balanced:
            raise NotCycleBalanced(
                "seed has nonzero polarity on a cycle; the run would not terminate",
                witness=balanced.witness,
            )
        formed = is_well_formed(d, state)
        if not formed:
            raise NotWellFormed("seed breaks the one-token-per-path bound", witness=formed.witness)
    limit = _resolve_fuse(d, state, rules, fuse)
    strategy = make_strategy(scheduler)
    trace = Trace(initial=state, steps=[])
    for index in range(limit):
        try:
            record = run.step(strategy, index)
        except NormalFormReached:
            return run.state, trace
        trace.steps.append(record)
    raise FuseExceeded(f"no normal form within {limit} steps", state=run.state, steps=limit)


# -- polarity and structural invariants --------------------------------------


def polarity(d: Diagram, p: Path, t: "Term | Token | TokenState") -> int:
    """Signed token count along p: +1 with the traversal, -1 against."""
    if isinstance(t, TokenState):
        raise DiagramError("polarity is defined per term; pass one term of the state")
    tokens = (t,) if isinstance(t, Token) else t
    total = 0
    for token in tokens:
        orient = p.orientation_of(token.edge)
        if orient is not None:
            total += 1 if orient == token.direction else -1
    return total


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: "tuple[Path, Term, int] | None" = None

    def __bool__(self) -> bool:
        return self.ok


def _potential(d: Diagram, term: Term) -> tuple[dict[tuple, int], int | None]:
    """The term's vertex potential φ and the index of its first unbalanced chord.

    φ is 0 at each root of the diagram's spanning forest and moves by
    the term's net down-flow across each forest edge, so that
    φ(bottom) − φ(top) is the flow on every forest edge.  A chord whose
    flow differs from that has nonzero polarity on its fundamental
    cycle, `cycle_basis(d)` at the same index.  When no chord does
    (index None) the term is cycle-balanced, and the polarity of any
    path is φ(end) − φ(start).
    """
    forest = d._forest
    flow: dict[str, int] = {}
    for t in term:
        flow[t.edge] = flow.get(t.edge, 0) + (1 if t.direction is Dir.DOWN else -1)
    phi: dict[tuple, int] = {}
    for tree in forest.trees:
        phi[tree[0]] = 0
        for v in tree[1:]:
            parent, e, o = forest.links[v]
            f = flow.get(e, 0)
            phi[v] = phi[parent] + (f if o is Dir.DOWN else -f)
    for i, (e, top, bottom) in enumerate(forest.chords):
        if flow.get(e, 0) != phi[bottom] - phi[top]:
            return phi, i
    return phi, None


def is_well_formed(d: Diagram, s: "TokenState | Term") -> CheckResult:
    """Every term must keep |polarity| <= 1 on every path.

    A cycle-balanced term is decided by its vertex potential in time
    linear in the diagram: it is well-formed exactly when max φ − min φ
    <= 1 on each component, and the witness is the forest path from the
    argmin to the argmax, whose polarity is max φ − min φ.  A term that
    is not cycle-balanced has no potential; it is checked path by path
    over `enumerate_paths`, which is exponential in general and raises
    PathLimitExceeded on large diagrams (`cnot_chain(10)` gets there
    after seconds).  `normalize` never takes that branch, because its
    balance gate refuses such a seed first.  No term is ever skipped.
    """
    state = s if isinstance(s, TokenState) else TokenState.single(1.0, s)
    forest = d._forest
    paths = None
    for term in state.terms:
        phi, unbalanced = _potential(d, term)
        if unbalanced is None:
            for tree in forest.trees:
                low, high = min(tree, key=phi.__getitem__), max(tree, key=phi.__getitem__)
                if phi[high] - phi[low] > 1:
                    steps = forest.steps(low, high)
                    witness = Path(tuple(e for e, _ in steps), tuple(o for _, o in steps))
                    return CheckResult(False, (witness, term, phi[high] - phi[low]))
            continue
        if paths is None:
            paths = enumerate_paths(d)
        for p in paths:
            value = polarity(d, p, term)
            if abs(value) > 1:
                return CheckResult(False, (p, term, value))
    return CheckResult(True)


def is_cycle_balanced(d: Diagram, s: "TokenState | Term") -> CheckResult:
    """Every term must have zero polarity on every cycle.

    Polarity is linear in a cycle's edge incidences, so zero on the
    fundamental cycles of the diagram's spanning forest (`cycle_basis`)
    is zero everywhere.  A term is checked on all of them at once, in
    time linear in the diagram, by comparing each chord's flow with the
    term's vertex potential; no term is skipped.  The witness is the
    first basis cycle with nonzero polarity, for the first term that
    has one.
    """
    state = s if isinstance(s, TokenState) else TokenState.single(1.0, s)
    cycles = cycle_basis(d)
    for term in state.terms:
        _, unbalanced = _potential(d, term)
        if unbalanced is not None:
            c = cycles[unbalanced]
            return CheckResult(False, (c, term, polarity(d, c, term)))
    return CheckResult(True)


# -- rewinding diagnostic ----------------------------------------------------


def rewind_witness(d: Diagram, initial: Term, trace: Trace, target: Token) -> Path:
    """A path explaining where `target` came from.

    Follows the recorded genealogy from the final state back to the
    initial term, then returns a path that ends at the target's edge,
    oriented with it, and has polarity 1 against the initial term.
    Purely diagnostic; requires the target to survive in the final
    state.
    """
    initial = term_key(initial)
    if not any(target in term for term in trace.final.terms):
        raise DiagramError(f"token {target} is not in the trace's final state")

    walk = [target]
    current = target
    for record in reversed(trace.steps):
        emitted = {t for _, toks in record.produced for t in toks}
        if current in emitted:
            walk.append(record.token)
            current = record.token
    walk.reverse()

    def as_path(tokens: list[Token]) -> Path | None:
        seen: dict[tuple, int] = {}
        edges: list[str] = []
        dirs: list[Dir] = []
        for t in tokens:
            v = vertex_of(d.top_of(t.edge) if t.direction is Dir.DOWN else d.bottom_of(t.edge))
            if v in seen:  # shortcut the loop back to the earlier visit
                del edges[seen[v]:], dirs[seen[v]:]
                for key in [k for k, i in seen.items() if i > seen[v]]:
                    del seen[key]
            else:
                seen[v] = len(edges)
            edges.append(t.edge)
            dirs.append(t.direction)
        try:
            p = Path(tuple(edges), tuple(dirs))
            from .diagram import validate_path

            validate_path(d, p)
            return p
        except DiagramError:
            return None

    candidate = as_path(walk)
    if candidate is not None and polarity(d, candidate, initial) == 1:
        return candidate
    # genealogy got tangled (merged terms); fall back to a direct search
    for p in sorted(enumerate_paths(d), key=len):
        for q in (p, p.reversed()):
            if q.edges[-1] == target.edge and q.dirs[-1] == target.direction:
                if polarity(d, q, initial) == 1:
                    return q
    raise DiagramError(f"no rewind path found for {target}")


# -- semantics extraction ----------------------------------------------------


def _bits_to_index(bits_list: Sequence[tuple[int, ...]]) -> int:
    idx = 0
    for bits in bits_list:
        for b in bits:
            idx = idx * 2 + b
    return idx


def read_terms(
    d: Diagram,
    s: TokenState,
    row_edges: Sequence[str],
    col_edges: Sequence[str],
    *,
    bit_width: int = 1,
) -> np.ndarray:
    """Read a normal form as a matrix.

    Row bits come from down tokens on `row_edges`, column bits from up
    tokens on `col_edges`, big-endian in list order.  Every listed edge
    must carry exactly one token of the expected direction in every
    term.
    """
    rows = 2 ** (len(row_edges) * bit_width)
    cols = 2 ** (len(col_edges) * bit_width)
    m = np.zeros((rows, cols), dtype=complex)
    for term, coeff in s.terms.items():
        lookup: dict[tuple[str, Dir], list[tuple[int, ...]]] = {}
        for t in term:
            lookup.setdefault((t.edge, t.direction), []).append(t.bits)
        try:
            row_bits = [lookup[(e, Dir.DOWN)][0] for e in row_edges]
            col_bits = [lookup[(e, Dir.UP)][0] for e in col_edges]
        except KeyError as missing:
            raise DiagramError(
                f"normal form term {term} has no token for boundary edge {missing}"
            ) from None
        m[_bits_to_index(row_bits), _bits_to_index(col_bits)] += coeff
    return m


def run_single_token(
    d: Diagram, k: int, x: int, scheduler: "str | Strategy" = "deterministic", **kw
) -> TokenState:
    """Normal form of one token dropped down input wire k with bit x."""
    if not 0 <= k < d.n_inputs:
        raise DiagramError(f"no input slot {k}")
    seed = TokenState.single(1.0, [Token(d.inputs[k], Dir.DOWN, (x,))])
    state, _ = normalize(d, seed, scheduler, **kw)
    return state


def run_multi_token(
    d: Diagram,
    input_state: "Mapping | Sequence[complex] | np.ndarray",
    scheduler: "str | Strategy" = "deterministic",
    **kw,
) -> TokenState:
    """Normal form of a weighted superposition of full input rows.

    The input is either a mapping from bitstrings (like "10" or bit
    tuples) to amplitudes, or a dense length-2^n vector.
    """
    n = d.n_inputs
    weights: list[tuple[complex, tuple[int, ...]]] = []
    if isinstance(input_state, Mapping):
        for key, amp in input_state.items():
            bits = tuple(int(b) for b in key)
            if len(bits) != n or any(b not in (0, 1) for b in bits):
                raise DiagramError(f"bad input bitstring {key!r} for {n} wires")
            weights.append((complex(amp), bits))
    else:
        vec = np.asarray(input_state, dtype=complex).reshape(-1)
        if vec.shape[0] != 2**n:
            raise DiagramError(f"input vector length {vec.shape[0]}, expected {2 ** n}")
        weights = [
            (vec[i], tuple((i >> (n - 1 - j)) & 1 for j in range(n)))
            for i in range(2**n)
            if abs(vec[i]) > PRUNE_EPS
        ]
    seed = TokenState(
        (amp, [Token(e, Dir.DOWN, (b,)) for e, b in zip(d.inputs, bits)])
        for amp, bits in weights
    )
    state, _ = normalize(d, seed, scheduler, **kw)
    return state


def extract_state(
    d: Diagram,
    seed_edge: str | None = None,
    scheduler: "str | Strategy" = "deterministic",
    *,
    rules: RuleTable = PURE_RULES,
    **kw,
) -> TokenState:
    """Summed normal forms of every bit pattern seeded on one edge.

    Each pattern starts as an opposite-direction token pair on the
    seed edge and is normalized in its own run: one pattern's pair must
    not be collided away by a diffusion happening in another pattern's
    term.  The sum holds one term per nonzero matrix entry.
    """
    from .diagram import connected_components

    if len(connected_components(d)) > 1:
        raise DiagramError("diagram is disconnected; use extract_matrix_general")
    if not d.edge_order:
        raise DiagramError("diagram has no edge to seed")
    edge = seed_edge if seed_edge is not None else d.edge_order[0]
    if edge not in d.edges:
        raise DiagramError(f"unknown seed edge {edge!r}")
    total = TokenState.zero()
    for bits in rules._patterns:
        seed = TokenState.single(
            1.0, [Token(edge, Dir.DOWN, bits), Token(edge, Dir.UP, bits)]
        )
        state, _ = normalize(d, seed, scheduler, rules=rules, **kw)
        total = total + state
    return total


def extract_matrix(
    d: Diagram,
    seed_edge: str | None = None,
    scheduler: "str | Strategy" = "deterministic",
    *,
    rules: RuleTable = PURE_RULES,
    **kw,
) -> np.ndarray:
    """Whole matrix of a connected diagram from one seeded edge.

    Down tokens on outputs index rows, up tokens on inputs index
    columns, big-endian in slot order.
    """
    total = extract_state(d, seed_edge, scheduler, rules=rules, **kw)
    return read_terms(d, total, d.outputs, d.inputs, bit_width=rules.bit_width)


def extract_matrix_general(
    d: Diagram, scheduler: "str | Strategy" = "deterministic", **kw
) -> np.ndarray:
    """Matrix of any pure diagram, connected or not.

    Each component is extracted on its own (edgeless scalar components
    fall back to the dense interpretation) and the results recombine by
    tensor product, with wires permuted back to the host slot order.
    """
    from .diagram import connected_components
    from .interp import interp

    comps = connected_components(d)
    if not comps:
        return np.array([[1.0 + 0j]])
    blocks = []
    for piece, cmap in comps:
        if piece.edge_order:
            blocks.append((extract_matrix(piece, None, scheduler, **kw), cmap))
        else:
            blocks.append((interp(piece), cmap))
    m = np.array([[1.0 + 0j]])
    for block, _ in blocks:
        m = np.kron(m, block)
    out_order = [k for _, cmap in blocks for k in cmap.output_slots]
    in_order = [k for _, cmap in blocks for k in cmap.input_slots]
    return _permute_wires(m, out_order, in_order, d.n_outputs, d.n_inputs)


def _permute_wires(
    m: np.ndarray, out_order: Sequence[int], in_order: Sequence[int], n_out: int, n_in: int
) -> np.ndarray:
    """Reorder row/column qubits from the given current order to 0..n-1."""
    t = m.reshape((2,) * (n_out + n_in))
    perm = [out_order.index(k) for k in range(n_out)]
    perm += [n_out + in_order.index(k) for k in range(n_in)]
    return t.transpose(perm).reshape(2**n_out, 2**n_in)
