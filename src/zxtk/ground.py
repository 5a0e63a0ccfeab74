"""The mixed-process token machine: the pure engine run on two copies.

Its tokens carry a bit pair (x, y), one bit per copy of the doubled
diagram; the second copy sees every phase conjugated.  There is no
separate engine: run it as `normalize(d, seed, rules=GROUND_RULES)`
(or `step` / `diffuse_once` with the same `rules`).  Grounds erase
their token, keeping the term only when the two bits agree, which is
the cup a ground becomes in the doubled diagram.

This module holds what the two-bit machine adds on top: `cpm_map`,
the image of a two-bit state on the doubled diagram; the superoperator
reading `g_extract_superoperator`; and `check_simulation`, which
replays a two-bit run on the doubled pure diagram and confirms each
move is matched there: one pure diffusion per copy (the second copy
coordinated across the branch terms the first one opened), except at
a ground, whose cup needs a single diffusion and finishes by collision.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, conj_edge_name, cpm_construct
from .errors import DiagramError
from .machine import (
    GROUND_RULES,
    Strategy,
    Token,
    TokenState,
    _collide_all_recorded,
    diffuse_once,
    extract_matrix,
    normalize,
)


def cpm_map(s: TokenState, d: Diagram | None = None) -> TokenState:
    """Image of a two-bit state on the doubled diagram.

    Each token splits into its two copies: (e, dir, (x, y)) becomes
    (e, dir, x) times the same direction on the twin edge with bit y.
    Sums and products are preserved; `d` is only documentation, the
    doubling is determined by the labels.
    """
    pairs = []
    for term, coeff in s.terms.items():
        toks = []
        for t in term:
            if len(t.bits) != 2:
                raise DiagramError(f"token {t} is not a two-bit token")
            x, y = t.bits
            toks.append(Token(t.edge, t.direction, (x,)))
            toks.append(Token(conj_edge_name(t.edge), t.direction, (y,)))
        pairs.append((coeff, toks))
    return TokenState(pairs)


@dataclass(frozen=True)
class SimulatedStep:
    """How one two-bit move was matched on the doubled diagram."""

    index: int
    rule: str
    coordinated_diffusions: int  # 1 for a ground move, else 2 (one per copy)
    rule_applications: int  # diffusions plus collision pairs in the replay
    matched: bool


@dataclass
class SimulationReport:
    ok: bool
    steps: list[SimulatedStep]
    ground_moves: int
    normal_form: TokenState
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_simulation(
    d: Diagram,
    s,
    scheduler: "str | Strategy" = "deterministic",
    *,
    atol: float = 1e-9,
    **kw,
) -> SimulationReport:
    """Run the two-bit machine and match every move on the doubled diagram.

    The seed must be collision-free: a pending two-bit pair doubles
    into pending pairs on both copies, and the first pure diffusion
    would trigger the twin pair's collision, consuming tokens the
    matching state still needs.  Seeds on boundary wires are always
    fine.
    """
    seed = TokenState.coerce(s)
    if not seed.is_collision_free():
        raise DiagramError(
            "check_simulation needs a collision-free seed; seed boundary wires instead"
        )
    doubled = cpm_construct(d)
    nf, trace = normalize(d, seed, scheduler, rules=GROUND_RULES, **kw)
    pure_state = cpm_map(seed, d)
    steps: list[SimulatedStep] = []
    ok = True
    message = ""
    for record in trace.steps:
        target = cpm_map(record.state_after, d)
        plain = Token(record.token.edge, record.token.direction, record.token.bits[:1])
        twin = Token(
            conj_edge_name(record.token.edge), record.token.direction, record.token.bits[1:]
        )
        (term,) = cpm_map(TokenState.single(1.0, record.term)).terms
        coeff = pure_state.terms.get(term)
        if coeff is None:
            raise DiagramError("replay lost track of the rewritten term")
        rest = TokenState({k: v for k, v in pure_state.terms.items() if k != term})
        lane = TokenState.single(coeff, term)
        lane = diffuse_once(doubled, lane, (term, plain))
        lane, recs = _collide_all_recorded(lane)
        applications = 1 + len(recs)
        coordinated = 1
        if record.rule != "trace-out":
            # second copy: one coordinated diffusion of the twin token,
            # carried out in every branch the first copy opened
            coordinated = 2
            gathered = TokenState.zero()
            for branch in sorted(lane.terms):
                one = TokenState.single(lane.terms[branch], branch)
                one = diffuse_once(doubled, one, (branch, twin))
                one, recs = _collide_all_recorded(one)
                applications += 1 + len(recs)
                gathered = gathered + one
            lane = gathered
        pure_state = rest + lane
        matched = pure_state.allclose(target, atol)
        if record.rule == "trace-out" and applications != 2:
            matched = False
        steps.append(
            SimulatedStep(record.index, record.rule, coordinated, applications, matched)
        )
        if not matched and ok:
            ok = False
            message = f"step {record.index} ({record.rule}) not matched on the doubled diagram"
    ground_moves = sum(1 for st in steps if st.rule == "trace-out")
    if ok and not pure_state.allclose(cpm_map(nf, d), atol):
        ok = False
        message = "final states disagree"
    return SimulationReport(
        ok=ok, steps=steps, ground_moves=ground_moves, normal_form=nf, message=message
    )


def g_extract_superoperator(
    d: Diagram, seed_edge: str | None = None, scheduler: "str | Strategy" = "deterministic", **kw
):
    """Whole superoperator matrix of a connected diagram with grounds.

    Seeds the edge with all four bit-pair patterns and reads the summed
    normal forms; rows and columns use two bits per wire, the plain
    copy's bit first.
    """
    return extract_matrix(d, seed_edge, scheduler, rules=GROUND_RULES, **kw)
