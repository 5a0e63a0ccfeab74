"""Random diagrams and the suites that exercise the machine against oracles.

Everything is replayable: a config and a trial index derive every
random choice, so a failing trial can be regenerated from the report
alone.  Fuse trips are recorded as their own outcome; they mean the
run was cut short, not that an answer was wrong.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .diagram import (
    _FIXED_ARITY,
    Angle,
    Diagram,
    Dir,
    Generator,
    GenKind,
    canonical_relabel,
    cpm_construct,
    cycle_basis,
    enumerate_cycles,
    enumerate_paths,
)
from .errors import FuseExceeded, NotCycleBalanced, NotWellFormed, ZxError
from .ground import check_simulation, cpm_map
from .interp import interp, interp_cpm
from .machine import (
    GROUND_RULES,
    PURE_RULES,
    Token,
    TokenState,
    extract_matrix,
    extract_matrix_general,
    is_cycle_balanced,
    is_well_formed,
    normalize,
    polarity,
    rewind_witness,
)

DEFAULT_ANGLE_POOL = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))

# dense oracles stay cheap up to 2^6 amplitudes per boundary side
_MAX_BOUNDARY = 6


@dataclass(frozen=True)
class GenConfig:
    """Shape of the random diagram distribution; same config, same sequence."""

    seed: int = 0
    max_generators: int = 8
    max_inputs: int = 3
    max_outputs: int = 3
    max_spider_arity: int = 4
    angle_pool: tuple = DEFAULT_ANGLE_POOL
    allow_ground: bool = False
    require_connected: bool = True
    require_acyclic: bool = False

    def __post_init__(self):
        if min(self.max_generators, self.max_inputs, self.max_outputs) < 0:
            raise ValueError("max_generators, max_inputs and max_outputs must not be negative")
        if self.max_inputs > _MAX_BOUNDARY or self.max_outputs > _MAX_BOUNDARY:
            raise ValueError(f"boundary sides are capped at {_MAX_BOUNDARY} wires")
        if self.max_spider_arity < 1:
            raise ValueError("spiders need at least one possible leg")


def _rng_for(cfg: GenConfig, index: int, purpose: str = "gen") -> random.Random:
    return random.Random(f"{cfg.seed}:{index}:{purpose}")


def _random_generators(cfg: GenConfig, rng: random.Random) -> list[Generator]:
    kinds = [GenKind.Z] * 5 + [GenKind.H] * 2 + [GenKind.CUP, GenKind.CAP]
    if cfg.allow_ground:
        kinds += [GenKind.GROUND] * 2
    gens: list[Generator] = []
    grounds = 0
    n = rng.randint(0, cfg.max_generators)
    for _ in range(n):
        kind = rng.choice(kinds)
        if kind is GenKind.GROUND:
            if grounds >= 2:  # a couple of grounds give full rule coverage
                kind = GenKind.Z
            else:
                grounds += 1
        if kind is GenKind.Z:
            arities = list(range(cfg.max_spider_arity + 1))
            weights = [1.0 / (1 + k) for k in arities]
            n_in = rng.choices(arities, weights)[0]
            n_out = rng.choices(arities, weights)[0]
            angle = Angle.of(rng.choice(list(cfg.angle_pool)))
            gens.append(_blank(GenKind.Z, n_in, n_out, angle))
        else:
            gens.append(_blank(kind))
    return gens


def _blank(kind: GenKind, n_in: int | None = None, n_out: int | None = None, angle=None) -> Generator:
    if kind in _FIXED_ARITY:
        n_in, n_out = _FIXED_ARITY[kind]
    return Generator(kind, ("?",) * n_in, ("?",) * n_out, angle)


def random_diagram(cfg: GenConfig, index: int = 0) -> Diagram:
    """The index-th diagram of the config's reproducible sequence."""
    for attempt in range(64):
        rng = _rng_for(cfg, index, f"gen{attempt}")
        gens = _random_generators(cfg, rng)
        d = _wire(gens, cfg, rng)
        if d is None:
            continue
        # resample rather than join: joining would blow the generator cap;
        # generator-free configs are exempt, bare wires cannot connect
        if cfg.require_connected and cfg.max_generators > 0 and len(d._forest.trees) > 1:
            continue
        if cfg.require_acyclic and cycle_basis(d):
            continue
        return canonical_relabel(d)
    raise ZxError(f"could not build a diagram for seed {cfg.seed} index {index}")


def _wire(gens: list[Generator], cfg: GenConfig, rng: random.Random) -> Diagram | None:
    """Pair every port with a partner; None when the boundary cannot balance."""
    n_tops = sum(len(g.outs) for g in gens)
    n_bottoms = sum(len(g.ins) for g in gens)
    lo = max(0, n_bottoms - n_tops)
    hi = min(cfg.max_inputs, n_bottoms - n_tops + cfg.max_outputs)
    if lo > hi:
        return None
    n_in = rng.randint(lo, hi)

    counter = iter(range(10_000))
    ins_of = [list(g.ins) for g in gens]
    outs_of = [list(g.outs) for g in gens]
    tops: list[tuple] = [("in", k) for k in range(n_in)]
    input_names: dict[int, str] = {}

    def claim(src: tuple) -> str:
        name = f"w{next(counter)}"
        if src[0] == "gen":
            outs_of[src[1]][src[2]] = name
        else:
            input_names[src[1]] = name
        return name

    if cfg.require_acyclic:
        for gi, g in enumerate(gens):
            for p in range(len(g.ins)):
                if not tops:
                    return None
                ins_of[gi][p] = claim(tops.pop(rng.randrange(len(tops))))
            for p in range(len(g.outs)):
                tops.append(("gen", gi, p))
    else:
        for gi, g in enumerate(gens):
            for p in range(len(g.outs)):
                tops.append(("gen", gi, p))
        order = [(gi, p) for gi, g in enumerate(gens) for p in range(len(g.ins))]
        rng.shuffle(order)
        for gi, p in order:
            if not tops:
                return None
            ins_of[gi][p] = claim(tops.pop(rng.randrange(len(tops))))

    if len(tops) > cfg.max_outputs:
        return None
    # leftover tops exit at the bottom; untouched input slots become bare wires
    outputs = tuple(claim(src) for src in tops)
    inputs = tuple(input_names[k] for k in range(n_in))
    new_gens = tuple(
        Generator(g.kind, tuple(ins_of[gi]), tuple(outs_of[gi]), g.angle)
        for gi, g in enumerate(gens)
    )
    return Diagram(new_gens, inputs, outputs)


# -- seeds for property suites -------------------------------------------------


def _boundary_seed(d: Diagram, rng: random.Random, width: int) -> TokenState | None:
    """Collision-free inward seed on the boundary, always well-formed."""
    bits = lambda: tuple(rng.randint(0, 1) for _ in range(width))
    if d.inputs:
        return TokenState.single(1.0, [Token(e, Dir.DOWN, bits()) for e in d.inputs])
    if d.outputs:
        return TokenState.single(1.0, [Token(e, Dir.UP, bits()) for e in d.outputs])
    return None


def _random_seed(d: Diagram, rng: random.Random, width: int = 1) -> TokenState | None:
    """A well-formed cycle-balanced seed, drawn from loose token sets."""
    edges = list(d.edge_order)
    if not edges:
        return None
    for _ in range(40):
        k = rng.randint(1, min(3, len(edges)))
        chosen = rng.sample(edges, k)
        toks = [
            Token(e, rng.choice((Dir.DOWN, Dir.UP)), tuple(rng.randint(0, 1) for _ in range(width)))
            for e in chosen
        ]
        s = TokenState.single(1.0, toks)
        # balance first: an unbalanced term would send is_well_formed to path enumeration
        if is_cycle_balanced(d, s) and is_well_formed(d, s):
            return s
    seed = _boundary_seed(d, rng, width)
    if seed is not None:
        return seed
    e = rng.choice(edges)
    b = tuple(rng.randint(0, 1) for _ in range(width))
    return TokenState.single(1.0, [Token(e, Dir.DOWN, b), Token(e, Dir.UP, b)])


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    index: int
    outcome: str  # pass | fail | fuse | skip
    detail: str = ""
    deviation: float | None = None

    @property
    def ok(self) -> bool:
        return self.outcome != "fail"


@dataclass
class SuiteReport:
    suite: str
    config: GenConfig
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.trials)

    def count(self, outcome: str) -> int:
        return sum(1 for t in self.trials if t.outcome == outcome)

    @property
    def max_deviation(self) -> float:
        return max((t.deviation for t in self.trials if t.deviation is not None), default=0.0)

    def to_json(self) -> dict:
        config = {f.name: getattr(self.config, f.name) for f in fields(GenConfig)}
        config["angle_pool"] = [str(Angle.of(a)) for a in self.config.angle_pool]
        return {
            "config": config,
            "counts": {k: self.count(k) for k in ("pass", "fail", "fuse", "skip")},
            "max_deviation": self.max_deviation,
            "ok": self.ok,
            "suite": self.suite,
            "trials": [
                {
                    "detail": t.detail,
                    "deviation": t.deviation,
                    "index": t.index,
                    "outcome": t.outcome,
                }
                for t in self.trials
            ],
        }

    def summary(self) -> str:
        lines = [
            f"suite {self.suite}: {'ok' if self.ok else 'FAILED'} "
            f"({self.count('pass')} pass, {self.count('fail')} fail, "
            f"{self.count('fuse')} fuse, {self.count('skip')} skip; "
            f"max deviation {self.max_deviation:.3g})"
        ]
        for t in self.trials:
            if t.outcome != "pass":
                lines.append(f"  trial {t.index}: {t.outcome} {t.detail}".rstrip())
        return "\n".join(lines)


# -- per-trial checks ------------------------------------------------------
#
# Each helper judges one diagram with one trial rng, so a suite can run
# them over a random sequence and the command line can run them against
# a fixed diagram loaded from a file.


def _trial_oracle(d: Diagram, rng: random.Random, *, ground: bool) -> TrialResult:
    rules = GROUND_RULES if ground else PURE_RULES
    if len(d._forest.trees) == 1 and d.edge_order:
        got = extract_matrix(d, rng.choice(d.edge_order), rules=rules)
    else:
        got = extract_matrix_general(d, rules=rules)
    want = interp_cpm(d) if ground else interp(d)
    dev = float(np.abs(got - want).max())
    return TrialResult(0, "pass" if dev < 1e-9 else "fail", deviation=dev)


def check_diagram(d: Diagram) -> TrialResult:
    """Oracle comparison for one diagram; grounds switch the oracle."""
    return _trial_oracle(d, random.Random(0), ground=d.has_ground())


def _trial_confluence(d: Diagram, rng: random.Random, schedulers: int) -> TrialResult:
    seed = _random_seed(d, rng)
    if seed is None:
        return TrialResult(0, "skip", "no edges to seed")
    names = ["deterministic", "sparse-first", "slice-order"]
    names += [f"random:{rng.randrange(1 << 30)}" for _ in range(max(0, schedulers - len(names)))]
    results = [normalize(d, seed, nm)[0] for nm in names[:schedulers]]
    dev = max((results[0].deviation(other) for other in results[1:]), default=0.0)
    return TrialResult(0, "pass" if dev < 1e-9 else "fail", deviation=dev)


def _trial_invariants(d: Diagram, rng: random.Random) -> TrialResult:
    """Structure every run must keep.

    The seed keeps |polarity| <= 1 on every path of `enumerate_paths`,
    the definition the well-formedness gate decides by a potential.
    Along each trace: well-formedness at every state, constant cycle
    polarity for every term, visits bounded per generator on acyclic
    single-token runs, and a valid rewind witness for a surviving
    token.  Diagrams with cycles also get a deliberately unbalanced
    seed that normalize must refuse.
    """
    seed = _random_seed(d, rng)
    if seed is None:
        return TrialResult(0, "skip", "no edges to seed")
    problems: list[str] = []
    if any(abs(polarity(d, p, t)) > 1 for p in enumerate_paths(d) for t in seed.terms):
        problems.append("the seed has polarity above 1 on a path")
    nf, trace = normalize(d, seed)
    for state in trace.states():
        if not is_well_formed(d, state):
            problems.append("well-formedness broken along the trace")
            break
    cycles = enumerate_cycles(d)
    seed_term = next(iter(seed.terms))
    for c in cycles:
        want = polarity(d, c, seed_term)
        for state in trace.states():
            if any(polarity(d, c, t) != want for t in state.terms):
                problems.append(f"cycle polarity drifted on {c}")
                break
    if not cycles and len(seed_term) == 1:
        # in a tree each branch lineage crosses a generator at most once
        visits: dict[int, int] = {}
        for st in trace.steps:
            visits[st.gen_index] = visits.get(st.gen_index, 0) + 1
        lineages = 1 + sum(max(0, len(st.produced) - 1) for st in trace.steps)
        if any(v > lineages for v in visits.values()):
            problems.append("a generator was visited more often than lineages existed")
    survivor = next((t for t in sorted(nf.terms) if t), None)
    if survivor is not None:
        target = sorted(survivor)[0]
        try:
            p = rewind_witness(d, seed_term, trace, target)
            if polarity(d, p, seed_term) != 1:
                problems.append("rewind witness has wrong polarity")
        except ZxError as err:
            problems.append(f"rewind witness failed: {err}")
    if cycles:
        bad = TokenState.single(1.0, [Token(cycles[0].edges[0], Dir.DOWN, (0,))])
        if not is_cycle_balanced(d, bad):
            try:
                normalize(d, bad)
                problems.append("unbalanced seed was not rejected")
            except (NotCycleBalanced, NotWellFormed):
                pass
    if problems:
        return TrialResult(0, "fail", "; ".join(problems))
    return TrialResult(0, "pass")


def _trial_simulation(d: Diagram, rng: random.Random) -> TrialResult:
    seed = _boundary_seed(d, rng, width=2)
    if seed is None:
        seed = _random_seed(d, rng, width=2)
        if seed is not None and not seed.is_collision_free():
            seed = None
    if seed is None:
        return TrialResult(0, "skip", "no collision-free seed available")
    rep = check_simulation(d, seed)
    if not rep.ok:
        return TrialResult(0, "fail", rep.message)
    nf_p, _ = normalize(cpm_construct(d), cpm_map(seed, d))
    dev = cpm_map(rep.normal_form, d).deviation(nf_p)
    return TrialResult(0, "pass" if dev < 1e-9 else "fail", deviation=dev)


# -- suites ------------------------------------------------------------------


def effective_config(suite: str, cfg: GenConfig) -> GenConfig:
    """The config a suite actually samples from; idempotent.

    Only the simulation suite changes it, since it needs grounds; the
    oracle reads any component under either rule table, so a grounded
    oracle samples disconnected diagrams when the config allows them.
    """
    if suite == "simulation":
        return replace(cfg, allow_ground=True)
    return cfg


def run_trial(
    suite: str,
    cfg: GenConfig,
    index: int,
    schedulers: int = 20,
    diagram: Diagram | None = None,
) -> TrialResult:
    """One suite trial; (suite, config, index) replays it exactly."""
    cfg = effective_config(suite, cfg)
    rng = _rng_for(cfg, index, suite)
    try:
        d = diagram if diagram is not None else random_diagram(cfg, index)
        if suite == "oracle":
            r = _trial_oracle(d, rng, ground=cfg.allow_ground or d.has_ground())
        elif suite == "confluence":
            r = _trial_confluence(d, rng, schedulers)
        elif suite == "invariants":
            r = _trial_invariants(d, rng)
        elif suite == "simulation":
            r = _trial_simulation(d, rng)
        else:
            raise ValueError(f"unknown suite {suite!r}")
    except FuseExceeded as err:
        r = TrialResult(index, "fuse", str(err))
    except ZxError as err:
        r = TrialResult(index, "fail", f"{type(err).__name__}: {err}")
    return replace(r, index=index)


def run_suite(
    suite: str,
    cfg: GenConfig,
    trials: int = 100,
    schedulers: int = 20,
    diagram: Diagram | None = None,
    jobs: int = 1,
) -> SuiteReport:
    """Run a suite; trials are independent, so jobs > 1 fans them out.

    The pool starts no more workers than there are trials or CPUs, and
    a run that would get one worker runs in this process.
    """
    report = SuiteReport(suite, effective_config(suite, cfg))
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers > 1 and diagram is None:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fn = partial(run_trial, suite, cfg, schedulers=schedulers)
            report.trials = list(pool.map(fn, range(trials)))
    else:
        report.trials = [run_trial(suite, cfg, i, schedulers, diagram) for i in range(trials)]
    return report


SUITES = ("oracle", "confluence", "invariants", "simulation")
