"""File formats and the construction language.

Diagrams travel as either `.zxd` text in a small combinator language
or `.zxj` JSON documents; token states, traces and matrices get JSON
formats of their own (`.state.json`, `.trace.jsonl`, `.mat.json`).
All serializers are deterministic: keys are sorted, terms appear in
canonical order, complex numbers are [re, im] pairs, so a serialize,
parse, serialize cycle is byte-identical and traces diff cleanly.

The language:

    Z(n,m,angle)   green spider        H     hadamard
    X(n,m,angle)   red spider          id    bare wire
    cup            2 in, 0 out         swap  crossing wires
    cap            0 in, 2 out         ground

joined by `;` (sequential, top to bottom) and `*` (side by side,
binding tighter), with parentheses and `#` line comments.  Angles are
rational multiples of pi (`pi/2`, `-3pi/4`, `0`) kept exact, or
decimal radians.  A `;` needs a nonzero shared interface: composing
over zero wires is just a disjoint union, which `*` already spells,
so `cup ; cap` is reported as the arity confusion it usually is.

Parsed diagrams are relabeled deterministically: inputs a1.., outputs
b1.., internal edges e1.. in construction order, so examples can
address wires by name.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable

import numpy as np

from .diagram import (
    Angle,
    Diagram,
    Dir,
    Generator,
    GenKind,
    canonical_relabel,
    compose,
    identity_wire,
    make_generator,
    red_spider,
    swap_wires,
    tensor,
)
from .errors import CompositionError, DslSyntaxError, FormatError
from .machine import Token, TokenState, Trace, TraceStep, term_key

FORMAT_VERSION = 1


# -- lexing -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>\d+(?:\.\d+)?)
      | (?P<punct>[();,*/-])
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", position=pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


# -- parsing ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        if text != value:
            shown = text if kind != "eof" else "end of input"
            raise DslSyntaxError(f"expected {value!r}, found {shown}", position=pos)
        return self.take()

    # expr := piece (';' piece)* ; piece := atom ('*' atom)*
    def expr(self) -> tuple[Diagram, int, int]:
        d, start, end = self.piece()
        while self.peek()[1] == ";":
            self.take()
            d2, s2, e2 = self.piece()
            if d.n_outputs != d2.n_inputs or d.n_outputs == 0:
                raise CompositionError(
                    f"cannot compose `{self.text[start:end].strip()}` "
                    f"({d.n_outputs} outputs) with `{self.text[s2:e2].strip()}` "
                    f"({d2.n_inputs} inputs); `;` needs a nonzero matching interface"
                )
            d = compose(d, d2)
            end = e2
        return d, start, end

    def piece(self) -> tuple[Diagram, int, int]:
        d, start, end = self.atom()
        while self.peek()[1] == "*":
            self.take()
            d2, _, e2 = self.atom()
            d = tensor(d, d2)
            end = e2
        return d, start, end

    def atom(self) -> tuple[Diagram, int, int]:
        kind, text, pos = self.take()
        if text == "(":
            d, _, _ = self.expr()
            _, _, close = self.expect(")")
            return d, pos, close + 1
        if kind != "name":
            shown = text if kind != "eof" else "end of input"
            raise DslSyntaxError(f"expected a generator or '(', found {shown!r}", position=pos)
        if text in ("Z", "X"):
            self.expect("(")
            n = self.integer()
            self.expect(",")
            m = self.integer()
            angle: Angle | None = None
            if self.peek()[1] == ",":
                self.take()
                angle = self.angle()
            _, _, close = self.expect(")")
            d = make_generator(GenKind.Z, n, m, angle) if text == "Z" else red_spider(n, m, angle)
            return d, pos, close + 1
        end = pos + len(text)
        if text == "H":
            return make_generator(GenKind.H), pos, end
        if text == "cup":
            return make_generator(GenKind.CUP), pos, end
        if text == "cap":
            return make_generator(GenKind.CAP), pos, end
        if text == "ground":
            return make_generator(GenKind.GROUND), pos, end
        if text == "id":
            return identity_wire(), pos, end
        if text == "swap":
            return swap_wires(), pos, end
        raise DslSyntaxError(f"unknown generator {text!r}", position=pos)

    def integer(self) -> int:
        kind, text, pos = self.take()
        if kind != "num" or "." in text:
            raise DslSyntaxError(f"expected an integer, found {text!r}", position=pos)
        return int(text)

    def angle(self) -> Angle:
        """number | [-] [k ['*']] pi [/ d]; pi forms stay exact."""
        sign = 1
        if self.peek()[1] == "-":
            self.take()
            sign = -1
        kind, text, pos = self.peek()
        num: Fraction | None = None
        is_decimal = False
        if kind == "num":
            self.take()
            is_decimal = "." in text
            num = None if is_decimal else Fraction(int(text))
            value = float(text)
            if self.peek()[1] == "*":
                self.take()
        if self.peek()[1] == "pi":
            self.take()
            if is_decimal:
                raise DslSyntaxError("pi takes an integer multiple, not a decimal", position=pos)
            mult = num if num is not None else Fraction(1)
            if self.peek()[1] == "/":
                self.take()
                denominator = self.integer()
                if denominator == 0:
                    raise FormatError(f"angle at offset {pos} has a zero denominator")
                mult /= denominator
            return Angle(pi_multiple=sign * mult)
        if kind != "num":
            raise DslSyntaxError(f"expected an angle, found {text!r}", position=pos)
        if value == 0:
            return Angle.zero()
        return Angle.radians(sign * value)


def parse_dsl(text: str) -> Diagram:
    """Build a diagram from combinator text; see the module docstring."""
    p = _Parser(text)
    d, _, _ = p.expr()
    kind, tok, pos = p.peek()
    if kind != "eof":
        raise DslSyntaxError(f"trailing input {tok!r}", position=pos)
    return canonical_relabel(d)


# -- JSON primitives ----------------------------------------------------------


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _j2c(v) -> complex:
    return complex(v[0], v[1])


def _angle_to_json(a: Angle):
    if a.pi_multiple is not None:
        return {"pi": [a.pi_multiple.numerator, a.pi_multiple.denominator]}
    return {"rad": a.raw_radians}


def _angle_from_json(v) -> Angle:
    if "pi" in v:
        num, den = v["pi"]
        return Angle(pi_multiple=Fraction(num, den))
    return Angle.radians(v["rad"])


def _token_to_json(t: Token) -> dict:
    return {"bits": list(t.bits), "dir": "down" if t.direction is Dir.DOWN else "up", "edge": t.edge}


def _token_from_json(v) -> Token:
    if v["dir"] not in ("down", "up"):
        raise FormatError(f"bad token direction {v['dir']!r}")
    return Token(v["edge"], Dir.DOWN if v["dir"] == "down" else Dir.UP, tuple(int(b) for b in v["bits"]))


def _endpoint_to_json(ep) -> dict:
    if ep[0] == "gen":
        return {"gen": ep[1], "port": ep[3], "side": ep[2]}
    return {"boundary": ep[0], "slot": ep[1]}


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise FormatError(f"not valid JSON: {err}") from None


def _check_version(doc, want_kind: str) -> None:
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"expected a version-{FORMAT_VERSION} {want_kind} document")


# -- DiagramDoc ---------------------------------------------------------------


def diagram_to_doc(d: Diagram) -> dict:
    generators = []
    for g in d.generators:
        entry = {"ins": list(g.ins), "kind": g.kind.value, "outs": list(g.outs)}
        if g.kind is GenKind.Z:
            entry["angle"] = _angle_to_json(g.angle)
        generators.append(entry)
    edges = [
        {"bottom": _endpoint_to_json(d.bottom_of(e)), "label": e, "top": _endpoint_to_json(d.top_of(e))}
        for e in d.edge_order
    ]
    return {
        "edges": edges,
        "generators": generators,
        "inputs": list(d.inputs),
        "outputs": list(d.outputs),
        "version": FORMAT_VERSION,
    }


def doc_to_diagram(doc: dict) -> Diagram:
    _check_version(doc, "diagram")
    try:
        gens = []
        for entry in doc["generators"]:
            kind = GenKind(entry["kind"])
            angle = _angle_from_json(entry["angle"]) if kind is GenKind.Z else None
            gens.append(Generator(kind, tuple(entry["ins"]), tuple(entry["outs"]), angle))
        d = Diagram(tuple(gens), tuple(doc["inputs"]), tuple(doc["outputs"]))
        # the edges section is derived data; refuse documents that disagree
        if doc["edges"] != diagram_to_doc(d)["edges"]:
            raise FormatError("edges section does not match the generators")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise FormatError(f"malformed diagram document: {err}") from None
    return d


def serialize_diagram(d: Diagram) -> str:
    return _dumps(diagram_to_doc(d))


def parse_diagram(text: str) -> Diagram:
    return doc_to_diagram(_loads(text))


def load_diagram_text(text: str, suffix: str) -> Diagram:
    if suffix == ".zxd":
        return parse_dsl(text)
    if suffix == ".zxj":
        return parse_diagram(text)
    raise FormatError(f"unknown diagram format {suffix!r} (want .zxd or .zxj)")


# -- token states -------------------------------------------------------------


def state_to_doc(s: TokenState) -> dict:
    terms = [
        {"coeff": _c2j(coeff), "tokens": [_token_to_json(t) for t in key]}
        for key, coeff in s.canonical()
    ]
    return {"terms": terms, "version": FORMAT_VERSION}


def doc_to_state(doc: dict) -> TokenState:
    _check_version(doc, "token state")
    try:
        return TokenState(
            (_j2c(entry["coeff"]), [_token_from_json(v) for v in entry["tokens"]])
            for entry in doc["terms"]
        )
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise FormatError(f"malformed state document: {err}") from None


def serialize_state(s: TokenState) -> str:
    return _dumps(state_to_doc(s))


def parse_state(text: str) -> TokenState:
    return doc_to_state(_loads(text))


# -- matrices -----------------------------------------------------------------


def serialize_matrix(m) -> str:
    a = np.atleast_2d(np.asarray(m, dtype=complex))
    entries = [[_c2j(a[r, c]) for c in range(a.shape[1])] for r in range(a.shape[0])]
    return _dumps({"entries": entries, "shape": list(a.shape), "version": FORMAT_VERSION})


def parse_matrix(text: str) -> np.ndarray:
    doc = _loads(text)
    _check_version(doc, "matrix")
    try:
        rows, cols = doc["shape"]
        m = np.array([[_j2c(v) for v in row] for row in doc["entries"]], dtype=complex)
        m = m.reshape(rows, cols)
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"malformed matrix document: {err}") from None
    return m


# -- traces -------------------------------------------------------------------


def _terms_to_json(s: TokenState) -> list:
    return state_to_doc(s)["terms"]


def _terms_from_json(v) -> TokenState:
    return doc_to_state({"terms": v, "version": FORMAT_VERSION})


def serialize_trace(tr: Trace) -> str:
    lines = [
        json.dumps(
            {"initial": _terms_to_json(tr.initial), "kind": "trace", "version": FORMAT_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )
    ]
    for st in tr.steps:
        record = {
            "collisions": [
                {
                    "down": _token_to_json(down),
                    "edge": edge,
                    "matched": matched,
                    "up": _token_to_json(up),
                }
                for edge, down, up, matched in st.collisions
            ],
            "gen": st.gen_index,
            "index": st.index,
            "produced": [
                {"factor": _c2j(factor), "tokens": [_token_to_json(t) for t in toks]}
                for factor, toks in st.produced
            ],
            "rule": st.rule,
            "state": _terms_to_json(st.state_after),
            "term": [_token_to_json(t) for t in st.term],
            "token": _token_to_json(st.token),
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Trace:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty trace file")
    header = _loads(lines[0])
    if header.get("kind") != "trace":
        raise FormatError("not a trace file")
    _check_version(header, "trace")
    steps = []
    try:
        initial = _terms_from_json(header["initial"])
        for line in lines[1:]:
            v = _loads(line)
            steps.append(
                TraceStep(
                    index=v["index"],
                    rule=v["rule"],
                    gen_index=v["gen"],
                    term=term_key(_token_from_json(t) for t in v["term"]),
                    token=_token_from_json(v["token"]),
                    produced=tuple(
                        (_j2c(b["factor"]), tuple(_token_from_json(t) for t in b["tokens"]))
                        for b in v["produced"]
                    ),
                    collisions=tuple(
                        (
                            c["edge"],
                            _token_from_json(c["down"]),
                            _token_from_json(c["up"]),
                            c["matched"],
                        )
                        for c in v["collisions"]
                    ),
                    state_after=_terms_from_json(v["state"]),
                )
            )
    except (KeyError, TypeError, IndexError) as err:
        raise FormatError(f"malformed trace record: {err}") from None
    return Trace(initial=initial, steps=steps)
