"""Dense matrix semantics for pure diagrams.

A diagram with n inputs and m outputs denotes a 2^m x 2^n complex
matrix, built by contracting one small tensor per generator over the
shared edge indices.  Wire order is big-endian: input slot 0 is the
most significant qubit of the column index, output slot 0 of the row
index.

Grounds have no matrix; interpret a diagram containing them through
`interp_cpm`, which doubles it first.
"""

from __future__ import annotations

import cmath

import numpy as np

from .diagram import Diagram, GenKind, Generator, cpm_construct, vertex_of
from .errors import DiagramError, GroundNotAllowed

# H entry at (out, in) is (-1)^(out*in) / sqrt(2); 2**-0.5 is the
# correctly rounded double, 1/sqrt(2) computed by division is one ulp off.
_H = np.array([[1, 1], [1, -1]], dtype=complex) * 2.0**-0.5
_DELTA = np.eye(2, dtype=complex)  # cup, cap and bare wires are the same tensor


def generator_tensor(g: Generator) -> np.ndarray:
    """The generator's tensor, axes ordered outputs then inputs."""
    if g.kind is GenKind.Z:
        try:
            t = np.zeros((2,) * g.arity, dtype=complex)
        except ValueError:  # past numpy's axis or size cap
            raise DiagramError(f"a {g.arity}-leg spider is past numpy's array limits") from None
        # += so the 0-arity spider comes out as the scalar 1 + e^{i angle}
        t[(0,) * g.arity] += 1.0
        t[(1,) * g.arity] += cmath.exp(1j * g.angle.to_radians)
        return t
    if g.kind is GenKind.H:
        return _H
    if g.kind in (GenKind.CUP, GenKind.CAP):
        return _DELTA
    raise GroundNotAllowed("grounds have no matrix; double the diagram first")


def _contract(operands: list[tuple[np.ndarray, list[str]]], free: list[str]) -> np.ndarray:
    """Contract tensors pairwise over shared axis names.

    Every name occurs on at most two operands; names in `free` occur
    once and survive to the output, in that order.
    """

    def fuse_repeats(t: np.ndarray, names: list[str]) -> tuple[np.ndarray, list[str]]:
        # an operand can carry the same name twice (self-loop): trace it out
        while True:
            dup = next((n for n in names if names.count(n) > 1), None)
            if dup is None:
                return t, names
            i = names.index(dup)
            j = names.index(dup, i + 1)
            t = np.diagonal(t, axis1=i, axis2=j).sum(axis=-1)
            names = [n for k, n in enumerate(names) if k not in (i, j)]

    ops = [fuse_repeats(t, list(names)) for t, names in operands]
    if not ops:
        return np.array(1.0 + 0j)
    acc, acc_names = ops[0]
    pending = list(ops[1:])
    while pending:
        # prefer an operand sharing an index with the accumulator
        k = next(
            (i for i, (_, names) in enumerate(pending) if set(names) & set(acc_names)),
            0,
        )
        t, names = pending.pop(k)
        shared = [n for n in acc_names if n in names]
        if shared:
            a_ax = [acc_names.index(n) for n in shared]
            b_ax = [names.index(n) for n in shared]
            acc = np.tensordot(acc, t, axes=(a_ax, b_ax))
            acc_names = [n for n in acc_names if n not in shared] + [
                n for n in names if n not in shared
            ]
        else:
            acc = np.tensordot(acc, t, axes=0)
            acc_names = acc_names + names
        # summed names never reappear: each occurs at most twice overall
    order = [acc_names.index(n) for n in free]
    if len(order) != len(acc_names):
        raise AssertionError("unexpected leftover axes after contraction")
    return np.transpose(acc, order) if order else acc


def interp(d: Diagram) -> np.ndarray:
    """The 2^m x 2^n matrix of a pure diagram."""
    if d.has_ground():
        raise GroundNotAllowed("diagram contains grounds; use interp_cpm")
    operands: list[tuple[np.ndarray, list[str]]] = []
    for g in d.generators:
        operands.append((generator_tensor(g), list(g.outs) + list(g.ins)))
    # bare input-to-output wires need a carrier tensor of their own
    for e in d.inputs:
        if vertex_of(d.bottom_of(e))[0] == "out":
            operands.append((_DELTA, [e + "\x00top", e + "\x00bot"]))
    free = []
    for e in d.outputs:
        free.append(e + "\x00bot" if vertex_of(d.top_of(e))[0] == "in" else e)
    for e in d.inputs:
        free.append(e + "\x00top" if vertex_of(d.bottom_of(e))[0] == "out" else e)
    t = _contract(operands, free)
    return np.asarray(t, dtype=complex).reshape(2 ** d.n_outputs, 2 ** d.n_inputs)


def interp_cpm(d: Diagram) -> np.ndarray:
    """Matrix of the doubled diagram: 4^m x 4^n, wires interleaved."""
    return interp(cpm_construct(d))


def apply(d: Diagram, vector: np.ndarray) -> np.ndarray:
    """Apply the diagram's matrix to a column vector."""
    m = interp(d)
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape[0] != m.shape[1]:
        raise ValueError(f"vector of length {v.shape[0]} against {m.shape[1]} columns")
    return m @ v
