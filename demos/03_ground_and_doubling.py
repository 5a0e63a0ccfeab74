"""
Grounding a wire and doubling the diagram
=========================================

A ground generator traces a wire out to the environment, so the
diagram stops being a pure map and becomes a quantum channel.  The
machine handles that with two-bit tokens: one bit for the plain copy
of the diagram, one for its conjugate.  Every two-bit run can be
replayed, move for move, on the explicitly doubled diagram, and the
machine checks that replay for us.
"""

import numpy as np

from zxtk import (
    GROUND_RULES,
    Dir,
    Token,
    TokenState,
    check_simulation,
    cpm_construct,
    g_extract_superoperator,
    interp_cpm,
    normalize,
    parse_dsl,
)

# Copy a wire with a green spider, then ground one branch: the shape
# of a computational-basis measurement that forgets its outcome.
meas = parse_dsl("Z(1,2,0) ; (id * ground)")
print("diagram:", meas)

# Two-bit tokens carry (plain, conjugate) bits.  Agreeing bits survive
# the ground; disagreeing bits are off-diagonal terms the environment
# erases.
for bits in ((0, 0), (1, 1), (1, 0)):
    seed = TokenState.single(1.0, [Token("a1", Dir.DOWN, bits)])
    nf, _ = normalize(meas, seed, rules=GROUND_RULES)
    print(f"  input bits {bits}: normal form {nf if len(nf) else '0 (erased)'}")
print()

# The superoperator, read entirely by token runs, against the dense
# channel semantics.
sup = g_extract_superoperator(meas, "a1")
print("superoperator from token runs:")
print(np.round(sup.real, 4))
print("max difference from the dense channel:",
      float(np.abs(sup - interp_cpm(meas)).max()))
print()

# The doubled diagram makes the two-bit rules honest: every move of
# the two-bit machine is one or two coordinated moves of the plain
# machine on cpm_construct(meas).  Trace-out moves collapse to a
# single diffusion whose collision eats the conjugate pair.
print("doubled diagram:", cpm_construct(meas))
seed = TokenState.single(1.0, [Token("a1", Dir.DOWN, (1, 1))])
report = check_simulation(meas, seed)
print(f"replay ok={report.ok} over {len(report.steps)} moves "
      f"({report.ground_moves} of them at the ground)")
for st in report.steps:
    print(f"  move {st.index}: {st.rule:<18} {st.coordinated_diffusions} coordinated "
          f"diffusion(s), {st.rule_applications} rule applications")
