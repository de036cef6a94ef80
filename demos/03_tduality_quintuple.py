#!/usr/bin/env python3
"""From a T-duality configuration to a Fourier-Mukai quintuple.

A configuration on a presentation is two closed degree-2 classes c1, c2 and
a degree-3 element h3 with d h3 = c1*c2.  The engine derives the two circle
extensions, the 3-twists a_{3,1} = h3 - e1*c2 and a_{3,2} = h3 - c1*e2, and
the kernel b = e1*e2 on the fiber product, re-verifying every identity."""

from sullivan import (
    adjunction_transpose,
    btfold,
    central_extension,
    cocycle_as_morphism,
    cyclify,
    fiber_integration,
    phi1_isomorphism,
    validate_config,
    derive_quintuple,
)

bt = btfold()
a = bt.algebra
print("T-fold presentation:")
for g in a.generators:
    dg = bt.d_of_generator(g)
    print(f"  {g.name} (deg {g.degree}):  d = {dg if not dg.is_zero() else 0}")
print()

cfg = validate_config(bt, a.gen("xc2"), a.gen("xt2"), a.gen("y3"))
dq = derive_quintuple(cfg, names=("yc1", "yt1"))
q = dq.quintuple
print("derived quintuple:")
print("  a_3_1 =", q.a1)
print("  a_3_2 =", q.a2)
print("  b     =", q.b)
print("  kernel relation residual:", q.kernel_relation_residual)
print()

# fiber integration strips the circle generator from the left
p1 = q.side1
omega = p1.parse("xc2*xt2 + yc1*y3")
ext1 = dq.fiber_product.ext1
print("pi_* (xc2*xt2 + yc1*y3) =", fiber_integration(ext1, omega))
print()

# the 3-twist on the first extension corresponds, across the homotopy-fiber/
# cyclification adjunction, to the isomorphism with the cyclified line
phi = cocycle_as_morphism(p1, q.a1)
psi = adjunction_transpose(ext1, cyclify(phi.source), phi)
print("adjunction transpose of a_3_1:", {k: str(v) for k, v in psi.images.items()})
fwd, bwd = phi1_isomorphism()
print("matches the canonical isomorphism:", {k: str(v) for k, v in fwd.images.items()})
