"""The universal T-fold presentation, T-duality configurations, derived
Fourier-Mukai quintuples, and the reusable model library.

A T-duality configuration on a presentation g is a pair of closed degree-2
even classes c1, c2 together with a degree-3 even element h3 trivializing
their product: d h3 = c1 * c2.  This is exactly a morphism from the T-fold
presentation R[xc2, xt2, y3] (d y3 = xc2*xt2) into CE(g), and the engine
holds it as one: `validate_config` returns that morphism, verified.  It
induces the full quintuple

    a_{3,1} = h3 - e1 * c2,   a_{3,2} = h3 - c1 * e2,   b = e1 * e2

over the fiber product CE(g)[e1, e2].

ASCII generator names mirror the usual checked/tilde decorations:
    xc2 / xt2   checked / tilde degree-2 classes of the T-fold
    yc1 / yt1   the circle generators of its two extensions
    ec1 / et1   generic extension generators in derived quintuples
"""

from __future__ import annotations

from .constructions import (
    ConstructionError,
    central_extension,
    cyclify,
    extension_fiber_product,
)
from .dgca import Morphism, Presentation
from .errors import SullivanError
from .fields import QQ
from .twisted import FMQuintuple


class ConfigError(SullivanError):
    pass


# ---------------------------------------------------------------------------
# model library
# ---------------------------------------------------------------------------


def sphere_model(n) -> Presentation:
    """Minimal presentation of the n-sphere: one closed odd generator, or the
    even pair (x_n, x_{2n-1}) with d x_{2n-1} = x_n^2.  n = 1 is admitted as
    the classical simple-space exception."""
    if n <= 0:
        raise ConstructionError("sphere dimension must be >= 1")
    if n == 1:
        return Presentation.build([("t1", 1, "even")], {}, name="lS1")
    if n % 2 == 1:
        return Presentation.build([(f"x{n}", n, "even")], {}, name=f"lS{n}")
    top = 2 * n - 1
    return Presentation.build(
        [(f"x{n}", n, "even"), (f"x{top}", top, "even")],
        {f"x{top}": f"x{n}^2"},
        name=f"lS{n}",
    )


def line_model(n) -> Presentation:
    """R[x_{n+1}] with zero differential: one closed generator of degree n+1."""
    if n < 1:
        raise ConstructionError("need n >= 1")
    return Presentation.build(
        [(f"x{n + 1}", n + 1, "even")], {}, name=f"b{n}u1" if n > 1 else "bu1"
    )


def btfold(field=QQ) -> Presentation:
    """R[xc2, xt2, y3] with d y3 = xc2 * xt2."""
    return Presentation.build(
        [("xc2", 2, "even"), ("xt2", 2, "even"), ("y3", 3, "even")],
        {"y3": "xc2*xt2"},
        field=field,
        name="btfold",
    )


def contractible() -> Presentation:
    """R[y1, x2] with d y1 = x2; has the cohomology of a point."""
    return Presentation.build(
        [("y1", 1, "even"), ("x2", 2, "even")], {"y1": "x2"}, name="contractible"
    )


def cyc_b2u1() -> Presentation:
    return cyclify(line_model(2)).presentation


def cyc_lS4() -> Presentation:
    return cyclify(sphere_model(4)).presentation


LIBRARY = {
    "lS2": lambda: sphere_model(2),
    "lS3": lambda: sphere_model(3),
    "lS4": lambda: sphere_model(4),
    "lS5": lambda: sphere_model(5),
    "lS6": lambda: sphere_model(6),
    "lS7": lambda: sphere_model(7),
    "bu1": lambda: line_model(1),
    "b2u1": lambda: line_model(2),
    "b3u1": lambda: line_model(3),
    "btfold": btfold,
    "cyc_b2u1": cyc_b2u1,
    "cyc_lS4": cyc_lS4,
    "contractible": contractible,
}


def library_presentation(name) -> Presentation:
    try:
        ctor = LIBRARY[name]
    except KeyError:
        raise ConstructionError(f"unknown library presentation {name!r}") from None
    return ctor()


def library_extensions():
    """Named central extensions used by randomized law tests."""
    bt = btfold()
    ls2 = sphere_model(2)
    bu1 = line_model(1)
    out = {
        "p1": central_extension(bt, bt.algebra.gen("xc2"), name="yc1"),
        "p2": central_extension(bt, bt.algebra.gen("xt2"), name="yt1"),
        "lS2-by-x2": central_extension(ls2, ls2.algebra.gen("x2"), name="y1"),
        "bu1-by-x2": central_extension(bu1, bu1.algebra.gen("x2"), name="y1"),
    }
    return out


def phi1_isomorphism() -> tuple[Morphism, Morphism]:
    """The isomorphism cyc(b^2 u1) -> btfold and its inverse.

    Sends x3 |-> y3, the shifted generator |-> xt2, the canonical 2-class
    |-> xc2; both composites are the identity on generators."""
    bt = btfold()
    cyc = cyclify(line_model(2))
    cp = cyc.presentation
    fwd = Morphism(
        cp,
        bt,
        {"x3": "y3", cyc.shift_names["x3"]: "xt2", cyc.cocycle_name: "xc2"},
        name="phi1",
    ).ensure_verified()
    bwd = Morphism(
        bt,
        cp,
        {"y3": "x3", "xt2": cyc.shift_names["x3"], "xc2": cyc.cocycle_name},
        name="phi1 inverse",
    ).ensure_verified()
    return fwd, bwd


# ---------------------------------------------------------------------------
# T-duality configurations
# ---------------------------------------------------------------------------


def validate_config(base, c1, c2, h3) -> Morphism:
    """The configuration as the verified morphism btfold -> base sending
    xc2, xt2, y3 to c1, c2, h3.

    One `Morphism.verify` checks, in the order c1, c2, h3, the bidegree of
    each and then that it commutes with d: closedness of c1 and c2, and
    d h3 = c1*c2.  The first fault raises ConfigError naming the failing
    check and carrying the residual."""
    cfg = Morphism(
        btfold(base.algebra.field),
        base,
        {"xc2": c1, "xt2": c2, "y3": h3},
        name="tduality config",
    )
    bad = cfg.verify()
    if bad is None:
        return cfg
    gen, reason, residual = bad
    # verify reports phi(d g) - d(phi g); the messages carry its negative
    commutes = reason == "does not commute with d"
    if gen.name == "y3":
        if commutes:
            raise ConfigError(f"dh3 mismatch: residual = {-residual}")
        raise ConfigError("h3 must have bidegree (3, even)")
    label = "first" if gen.name == "xc2" else "second"
    if commutes:
        raise ConfigError(f"not closed: {label} (d = {-residual})")
    raise ConfigError(f"not a degree-(2, even) class: {label}")


class DerivedQuintuple:
    """A quintuple remembering the fiber product it came from."""

    def __init__(self, quintuple, fiber_product):
        self.quintuple = quintuple
        self.fiber_product = fiber_product


def derive_quintuple(cfg: Morphism, names=("ec1", "et1")) -> DerivedQuintuple:
    """Build extensions, twists and kernel from a configuration morphism
    btfold -> base, as `validate_config` returns it.

    With c1, c2, h3 the images of xc2, xt2, y3: a_{3,1} = h3 - e1*c2 on the
    first extension, a_{3,2} = h3 - c1*e2 on the second, b = e1*e2 on the
    fiber product; closedness of both twists and the kernel relation are
    re-verified by the FMQuintuple constructor."""
    cfg.ensure_verified()
    c1, c2, h3 = (cfg.image_of(g) for g in ("xc2", "xt2", "y3"))
    fp = extension_fiber_product(cfg.target, c1, c2, names=names)
    ext1, ext2 = fp.ext1, fp.ext2
    e1 = ext1.total.algebra.gen(names[0])
    e2 = ext2.total.algebra.gen(names[1])
    a31 = ext1.inclusion.apply(h3) - e1 * ext1.inclusion.apply(c2)
    a32 = ext2.inclusion.apply(h3) - ext2.inclusion.apply(c1) * e2
    b = fp.total.algebra.gen(names[0]) * fp.total.algebra.gen(names[1])
    q = FMQuintuple(
        incl1=fp.incl1, incl2=fp.incl2, fiber1=[fp.gen2], fiber2=[fp.gen1], a1=a31, a2=a32, b=b
    )
    return DerivedQuintuple(q, fp)


def btfold_quintuple() -> DerivedQuintuple:
    """The universal quintuple: extensions of the T-fold presentation itself,
    whose configuration is the identity of btfold."""
    bt = btfold()
    a = bt.algebra
    cfg = validate_config(bt, a.gen("xc2"), a.gen("xt2"), a.gen("y3"))
    return derive_quintuple(cfg, names=("yc1", "yt1"))
