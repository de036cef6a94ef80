"""The four benchmark workloads: seeded inputs, timed operations, references.

Each workload is a closed loop with one client: ``ops`` is one pass, and the
next operation starts only after the previous one returned.  An operation
returns ``OK``, ``WRONG`` (it completed with a result that differs from the
reference) or ``BREACH`` (it broke the README's exit-code contract); an
exception escaping an operation counts as a breach.  ``failed`` in a report
counts every non-OK operation; a run is ``correct`` when no operation was
WRONG.

The engine is always called through module attributes (``dgca.cohomology``,
``twisted.fm_transform``, ...), never through names bound at import time, so
that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from fractions import Fraction

OK, WRONG, BREACH = "ok", "wrong", "breach"

DEFAULT_SEED = 20140901

WORKLOADS = ("hori", "cohomology_q", "cohomology_qi", "cli")

HERE = os.path.dirname(os.path.abspath(__file__))

# Small nonzero rationals by which the seed rescales generators and twists.
SCALES = tuple(Fraction(s) for s in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "1/3", "-1/3"))


class Workload:
    """One set-up workload: ``ops`` is a list of (name, callable -> verdict).

    A pass is ``pass_size`` consecutive ops; pass p starts where pass p - 1
    ended and wraps around, so passes cycle through all of ``ops``.  With
    ``pass_is_op`` a whole pass is the unit whose latency is reported: a
    certified solution of a fixed group of pinned cases, rather than one
    case."""

    def __init__(self, name, ops, pass_size=None, pass_is_op=False):
        self.name = name
        self.ops = ops
        self.pass_size = pass_size or len(ops)
        self.pass_is_op = pass_is_op

    def pass_ops(self, p):
        n = len(self.ops)
        start = p * self.pass_size
        return [self.ops[(start + i) % n] for i in range(self.pass_size)]


# ---------------------------------------------------------------------------
# seeded rescaling (cohomology workloads)
# ---------------------------------------------------------------------------


def rescaled_copy(pres, rng):
    """An isomorphic copy of ``pres`` whose generator g stands for s_g * g.

    Returns (copy, to_copy) where ``to_copy`` carries elements of ``pres``
    into the copy.  The isomorphism copy -> pres, g -> s_g * g, is certified
    with ``Morphism.ensure_verified`` before the copy is handed out, so the
    copy has the same cohomology (and the same twisted cohomology for a
    correspondingly rescaled twist)."""
    from sullivan import algebra, dgca

    field = pres.algebra.field
    gens = pres.algebra.generators
    scales = {g.name: rng.choice(SCALES) for g in gens}
    alg = algebra.Algebra([(g.name, g.degree, g.parity) for g in gens], field)
    bare = dgca.Presentation(alg, {})
    to_copy = dgca.Morphism(
        pres, bare, {g.name: alg.gen(g.name).scale(1 / scales[g.name]) for g in gens}
    )
    diffs = {
        g.name: to_copy.apply(pres.d_of_generator(g)).scale(scales[g.name]) for g in gens
    }
    copy = dgca.Presentation(alg, diffs, name=f"rescaled {pres.name}")
    dgca.Morphism(
        copy, pres, {g.name: pres.algebra.gen(g.name).scale(scales[g.name]) for g in gens}
    ).ensure_verified()
    # bare and copy share one algebra, so to_copy already lands in the copy
    return copy, to_copy.apply


def _cohomology_op(pres, max_degree, dims):
    from sullivan import dgca

    def op():
        rep = dgca.cohomology(pres, max_degree)
        if rep.dims != dims:
            return WRONG
        for reps in rep.representatives:
            for r in reps:
                if not pres.apply_d(r).is_zero():
                    return WRONG
        return OK

    return op


def _twisted_op(tw, parity, window, dim):
    from sullivan import twisted

    def op():
        rep = twisted.twisted_cohomology(tw, parity, window)
        if rep.dim != dim or len(rep.representatives) != dim:
            return WRONG
        for r in rep.representatives:
            # the complex is truncated to component degrees 0..window
            image = twisted.twisted_d(tw, r)
            for m, e in image.components.items():
                if 0 <= image.degree - 2 * m <= window and not e.is_zero():
                    return WRONG
        return OK

    return op


CYC2_LS4_DEGREE = 12
CYC2_LS4_DIMS = [1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4]
TFOLD_WINDOW = 16
TFOLD_DIMS = {0: 16, 1: 0}


def setup_cohomology_q(seed):
    """cyc(cyc(lS4)) to degree 12, and the T-fold fiber product twisted by
    y3 - yc1*xt2 in window 16, both parities; all over Q."""
    from sullivan import constructions, tduality, twisted

    rng = random.Random(seed)
    cyc2, _ = rescaled_copy(constructions.cyclify(tduality.cyc_lS4()).presentation, rng)
    total = tduality.btfold_quintuple().quintuple.total
    A = total.algebra
    a = A.gen("y3") - A.gen("yc1") * A.gen("xt2")
    total_s, carry = rescaled_copy(total, rng)
    tw = twisted.TwistSpec(total_s, carry(a).scale(rng.choice(SCALES)))
    ops = [("cohomology cyc2_lS4", _cohomology_op(cyc2, CYC2_LS4_DEGREE, CYC2_LS4_DIMS))]
    for parity in (0, 1):
        ops.append((
            f"twisted tfold parity {parity}",
            _twisted_op(tw, parity, TFOLD_WINDOW, TFOLD_DIMS[parity]),
        ))
    return Workload("cohomology_q", ops, pass_is_op=True)


SMK_WINDOW = 2
SMK_PARITY = 1
SMK_TWISTED_DIM = 0
SMK_DEGREE = 1
SMK_DIMS = [1, 32]


def setup_cohomology_qi(seed):
    """Twisted cohomology of both super-Minkowski circle extensions with
    their string cocycles (window 2, odd parity), and their ordinary
    cohomology to degree 1; all over Q(i).  A pass is one extension, so
    passes alternate between extA and extB.

    The even-parity case at window 2 (dimension 564) is left out: it takes
    7-11 s, so a run would hold one or two samples and its median would
    follow the host's drift."""
    from sullivan import superminkowski, twisted

    rng = random.Random(seed)
    sm = superminkowski.build_superminkowski()
    cocycles = superminkowski.mu_f1(sm)
    ops = []
    for label, ext, mu in (("extA", sm.extA, cocycles.muA), ("extB", sm.extB, cocycles.muB)):
        total, carry = rescaled_copy(ext.total, rng)
        tw = twisted.TwistSpec(total, carry(mu).scale(rng.choice(SCALES)))
        ops.append((
            f"twisted {label} parity {SMK_PARITY}",
            _twisted_op(tw, SMK_PARITY, SMK_WINDOW, SMK_TWISTED_DIM),
        ))
        ops.append((f"cohomology {label}", _cohomology_op(total, SMK_DEGREE, SMK_DIMS)))
    return Workload("cohomology_qi", ops, pass_size=2, pass_is_op=True)


# ---------------------------------------------------------------------------
# hori: the super-Minkowski Fourier-Mukai exchange
# ---------------------------------------------------------------------------

HORI_WINDOW = 3
HORI_ROUND_TRIPS = 100  # inputs, alternating direction: 50 each way
HORI_PASS = 10  # round trips per pass; short passes let a median drop noise
HORI_MAX_TERMS = 3
HORI_COEFFS = (-4, 4)


def _random_cochain(rng, pres, bases, k, window):
    """A nonzero even cochain of total degree k with at most HORI_MAX_TERMS
    terms whose component degrees lie in 0..window."""
    from sullivan import twisted

    while True:
        m_min = -((window - k) // 2)
        comps = {}
        for _ in range(HORI_MAX_TERMS):
            m = rng.randint(m_min, k // 2)
            basis = bases[k - 2 * m]
            if not basis:
                continue
            mono = rng.choice(basis)
            coeff = rng.randint(*HORI_COEFFS)
            if not coeff:
                continue
            term = pres.algebra.monomial(mono, coeff)
            comps[m] = comps[m] + term if m in comps else term
        comps = {m: e for m, e in comps.items() if not e.is_zero()}
        if comps:
            return twisted.TwistedCochain(pres, k, comps)


def setup_hori(seed):
    """Build super-Minkowski space, its string cocycles and the derived
    quintuple, assert the identities hori_pipeline asserts, and draw the
    input cochains."""
    from sullivan import algebra, superminkowski, tduality, twisted

    sm = superminkowski.build_superminkowski()
    cocycles = superminkowski.mu_f1(sm)
    cfg = tduality.validate_config(sm.base, sm.c2A, sm.c2B, cocycles.mu81)
    q = tduality.derive_quintuple(cfg, names=("e9A", "e9B")).quintuple
    checks = {
        "sides match the circle extensions": q.side1.same_structure(sm.extA.total)
        and q.side2.same_structure(sm.extB.total),
        "a1 == muA": q.a1 == algebra.transport(cocycles.muA, q.side1.algebra),
        "a2 == muB": q.a2 == algebra.transport(cocycles.muB, q.side2.algebra),
        "b == e9A*e9B": q.b == q.total.algebra.gen("e9A") * q.total.algebra.gen("e9B"),
        "kernel residual is zero": q.kernel_relation_residual.is_zero(),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise RuntimeError(f"hori set-up identities fail: {', '.join(bad)}")

    rng = random.Random(seed)
    bases = {
        side: [side.algebra.monomial_basis(d, algebra.EVEN) for d in range(HORI_WINDOW + 1)]
        for side in (q.side1, q.side2)
    }
    ops = []
    for n in range(HORI_ROUND_TRIPS):
        # total degrees cycle through 0..window in both directions, so that
        # every seed and every pass has the same mix of cochain degrees
        k = (n // 2) % (HORI_WINDOW + 1)
        if n % 2 == 0:
            w = _random_cochain(rng, q.side1, bases[q.side1], k, HORI_WINDOW)
            ops.append(("forward", _round_trip(q, w, forward=True)))
        else:
            w = _random_cochain(rng, q.side2, bases[q.side2], k, HORI_WINDOW)
            ops.append(("backward", _round_trip(q, w, forward=False)))
    return Workload("hori", ops, pass_size=HORI_PASS)


def _round_trip(q, w, forward):
    from sullivan import twisted

    def op():
        if forward:
            back = twisted.fm_inverse(q, twisted.fm_transform(q, w))
        else:
            back = twisted.fm_transform(q, twisted.fm_inverse(q, w))
        return OK if back == w else WRONG

    return op


# ---------------------------------------------------------------------------
# cli: subprocess calls of python -m sullivan.cli
# ---------------------------------------------------------------------------

CLI_INPUTS = os.path.join("perfbench", "cli_inputs")
GOLDENS = os.path.join(HERE, "cli_goldens.json")

# (case id, argv, expected exit code, invocations per pass).  Expected exit
# codes come from the README's contract: 0 pass, 1 a mathematical check
# failed, 2 malformed input.  "{seed}" is filled per invocation.
CLI_CASES = (
    ("library-list", ["library", "list"], 0, 2),
    ("dump-lS4", ["library", "dump", "lS4"], 0, 1),
    ("dump-btfold", ["library", "dump", "btfold"], 0, 1),
    ("dump-cyc_lS4", ["library", "dump", "cyc_lS4"], 0, 1),
    ("dump-cyc_b2u1", ["library", "dump", "cyc_b2u1"], 0, 1),
    ("check-lS4", ["check", "@/lS4.alg"], 0, 1),
    ("check-cyc_lS4", ["check", "@/cyc_lS4.alg"], 0, 1),
    ("check-qi_spinor", ["check", "@/qi_spinor.alg"], 0, 1),
    ("json-check-btfold", ["--json", "check", "@/btfold.alg"], 0, 1),
    ("cohomology-cyc_lS4", ["cohomology", "@/cyc_lS4.alg", "--max-degree", "12"], 0, 2),
    ("cyclify-lS4", ["cyclify", "@/lS4.alg"], 0, 1),
    ("cyclify-btfold", ["cyclify", "@/btfold.alg"], 0, 1),
    ("hofib-lS4", ["hofib", "@/lS4.alg", "--cocycle", "x4", "--name", "y3"], 0, 1),
    ("hofib-btfold", ["hofib", "@/btfold.alg", "--cocycle", "c1", "--name", "yc1"], 0, 1),
    (
        "tduality-quintuple",
        ["tduality", "@/btfold.alg", "--c1", "c1", "--c2", "c2", "--h3", "h3", "quintuple"],
        0,
        2,
    ),
    (
        "tduality-fm-sample",
        ["tduality", "@/btfold.alg", "--c1", "c1", "--c2", "c2", "--h3", "h3",
         "fm-sample", "--seed", "{seed}"],
        0,
        1,
    ),
    ("superminkowski-verify", ["superminkowski", "verify"], 0, 1),
    ("bad-d-squared", ["check", "@/bad_d_squared.alg"], 1, 1),
    ("bad-bidegree", ["check", "@/bad_bidegree.alg"], 2, 1),
    ("unknown-directive", ["check", "@/unknown_directive.alg"], 2, 1),
    ("parse-error", ["check", "@/parse_error.alg"], 2, 1),
    ("non-utf8", ["check", "@/non_utf8.alg"], 2, 1),
)
CLI_PASS = sum(count for *_, count in CLI_CASES)  # 25 invocations
CLI_PASSES = 4  # distinct shuffles: 100 invocations in all


def cli_invocations(seed):
    """All invocations, (case id, argv, exit, fm seed), in CLI_PASSES blocks
    of the same mix, each shuffled by the seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(CLI_PASSES):
        block = []
        for case, argv, code, count in CLI_CASES:
            for _ in range(count):
                fm_seed = rng.randrange(1, 2**31) if "{seed}" in argv else None
                args = [a.replace("@", CLI_INPUTS, 1) if a.startswith("@/") else a for a in argv]
                args = [str(fm_seed) if a == "{seed}" else a for a in args]
                block.append((case, args, code, fm_seed))
        rng.shuffle(block)
        out.extend(block)
    return out


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def cli_verdict(golden, code, expected_code, stdout, stderr, fm_seed):
    if code != expected_code or (expected_code == 2 and "Traceback" in stderr):
        return BREACH
    if fm_seed is not None:
        golden = golden.replace("{seed}", str(fm_seed))
    return OK if stdout == golden else WRONG


def cli_env():
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_cli(seed, in_process=False):
    """One op per CLI invocation.  By default each runs ``python -m
    sullivan.cli`` in a fresh interpreter; the traced run calls
    ``sullivan.cli.main(argv)`` in-process instead, so that its spans are
    visible."""
    goldens = load_goldens()
    invocations = cli_invocations(seed)
    for _, args, _, _ in invocations:
        for a in args:
            if a.startswith(CLI_INPUTS) and not os.path.isfile(a):
                raise FileNotFoundError(a)
    env = cli_env()
    ops = []
    for case, args, code, fm_seed in invocations:
        if in_process:
            op = _in_process_cli(goldens[case], args, code, fm_seed)
        else:
            op = _subprocess_cli(goldens[case], args, code, fm_seed, env)
        ops.append((case, op))
    return Workload("cli", ops, pass_size=CLI_PASS)


def _subprocess_cli(golden, args, expected, fm_seed, env):
    cmd = [sys.executable, "-m", "sullivan.cli", *args]

    def op():
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
        stdout = proc.stdout.decode("utf-8", "replace")
        stderr = proc.stderr.decode("utf-8", "replace")
        return cli_verdict(golden, proc.returncode, expected, stdout, stderr, fm_seed)

    return op


def _in_process_cli(golden, args, expected, fm_seed):
    def op():
        from sullivan import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the interpreter would print it and exit 1
                traceback.print_exc()
                code = 1
        return cli_verdict(golden, code, expected, out.getvalue(), err.getvalue(), fm_seed)

    return op


def setup(name, seed, in_process_cli=False):
    if name == "hori":
        return setup_hori(seed)
    if name == "cohomology_q":
        return setup_cohomology_q(seed)
    if name == "cohomology_qi":
        return setup_cohomology_qi(seed)
    if name == "cli":
        return setup_cli(seed, in_process=in_process_cli)
    raise ValueError(f"unknown workload {name!r}")
