"""Command-line front end and the plain-text algebra file format.

File format (line oriented, '#' comments, blank lines ignored):

    field Q              # or: field Qi
    gen x4 4 even        # name, degree, parity
    gen x7 7 even
    d x7 = x4^2          # omitted generators are closed
    let w = x4^2 + 3*x7  # optional named elements

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
parse error (every engine error is a ``SullivanError``).  Reports are plain
text, stable-ordered, and byte-identical across runs for fixed inputs and
seeds; pass --json for a machine-readable rendering.  Timings are printed
only with --timings (they would break byte stability).
"""

from __future__ import annotations

import argparse
import sys

from .algebra import PARITY_NAMES, Algebra, is_generator_name
from .constructions import central_extension, cyclify
from .dgca import Presentation, PresentationError, cohomology
from .errors import SullivanError
from .fields import FIELDS
from .parsing import ParseError, parse_element
from .report import Report
from .tduality import (
    LIBRARY,
    ConfigError,
    derive_quintuple,
    library_presentation,
    validate_config,
)
from .twisted import fm_inverse, fm_transform, random_twisted_cochain

DEFAULT_SEED = 20140901


class FileFormatError(SullivanError):
    def __init__(self, message, line_no, column=None):
        # line_no None: the error has no place in a file
        if line_no is not None:
            place = f"line {line_no}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({place})"
        super().__init__(message)
        self.line_no = line_no
        self.column = column


class DSquaredError(FileFormatError):
    """A well-formed file whose differential has d^2 != 0 at `generator`."""

    def __init__(self, error, line_no, generator_count):
        self.generator, self.residual = error.generator, error.residual
        super().__init__(
            f"d^2 != 0 at generator {self.generator.name}: residual = {self.residual}", line_no
        )
        self.generator_count = generator_count


class AlgebraFile:
    """A parsed algebra definition: presentation plus named elements."""

    def __init__(self, presentation, elements, field_tag):
        self.presentation = presentation
        self.elements = elements
        self.field_tag = field_tag

    def lookup(self, label):
        """Named element, or the label parsed as an expression."""
        if label in self.elements:
            return self.elements[label]
        try:
            return parse_element(label, self.presentation.algebra)
        except ParseError as err:
            raise FileFormatError(
                f"unknown label and unparsable expression {label!r}: {err}", None
            ) from err


def load_algebra_text(text) -> AlgebraFile:
    """Parse the file format.  Every line is read and checked before the
    presentation is built, so malformed input is reported ahead of a d^2
    failure (DSquaredError)."""
    field_tag = None
    gen_specs = []
    gen_lines = {}  # name -> line of its gen directive
    d_lines = {}  # name -> (line, expression)
    let_lines = {}  # label -> (line, expression)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        directive, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if directive == "field":
            if field_tag is not None:
                raise FileFormatError("duplicate field directive", line_no)
            if rest not in FIELDS:
                raise FileFormatError(f"unknown field {rest!r} (expected Q or Qi)", line_no)
            field_tag = rest
        elif directive == "gen":
            bits = rest.split()
            if len(bits) != 3:
                raise FileFormatError("expected: gen <name> <degree> <even|odd>", line_no)
            name, degree_text, parity = bits
            if not degree_text.isdigit():
                raise FileFormatError(f"bad degree {degree_text!r}", line_no)
            if parity not in ("even", "odd"):
                raise FileFormatError(f"bad parity {parity!r}", line_no)
            if name in gen_lines:
                raise FileFormatError(
                    f"duplicate generator name {name!r} (first on line {gen_lines[name]})", line_no
                )
            gen_lines[name] = line_no
            gen_specs.append((name, int(degree_text), parity))
        elif directive == "d":
            if "=" not in rest:
                raise FileFormatError("expected: d <name> = <expression>", line_no)
            name, expr = (s.strip() for s in rest.split("=", 1))
            if name in d_lines:
                raise FileFormatError(
                    f"repeated d {name} (first on line {d_lines[name][0]})", line_no
                )
            d_lines[name] = (line_no, expr)
        elif directive == "let":
            if "=" not in rest:
                raise FileFormatError("expected: let <label> = <expression>", line_no)
            label, expr = (s.strip() for s in rest.split("=", 1))
            if label in let_lines:
                raise FileFormatError(
                    f"repeated let {label} (first on line {let_lines[label][0]})", line_no
                )
            let_lines[label] = (line_no, expr)
        else:
            raise FileFormatError(f"unknown directive {directive!r}", line_no)
    if field_tag is None:
        field_tag = "Q"
    for name, line_no in gen_lines.items():  # the field may come after the gen lines
        if not is_generator_name(name, FIELDS[field_tag]):
            raise FileFormatError(f"bad generator name {name!r}", line_no)
    algebra = Algebra(gen_specs, FIELDS[field_tag])
    diffs = {}
    for name, (line_no, expr) in d_lines.items():
        if name not in algebra.by_name:
            raise FileFormatError(f"d of unknown generator {name!r}", line_no)
        try:
            diffs[name] = parse_element(expr, algebra)
        except ParseError as err:
            raise FileFormatError(str(err), line_no, err.position) from err
    elements = {}
    for label, (line_no, expr) in let_lines.items():
        if label in algebra.by_name:
            raise FileFormatError(f"let label {label!r} is a generator name", line_no)
        try:
            elements[label] = parse_element(expr, algebra)
        except ParseError as err:
            raise FileFormatError(str(err), line_no, err.position) from err
    try:
        pres = Presentation(algebra, diffs)
    except PresentationError as err:
        line_no = d_lines[err.generator.name][0]
        if err.residual is None:
            raise FileFormatError(str(err), line_no) from err
        raise DSquaredError(err, line_no, len(algebra.generators)) from err
    return AlgebraFile(pres, elements, field_tag)


def load_algebra_file(path) -> AlgebraFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line_no = data.count(b"\n", 0, err.start) + 1
        raise FileFormatError("file is not valid UTF-8", line_no) from err
    return load_algebra_text(text)


def dump_presentation(pres) -> str:
    """Render a presentation in the file format; round-trips through load."""
    lines = [f"field {pres.algebra.field.name}"]
    for g in pres.algebra.generators:
        lines.append(f"gen {g.name} {g.degree} {PARITY_NAMES[g.parity]}")
    for g in pres.algebra.generators:
        dg = pres.d_of_generator(g)
        if not dg.is_zero():
            lines.append(f"d {g.name} = {dg}")
    return "\n".join(lines) + "\n"


def _int_at_least(minimum):
    """argparse type: an integer >= minimum (exit 2 with a message otherwise)."""

    def integer(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _finish(report, args):
    print(report.render(as_json=args.json, timings=args.timings))
    return 0 if report.passed else 1


def cmd_check(args):
    # degree/parity violations are input errors (exit 2); a failing d^2 is a
    # mathematical failure and reports the residual (exit 1)
    report = Report(f"check {args.file}")
    try:
        count = len(load_algebra_file(args.file).presentation.algebra.generators)
        failure = ""
    except DSquaredError as err:
        count = err.generator_count
        failure = f"d(d {err.generator.name}) = {err.residual}"
    report.note(f"generators: {count}")
    report.add("degree and parity constraints", True)
    report.add("d^2 = 0 on every generator", not failure, failure)
    return _finish(report, args)


def cmd_cohomology(args):
    report = Report(f"cohomology {args.file} --max-degree {args.max_degree}")
    algfile = load_algebra_file(args.file)
    rep = cohomology(algfile.presentation, args.max_degree)
    for line in rep.lines():
        report.note(line)
    report.add("cohomology computed", True)
    return _finish(report, args)


def cmd_cyclify(args):
    report = Report(f"cyclify {args.file}")
    algfile = load_algebra_file(args.file)
    cyc = cyclify(algfile.presentation)
    report.note(dump_presentation(cyc.presentation).rstrip())
    report.note(f"canonical 2-cocycle: {cyc.cocycle_name}")
    report.add("cyclification passes d^2 = 0", True)  # a Presentation has d^2 = 0
    return _finish(report, args)


def cmd_hofib(args):
    report = Report(f"hofib {args.file} --cocycle {args.cocycle}")
    algfile = load_algebra_file(args.file)
    element = algfile.lookup(args.cocycle)
    ext = central_extension(algfile.presentation, element, name=args.name)
    report.note(dump_presentation(ext.total).rstrip())
    report.add("extension passes d^2 = 0", True)  # a Presentation has d^2 = 0
    return _finish(report, args)


def cmd_tduality(args):
    report = Report(
        f"tduality {args.file} --c1 {args.c1} --c2 {args.c2} --h3 {args.h3} {args.action}"
    )
    algfile = load_algebra_file(args.file)
    pres = algfile.presentation
    try:
        cfg = validate_config(
            pres, algfile.lookup(args.c1), algfile.lookup(args.c2), algfile.lookup(args.h3)
        )
    except ConfigError as err:
        report.add("configuration valid", False, str(err))
        return _finish(report, args)
    report.add("configuration valid", True)
    if args.action == "verify":
        return _finish(report, args)
    derived = derive_quintuple(cfg)
    q = derived.quintuple
    if args.action == "quintuple":
        report.note(f"a_3_1 = {q.a1}")
        report.note(f"a_3_2 = {q.a2}")
        report.note(f"b_2 = {q.b}")
        report.add("kernel relation residual zero", q.kernel_relation_residual.is_zero())
        return _finish(report, args)
    # fm-sample
    import random

    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.samples):
        k = rng.randint(0, args.window)
        w = random_twisted_cochain(rng, q.side1, k, args.window)
        if fm_inverse(q, fm_transform(q, w)) != w:
            ok = False
            break
    report.add(
        f"u Phi_-b Phi_b = id on {args.samples} random cochains (seed {args.seed})", ok
    )
    return _finish(report, args)


def cmd_superminkowski(args):
    from . import superminkowski as smk

    if args.action == "verify":
        report = smk.verify_report()
    else:
        report = smk.hori_pipeline(seed=args.seed, samples=args.samples, window=args.window)
    return _finish(report, args)


def cmd_library(args):
    report = Report(f"library {args.action}" + (f" {args.name}" if args.name else ""))
    if args.action == "list":
        for name in sorted(LIBRARY):
            report.note(name)
        report.add("library loaded", True)
        return _finish(report, args)
    if not args.name:
        raise FileFormatError("library dump requires a name", None)
    pres = library_presentation(args.name)
    print(dump_presentation(pres), end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sullivan",
        description="exact computations with differential bigraded commutative algebras",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument(
        "--timings", action="store_true", help="append timings (breaks byte stability)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an algebra file (degrees, parity, d^2)")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cohomology", help="cohomology in a degree window")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, required=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("cyclify", help="print the cyclified presentation")
    p.add_argument("file")
    p.set_defaults(func=cmd_cyclify)

    p = sub.add_parser("hofib", help="central extension by a labelled cocycle")
    p.add_argument("file")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--name", default=None, help="name for the new generator")
    p.set_defaults(func=cmd_hofib)

    p = sub.add_parser("tduality", help="validate configs and derive quintuples")
    p.add_argument("file")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.add_argument("--h3", required=True)
    p.add_argument("action", choices=["verify", "quintuple", "fm-sample"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=_int_at_least(1), default=25)
    p.add_argument("--window", type=_int_at_least(0), default=6)
    p.set_defaults(func=cmd_tduality)

    p = sub.add_parser("superminkowski", help="Clifford invariants and the Hori exchange")
    p.add_argument("action", choices=["verify", "hori"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=_int_at_least(1), default=50)
    p.add_argument("--window", type=_int_at_least(0), default=3)
    p.set_defaults(func=cmd_superminkowski)

    p = sub.add_parser("library", help="list or dump built-in presentations")
    p.add_argument("action", choices=["list", "dump"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_library)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SullivanError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
