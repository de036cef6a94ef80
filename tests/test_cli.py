"""Command-line interface: file format, round trips, exit codes, stability."""

import json
import subprocess
import sys

import pytest

from sullivan import cli
from sullivan.cli import (
    DSquaredError,
    FileFormatError,
    dump_presentation,
    load_algebra_text,
    main,
)
from sullivan.dgca import MorphismError
from sullivan.fields import FieldError
from sullivan.tduality import LIBRARY, library_presentation
from sullivan.twisted import TwistError

LS4 = """\
field Q
gen x4 4 even
gen x7 7 even
d x7 = x4^2
let twist = x4
"""

BAD_DEGREE = """\
field Q
gen y3 3 even
gen xc2 2 even
d y3 = xc2
"""

D_SQUARED_FAILS = """\
field Q
gen x1 1 even
gen z2 2 even
gen w3 3 even
d x1 = z2
d z2 = w3
"""


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "sullivan.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_load_and_lookup():
    algfile = load_algebra_text(LS4)
    assert algfile.field_tag == "Q"
    assert [g.name for g in algfile.presentation.algebra.generators] == ["x4", "x7"]
    assert algfile.lookup("twist") == algfile.presentation.algebra.gen("x4")
    assert algfile.lookup("x4^2") == algfile.presentation.algebra.gen("x4") ** 2


def test_load_rejects_degree_violation():
    with pytest.raises(FileFormatError):
        load_algebra_text(BAD_DEGREE)


def test_load_rejects_d_squared_failure_with_residual():
    with pytest.raises(DSquaredError) as err:
        load_algebra_text(D_SQUARED_FAILS)
    assert str(err.value) == "d^2 != 0 at generator x1: residual = w3 (line 5)"
    assert isinstance(err.value, FileFormatError)
    assert err.value.generator.name == "x1"
    assert str(err.value.residual) == "w3"
    assert err.value.generator_count == 3


def test_dump_round_trip_for_every_library_entry():
    for name in LIBRARY:
        pres = library_presentation(name)
        text = dump_presentation(pres)
        again = load_algebra_text(text).presentation
        assert pres.same_structure(again), name


def test_generator_named_i_over_q_round_trips():
    # over Q, `i` is an ordinary generator name
    text = "field Q\ngen i 2 even\ngen x3 3 even\nd x3 = 3*i^2\n"
    pres = load_algebra_text(text).presentation
    assert dump_presentation(pres) == text
    assert load_algebra_text(dump_presentation(pres)).presentation.same_structure(pres)


def test_exit_codes(tmp_path):
    good = tmp_path / "good.alg"
    good.write_text(LS4)
    bad = tmp_path / "bad.alg"
    bad.write_text(BAD_DEGREE)
    unsound = tmp_path / "unsound.alg"
    unsound.write_text(D_SQUARED_FAILS)

    assert run_cli(["check", str(good)]).returncode == 0
    r = run_cli(["check", str(bad)])
    assert r.returncode == 2
    assert "bidegree" in r.stderr
    r2 = run_cli(["check", str(unsound)])
    assert r2.returncode == 1
    assert "FAIL" in r2.stdout
    assert run_cli(["check", str(tmp_path / "missing.alg")]).returncode == 2
    assert run_cli(["cohomology", str(unsound), "--max-degree", "3"]).returncode == 2


def test_non_utf8_file_exits_two_with_line(tmp_path):
    f = tmp_path / "bytes.alg"
    f.write_bytes(b"field Q\ngen x\xff2 2 even\n")
    r = run_cli(["check", str(f)])
    assert r.returncode == 2
    assert "line 2" in r.stderr
    assert "Traceback" not in r.stderr


def test_huge_exponent_cocycle_answers_promptly(tmp_path):
    # d of z2^N has N Leibniz terms on one monomial; they are summed in O(1)
    f = tmp_path / "huge.alg"
    f.write_text("gen y3 3 even\ngen z2 2 even\nd z2 = y3\nlet w = z2^99999999\n")
    r = run_cli(["hofib", str(f), "--cocycle", "w"], timeout=30)
    assert r.returncode == 2
    assert "not closed: d c = 99999999*y3*z2^99999998" in r.stderr
    assert "Traceback" not in r.stderr


def test_wide_algebra_cohomology_without_traceback(tmp_path):
    # the monomial basis of a 1,200-generator algebra is enumerated without
    # one stack frame per generator
    f = tmp_path / "wide.alg"
    f.write_text("".join(f"gen g{k} 1 odd\n" for k in range(1200)))
    r = run_cli(["cohomology", str(f), "--max-degree", "0"])
    assert r.returncode == 0
    assert "H^0: dim 1" in r.stdout
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "text, argv, places",
    [
        # a duplicate gen names the line of that gen
        ("field Q\ngen x2 2 even\ngen x2 4 even\n", ["check", "@"], ["(line 3)"]),
        # a bad d bidegree names its d line
        ("# d raises the degree by 2\nfield Q\ngen x2 2 even\ngen y4 4 even\nd x2 = y4\n",
         ["check", "@"], ["(line 5)"]),
        # so does a non-homogeneous d
        ("gen x1 1 even\ngen y2 2 even\ngen z2 2 odd\nd x1 = y2 + z2\n",
         ["check", "@"], ["(line 4)"]),
        # d^2 != 0 found at load names the d line of that generator
        (D_SQUARED_FAILS, ["cohomology", "@", "--max-degree", "3"], ["x1", "(line 5)"]),
        # a malformed let line is input error even for check, ahead of d^2 != 0
        (D_SQUARED_FAILS + "let w = x1 +\n", ["check", "@"], ["(line 7,"]),
        # a repeated d line names both lines
        ("gen x1 1 even\ngen y2 2 even\nd x1 = y2\nd x1 = 2*y2\n",
         ["check", "@"], ["line 3", "(line 4)"]),
        # a repeated let label names both lines
        ("gen x2 2 even\nlet w = x2\nlet w = x2^2\n", ["check", "@"], ["line 2", "(line 3)"]),
        # a let label may not take a generator's name
        ("gen x2 2 even\nlet x2 = 5*x2\n", ["hofib", "@", "--cocycle", "x2"], ["(line 2)"]),
        # a generator name that the element grammar cannot read back
        ("field Q\ngen y^2 3 even\nlet w = y^2\n", ["check", "@"], ["(line 2)"]),
        # over Qi, i is the imaginary unit and names no generator
        ("field Qi\ngen i 1 even\n", ["check", "@"], ["'i'", "(line 2)"]),
        ("gen a 2 even\ngen i 1 even\nfield Qi\n", ["check", "@"], ["'i'", "(line 2)"]),
        # neither a --cocycle label nor a missing library name is a file line
        (LS4, ["hofib", "@", "--cocycle", "nosuch"], []),
        (None, ["library", "dump"], []),
        # nor is a --name outside the grammar, or i over Qi
        (LS4, ["hofib", "@", "--cocycle", "x4", "--name", "y 1"], []),
        (LS4, ["hofib", "@", "--cocycle", "x4", "--name", ""], ["''"]),
        ("field Qi\ngen a 2 even\ngen b 3 even\nd b = i*a^2\n",
         ["hofib", "@", "--cocycle", "a", "--name", "i"], ["'i'"]),
    ],
    ids=["duplicate-gen", "bad-bidegree", "inhomogeneous-d", "d-squared",
         "bad-let-before-d-squared", "repeated-d", "repeated-let", "let-shadows-generator",
         "unreadable-gen-name", "imaginary-unit-gen", "imaginary-unit-gen-before-field",
         "unknown-cocycle", "dump-without-name", "unreadable-hofib-name", "empty-hofib-name",
         "imaginary-unit-hofib-name"],
)
def test_input_errors_name_their_line(tmp_path, capsys, text, argv, places):
    f = tmp_path / "input.alg"
    if text is not None:
        f.write_text(text)
    assert main([str(f) if a == "@" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    for place in places:
        assert place in err
    if not places:
        assert "line" not in err


@pytest.mark.parametrize(
    "error", [MorphismError, TwistError, FieldError], ids=lambda e: e.__name__
)
def test_every_engine_error_exits_two(tmp_path, capsys, monkeypatch, error):
    def cmd_check(args):
        raise error("raised inside a command")

    monkeypatch.setattr(cli, "cmd_check", cmd_check)
    f = tmp_path / "ls4.alg"
    f.write_text(LS4)
    assert main(["check", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: raised inside a command\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tduality", "@", "--c1", "xc2", "--c2", "xt2", "--h3", "y3", "fm-sample",
          "--window", "-1"], "argument --window: must be >= 0, got -1"),
        (["tduality", "@", "--c1", "xc2", "--c2", "xt2", "--h3", "y3", "fm-sample",
          "--samples", "-3"], "argument --samples: must be >= 1, got -3"),
        (["tduality", "@", "--c1", "xc2", "--c2", "xt2", "--h3", "y3", "fm-sample",
          "--samples", "two"], "argument --samples: invalid integer value: 'two'"),
        (["superminkowski", "hori", "--window", "-1"], "argument --window: must be >= 0"),
        (["superminkowski", "hori", "--samples", "0"], "argument --samples: must be >= 1"),
    ],
    ids=["fm-window", "fm-samples", "fm-samples-text", "hori-window", "hori-samples"],
)
def test_numeric_arguments_refused_up_front(tmp_path, capsys, monkeypatch, argv, message):
    from sullivan import superminkowski

    def build_superminkowski(*args, **kwargs):
        raise AssertionError("refused arguments must not build anything")

    monkeypatch.setattr(superminkowski, "build_superminkowski", build_superminkowski)
    f = tmp_path / "btfold.alg"
    f.write_text(dump_presentation(library_presentation("btfold")))
    with pytest.raises(SystemExit) as exit_:
        main([str(f) if a == "@" else a for a in argv])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_cohomology_command(tmp_path):
    f = tmp_path / "ls4.alg"
    f.write_text(LS4)
    r = run_cli(["cohomology", str(f), "--max-degree", "11"])
    assert r.returncode == 0
    assert "H^0: dim 1" in r.stdout
    assert "H^4: dim 1" in r.stdout
    assert "H^11: dim 0" in r.stdout


def test_tduality_quintuple_output(tmp_path):
    f = tmp_path / "btfold.alg"
    f.write_text(dump_presentation(library_presentation("btfold")))
    r = run_cli(["tduality", str(f), "--c1", "xc2", "--c2", "xt2", "--h3", "y3", "quintuple"])
    assert r.returncode == 0
    assert "a_3_1 = y3 - xt2*ec1" in r.stdout
    assert "a_3_2 = y3 - xc2*et1" in r.stdout
    assert "b_2 = ec1*et1" in r.stdout


def test_tduality_invalid_config_exit_one(tmp_path):
    f = tmp_path / "btfold.alg"
    f.write_text(dump_presentation(library_presentation("btfold")))
    r = run_cli(["tduality", str(f), "--c1", "xc2", "--c2", "xt2", "--h3", "0*y3", "verify"])
    assert r.returncode == 1
    assert "dh3 mismatch" in r.stdout


def test_tduality_zero_class_exit_zero(tmp_path):
    # the trivial circle bundle: zero is a closed class of every degree
    f = tmp_path / "btfold.alg"
    f.write_text(dump_presentation(library_presentation("btfold")))
    r = run_cli(["tduality", str(f), "--c1", "xc2", "--c2", "0", "--h3", "0", "verify"])
    assert r.returncode == 0, r.stdout
    assert "PASS  configuration valid" in r.stdout


def test_hofib_command(tmp_path):
    f = tmp_path / "btfold.alg"
    f.write_text(dump_presentation(library_presentation("btfold")))
    r = run_cli(["hofib", str(f), "--cocycle", "xc2", "--name", "yc1"])
    assert r.returncode == 0
    assert "gen yc1 1 even" in r.stdout
    assert "d yc1 = xc2" in r.stdout


def test_cyclify_command(tmp_path):
    f = tmp_path / "ls4.alg"
    f.write_text(LS4)
    r = run_cli(["cyclify", str(f)])
    assert r.returncode == 0
    assert "d sx7 = -2*x4*sx4" in r.stdout


def test_library_dump_reparses(tmp_path):
    r = run_cli(["library", "dump", "btfold"])
    assert r.returncode == 0
    again = load_algebra_text(r.stdout).presentation
    assert again.same_structure(library_presentation("btfold"))


def test_reports_byte_stable(tmp_path):
    f = tmp_path / "btfold.alg"
    f.write_text(dump_presentation(library_presentation("btfold")))
    args = ["tduality", str(f), "--c1", "xc2", "--c2", "xt2", "--h3", "y3",
            "fm-sample", "--seed", "7", "--samples", "5", "--window", "4"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_json_mode(tmp_path):
    f = tmp_path / "ls4.alg"
    f.write_text(LS4)
    r = run_cli(["--json", "check", str(f)])
    payload = json.loads(r.stdout)
    assert payload["passed"] is True
    assert payload["command"].startswith("check")


def test_superminkowski_verify_command():
    r = run_cli(["superminkowski", "verify"])
    assert r.returncode == 0
    assert "45 anticommutator relations" in r.stdout
    assert "FAIL" not in r.stdout


def test_main_entry_point(tmp_path):
    f = tmp_path / "ls4.alg"
    f.write_text(LS4)
    assert main(["check", str(f)]) == 0
