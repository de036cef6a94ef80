"""Command-line interface: file format, round trips, exit codes, stability."""

import json
import subprocess
import sys

import pytest

from sullivan.cli import (
    FileFormatError,
    dump_presentation,
    load_algebra_text,
    main,
)
from sullivan.tduality import LIBRARY, library_presentation

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
    with pytest.raises(FileFormatError) as err:
        load_algebra_text(D_SQUARED_FAILS)
    assert "x1" in str(err.value)
    assert "w3" in str(err.value)


def test_dump_round_trip_for_every_library_entry():
    for name in LIBRARY:
        pres = library_presentation(name)
        text = dump_presentation(pres)
        again = load_algebra_text(text).presentation
        assert pres.same_structure(again), name


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
        # a repeated d line names both lines
        ("gen x1 1 even\ngen y2 2 even\nd x1 = y2\nd x1 = 2*y2\n",
         ["check", "@"], ["line 3", "(line 4)"]),
        # neither a --cocycle label nor a missing library name is a file line
        (LS4, ["hofib", "@", "--cocycle", "nosuch"], []),
        (None, ["library", "dump"], []),
    ],
    ids=["duplicate-gen", "bad-bidegree", "inhomogeneous-d", "d-squared", "repeated-d",
         "unknown-cocycle", "dump-without-name"],
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
