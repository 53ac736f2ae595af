import contextlib
import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liequiv import cli, generators, report
from liequiv.catalog import CatalogEntry, find_entry
from liequiv.cli import main
from liequiv.determining import FiniteCheckResult, FiniteFactor, Verdict
from liequiv.dsl import PAREN_DEPTH, print_generator
from liequiv.expr import (Expr, UnknownSymbolError, UnsupportedFormError,
                          unknown)
from liequiv.flows import exponentiate
from liequiv.generators import from_coefficients, prolong
from liequiv.jets import build_registry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_theorem_dim3(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "3", "--gen", "all-theorem",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert len(payload["results"]) == 11
    for entry in payload["results"]:
        assert entry["infinitesimal"]["status"] == "zero"
        assert entry["finite"]["status"] == "pass"
        assert entry["agreement"] is True


def test_verify_naive_rotation_fails(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "2", "--gen", "J12_naive")
    assert code == 1
    assert "nonzero" in out
    assert "witness" in out


def test_verify_dsl_generator(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "1", "--gen",
                       "t*d/dx1 + d/du1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["generator"] == "user"
    assert payload["results"][0]["finite"]["available"] is False


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "verify", "--dim", "5", "--gen", "all")[0] == 2
    assert run(capsys, "verify", "--dim", "2", "--gen", "nonsense")[0] == 2
    assert run(capsys, "nope")[0] == 2
    code, _, err = run(capsys, "verify", "--dim", "2", "--gen", "q*d/dp")
    assert code == 2
    assert "unknown coordinate: q" in err
    code, _, err = run(capsys, "verify", "--dim", "1", "--gen", "1/0*d/dt")
    assert code == 2
    assert "line 1, column 1: rational literal 1/0" in err
    # a constant power past the bit bound is refused before it is built
    code, _, err = run(capsys, "verify", "--dim", "1", "--gen", "2**99999999999*d/dt")
    assert code == 2
    assert "line 1, column 4: the power 99999999999 of a coefficient" in err
    # so is a power of a sum whose expansion could pass it
    code, _, err = run(capsys, "verify", "--dim", "1", "--gen", "(p + 1)**99999999*d/dp")
    assert code == 2
    assert "line 1, column 10: the power 99999999 of a sum of 2 terms" in err
    assert run(capsys, "transform", "--dim", "2", "--gen", "J12_naive")[0] == 2
    empty = tmp_path / "empty.dsl"
    empty.write_text("# nothing but a comment\n\n", encoding="utf-8")
    for argv, message in (
            (("verify", "--dim", "1", "--gen", f"@{empty}"),
             f"no generators found in {empty}"),
            (("bracket", "--dim", "1", "--pair", "X0,Q"),
             "--pair must name two verified entries, got X0,Q"),
            (("transform", "--dim", "1", "--gen", "X0", "--param", "x"),
             "--param must be an exact rational, got 'x'"),
            # --param reads an optional sign and the DSL's rational literal
            # only: no decimals, no exponents and no zero denominator
            *((("transform", "--dim", "1", "--gen", "X0", "--param", value),
               f"--param must be an exact rational, got {value!r}")
              for value in ("1e99999999", "-1e99999999", "0.5", "1/0", "1/00",
                            "--format"))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"liequiv: error: {message}\n"


def test_bracket_table_cell(capsys):
    code, out, _ = run(capsys, "bracket", "--dim", "3", "--table",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] is True
    names = payload["basis"]
    assert len(names) == 11
    table = payload["table"]
    assert table[names.index("X0")][names.index("Y1")] == "X1"
    assert table[names.index("Y1")][names.index("X0")] == "-X1"
    # antisymmetric with zero diagonal
    for i in range(len(names)):
        assert table[i][i] == "0"


def test_bracket_pair(capsys):
    code, out, _ = run(capsys, "bracket", "--dim", "2", "--pair", "S,Z1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "2*S"


def test_bracket_value_signs():
    combo = {"Y1": Fraction(-3, 2), "X1": Fraction(1), "S": Fraction(-1)}
    value = report.bracket_pair_payload("A", "B", combo)["value"]
    assert value == "-S + X1 - 3/2*Y1"
    assert report.bracket_pair_payload("A", "B", None)["value"] == "0"


def test_bracket_pair_names_may_be_padded_on_either_side(capsys):
    plain = run(capsys, "bracket", "--dim", "3", "--pair", "X0,Y1")
    assert plain[0] == 0 and "[X0, Y1] = X1" in plain[1]
    assert run(capsys, "bracket", "--dim", "3", "--pair", "X0, Y1") == plain
    assert run(capsys, "bracket", "--dim", "3", "--pair", "X0 ,Y1") == plain


def test_bracket_table_is_the_default_and_excludes_pair(capsys):
    default = run(capsys, "bracket", "--dim", "2")
    assert default[0] == 0
    assert default == run(capsys, "bracket", "--dim", "2", "--table")
    code, out, err = run(capsys, "bracket", "--dim", "2", "--table",
                         "--pair", "S,Z1")
    assert code == 2 and not out
    assert "not allowed with argument" in err


def test_deteq_reports_split_system(capsys):
    code, out, _ = run(capsys, "deteq", "--dim", "1", "--gen",
                       "x1*d/dx1 + u1*d/du1 + ?a*p*d/dp + ?b*Pi11*d/dPi11 + ?c*G*d/dG",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    eqs = payload["results"][0]["equations"]
    assert [e["equation"] for e in eqs] == ["mass", "momentum_1", "pressure"]
    momentum_terms = eqs[1]["terms"]
    assert momentum_terms, "splitting the scaling family must constrain it"
    coeffs = {t["monomial"]: t["coefficient"] for t in momentum_terms}
    assert any("?a" in c or "?b" in c or "?c" in c for c in coeffs.values())


def test_deteq_text_prints_one_line_per_term(capsys):
    argv = ("deteq", "--dim", "2", "--gen", "J12_naive")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(run(capsys, *argv, "--format", "json")[1])
    expected = [f"    [{term['monomial']}] {term['coefficient']} = 0"
                for eq in payload["results"][0]["equations"]
                for term in eq["terms"]]
    assert len(expected) > 1
    assert [line for line in out.splitlines() if line.startswith("    [")] == expected


def test_transform_scaling(capsys):
    code, out, _ = run(capsys, "transform", "--dim", "1", "--gen", "Z1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    factors = {e["equation"]: e["factor"] for e in payload["equations"]}
    assert factors == {"mass": "1", "momentum_1": "exp(a)",
                       "pressure": "exp(2*a)"}
    maps = {m["coordinate"]: m["image"] for m in payload["maps"]}
    assert maps["p"] == "exp(a)**2*p"


def test_transform_sorts_negative_scale_exponents(capsys):
    """exp(a)**-2 sorts before exp(a)**-1, so in a pullback exp(-a)**2
    terms print before exp(-a) terms."""
    code, out, _ = run(capsys, "transform", "--dim", "2", "--gen",
                       "t*d/dt + 2*x2*d/dx2")
    assert code == 0
    assert ("  mass: factor none (not form-invariant)\n"
            "    exp(-a)**2*rho*u2_x2 + exp(-a)**2*rho_x2*u2 + exp(-a)*rho_t"
            " + rho*u1_x1 + rho_x1*u1\n") in out
    assert out.count(": factor none (not form-invariant)\n") == 4


def test_transform_with_rational_parameter(capsys):
    code, out, _ = run(capsys, "transform", "--dim", "1", "--gen", "X0",
                       "--param", "3/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameter"] == "3/2"
    maps = {m["coordinate"]: m["image"] for m in payload["maps"]}
    assert maps["t"] == "3/2 + t"


def test_transform_negative_parameter(capsys):
    for argv, param, image in ((["--param", "-3/2"], "-3/2", "-3/2 + t"),
                               (["--param=-3/2"], "-3/2", "-3/2 + t"),
                               (["--param", "+3/2"], "3/2", "3/2 + t"),
                               (["--param", "-0"], "0", None)):
        code, out, _ = run(capsys, "transform", "--dim", "1", "--gen", "X0",
                           *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["parameter"] == param
        maps = {m["coordinate"]: m["image"] for m in payload["maps"]}
        assert maps.get("t") == image  # identity maps are omitted


@pytest.mark.parametrize("spaced, joined", [
    (["verify", "--gen", "-d/dt"], ["verify", "--gen=-d/dt"]),
    (["deteq", "--gen", "-2*u1*x1*d/du1"], ["deteq", "--gen=-2*u1*x1*d/du1"]),
    (["transform", "--gen", "-d/dt", "--param", "-3/2"],
     ["transform", "--gen=-d/dt", "--param=-3/2"]),
], ids=["verify", "deteq", "transform"])
def test_gen_value_may_start_with_a_sign(capsys, spaced, joined):
    """The token after --gen is its value, as print_generator writes a
    generator whose first term is negative."""
    got = run(capsys, *spaced, "--dim", "2")
    assert got[0] == 0, got[2]
    assert got == run(capsys, *joined, "--dim", "2")


@pytest.mark.parametrize("argv, typed", [
    (["list", "--dim", "1", "--gen", "X0"], "--gen X0"),
    (["system-dump", "--dim", "1", "--param", "2"], "--param 2"),
])
def test_undeclared_flags_are_refused_as_typed(capsys, argv, typed):
    """Only a command that declares --gen or --param joins it with its
    value; argparse quotes any other flag as the user typed it."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {typed}\n")


REGISTRIES = {dim: build_registry(dim) for dim in (1, 2)}


@st.composite
def admitted_commands(draw):
    """verify or deteq on a printed generator of the classical ansatz: a few
    directions, each a small polynomial in atoms its slot admits and a
    ?constant.  xi and eta^u stay off p and rho, whose second jets are not
    registered."""
    dim = draw(st.sampled_from(sorted(REGISTRIES)))
    reg = REGISTRIES[dim]
    table = {}
    for direction in draw(st.lists(st.sampled_from(list(reg.ansatz)),
                                   max_size=3, unique=True)):
        admitted = sorted(reg.ansatz[direction])
        if direction in reg.independents + reg.u:
            admitted = [a for a in admitted if a not in (reg.p, reg.rho)]
        factors = st.lists(st.sampled_from(admitted + [unknown("a")]),
                           max_size=2)
        coeff = Expr.const(0)
        for c, fs in draw(st.lists(st.tuples(
                st.fractions(-3, 3, max_denominator=2), factors),
                min_size=1, max_size=2)):
            term = Expr.const(c)
            for a in fs:
                term = term * a
            coeff = coeff + term
        table[direction] = coeff
    g = from_coefficients(reg, table)
    command = draw(st.sampled_from(("verify", "deteq")))
    return [command, "--dim", str(dim), "--gen", print_generator(reg, g)]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(admitted_commands())
def test_admitted_generators_are_no_input_errors(argv):
    """Whatever validate_ansatz admits, main reads as printed: the verdict
    is 0 or 1, never the input error 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())


def console(*argv):
    """(exit code, stdout, stderr) of ``python -m liequiv`` in a new process."""
    import os
    import subprocess

    done = subprocess.run(
        [sys.executable, "-m", "liequiv", *argv],
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def test_python_m_prints_what_main_prints(capsys):
    argv = ["list", "--dim", "1"]
    assert console(*argv) == run(capsys, *argv)


def test_console_script_prints_big_integers(capsys):
    """``python -m liequiv`` prints a coefficient of more digits than
    ``str(int)`` allows by default, and ``cli.main`` in this process prints
    the same bytes."""
    argv = ["transform", "--dim", "1", "--gen", "2**20000*d/dt", "--format", "json"]
    code, out, err = console(*argv)
    assert code == 0, err
    assert run(capsys, *argv) == (0, out, "")
    maps = {m["coordinate"]: m["image"] for m in json.loads(out)["maps"]}
    digits = maps["t"].removesuffix("*a + t")
    assert len(digits) == 6021 and digits.isdigit()
    assert digits.endswith(str(2 ** 20000 % 10 ** 30).zfill(30))


@pytest.mark.parametrize("argv, code", [
    (["verify", "--gen", "1" * 5000 + "*d/dt"], 2),
    (["transform", "--gen", "X0", "--param", "1" * 5000], 2),
    # the exponent 2 * (10**4300 - 1) has more digits than str(int) prints
    (["verify", "--gen", f"(p**{'9' * 4300})**2*d/dp"], 1),
], ids=["long-literal", "long-param", "long-exponent"])
def test_console_script_and_main_read_and_print_alike(capsys, argv, code):
    """Both entry points run ``main`` under the interpreter's limit on the
    digits of ``str(int)``: a literal past it is refused alike, and an
    exponent past it prints alike."""
    argv = [*argv, "--dim", "1"]
    got = console(*argv)
    assert got[0] == code, got[2]
    assert run(capsys, *argv) == got


def test_list_catalog(capsys):
    code, out, _ = run(capsys, "list", "--dim", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [e["name"] for e in payload["entries"]]
    assert names[:4] == ["X0", "X1", "X2", "S"]
    z1 = [e for e in payload["entries"] if e["name"] == "Z1"][0]
    assert z1["dsl"].startswith("x1*d/dx1 + x2*d/dx2")


def test_generator_file_selector(tmp_path, capsys):
    body = "\n".join([
        "# two equivalent boosts",
        "boost1 = t*d/dx1 + d/du1",
        "t*d/dx2 + d/du2",
        "",
    ])
    path = tmp_path / "gens.dsl"
    path.write_text(body, encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--dim", "2", "--gen", f"@{path}",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [r["generator"] for r in payload["results"]] == ["boost1", "user_3"]
    assert all(r["infinitesimal"]["status"] == "zero"
               for r in payload["results"])


def test_generator_file_names_are_nonempty_and_new(tmp_path, capsys):
    for body, message in (
            (" = d/dt\n", "line 1: empty generator name"),
            ("x = d/dt\n# comment\nx = d/dx1\n",
             "line 3: generator name x repeats line 1"),
            ("d/dt\nuser_1 = d/dx1\n",
             "line 2: generator name user_1 repeats line 1"),
            ("user_2 = d/dt\nd/dx1\n",
             "line 2: generator name user_2 repeats line 1")):
        path = tmp_path / "gens.dsl"
        path.write_text(body, encoding="utf-8")
        for command in ("verify", "deteq"):
            code, out, err = run(capsys, command, "--dim", "1", "--gen", f"@{path}")
            assert (code, out, err) == (2, "", f"liequiv: error: {path}, {message}\n")


def test_generator_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.dsl"
    path.write_bytes(b"x = d/dt\n\xff\n")
    code, out, err = run(capsys, "verify", "--dim", "1", "--gen", f"@{path}")
    assert (code, out, err) == (2, "", f"liequiv: error: {path} is not UTF-8 text\n")


def test_generator_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.dsl"
    path.write_bytes(b"\xef\xbb\xbfx = d/dt\n")
    code, out, _ = run(capsys, "verify", "--dim", "1", "--gen", f"@{path}",
                       "--format", "json")
    assert code == 0
    assert [r["generator"] for r in json.loads(out)["results"]] == ["x"]
    path.write_bytes(b"\xef\xbb\xbfd/dt\n")
    code, out, err = run(capsys, "verify", "--dim", "1", "--gen", f"@{path}")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("depth", [PAREN_DEPTH, PAREN_DEPTH + 1, 245, 10_000])
def test_nesting_bound_from_gen_and_file(tmp_path, capsys, depth):
    """The bound holds alike for --gen and for an @file line, whose error
    points into the file."""
    gen = "(" * depth + "t" + ")" * depth + "*d/dt"
    path = tmp_path / "deep.dsl"
    path.write_text(f"# deep\nx = {gen}\n", encoding="utf-8")
    for selector, line, column in ((gen, 1, 1), (f"@{path}", 2, 5)):
        code, out, err = run(capsys, "deteq", "--dim", "1", "--gen", selector)
        if depth == PAREN_DEPTH:
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", (
                f"liequiv: error: line {line}, column {column + PAREN_DEPTH}: "
                f"parentheses nest deeper than {PAREN_DEPTH} levels\n"))


def test_generator_file_errors_point_into_the_file(tmp_path, capsys):
    for last, message in (
            ("b =  x1*d/dt + q*d/dp", "line 3, column 16: unknown coordinate: q"),
            ("  t*d/dx1 + + d/du1",
             "line 3, column 13: expected a coefficient factor, found '+'")):
        path = tmp_path / "gens.dsl"
        path.write_text(f"a = d/dt\n# comment\n{last}\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--dim", "1", "--gen", f"@{path}")
        assert (code, out, err) == (2, "", f"liequiv: error: {message}\n")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--dim", "1", "--gen", "X0",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["status"] == "pass"


def test_reports_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code = main(["verify", "--dim", "2", "--gen", "all-theorem",
                     "--format", "json", "--out", str(target)])
        assert code == 0
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_prolongs_each_entry_once(monkeypatch, capsys):
    original = generators.prolong
    calls = []

    def counting(reg, g):
        calls.append(g)
        return original(reg, g)

    for name, mod in list(sys.modules.items()):
        if name.startswith("liequiv") and getattr(mod, "prolong", None) is original:
            monkeypatch.setattr(mod, "prolong", counting)
    assert run(capsys, "verify", "--dim", "3", "--gen", "all-theorem")[0] == 0
    assert len(calls) == 11


def test_selectors_resolve_to_catalog_entries(spaces, tmp_path):
    path = tmp_path / "gens.dsl"
    path.write_text("boost = t*d/dx1 + d/du1\nz = 0\n", encoding="utf-8")
    user = ("t*d/dx1 + d/du1", "0", f"@{path}")
    for sel in ("all", "all-theorem", "X0", "J12_naive") + user:
        entries = cli._select_generators(SimpleNamespace(gen=sel, dim=2),
                                         spaces[2].reg)
        assert isinstance(entries, tuple) and entries, sel
        assert all(isinstance(e, CatalogEntry) for e in entries), sel
        if sel in user:
            assert all(e.kind == "user" and not e.has_flow for e in entries)


def test_engine_errors_are_not_input_errors(monkeypatch):
    # exit 2 means the input was wrong; a division by zero or a kernel
    # error inside the engine is a fault of the program and must not be
    # reported as one
    for error in (ZeroDivisionError, ValueError, UnknownSymbolError,
                  UnsupportedFormError):
        def fail(*args):
            raise error("raised inside the engine")

        monkeypatch.setattr(cli, "check_entry", fail)
        with pytest.raises(error):
            main(["verify", "--dim", "1", "--gen", "X0"])


def test_dsl_and_file_selectors_build_no_catalog(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("build_catalog called")

    cli._catalog.cache_clear()  # an earlier command may have built it
    monkeypatch.setattr(cli, "build_catalog", refuse)
    path = tmp_path / "boost.dsl"
    path.write_text("# one boost\nt*d/dx1 + d/du1\n", encoding="utf-8")
    for sel in ("t*d/dx1 + d/du1", f"@{path}"):
        for cmd in ("verify", "deteq", "transform"):
            assert run(capsys, cmd, "--dim", "2", "--gen", sel)[0] == 0, (cmd, sel)


def test_zero_generator_selector(capsys):
    for dim in ("1", "3"):
        for cmd in ("verify", "deteq", "transform"):
            for gen in ("0", "0*d/dt"):
                code, _, err = run(capsys, cmd, "--dim", dim, "--gen", gen)
                assert (code, err) == (0, ""), (cmd, dim, gen)


def test_transform_help_lists_only_single_generators(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    _, verify_help, _ = run(capsys, "verify", "--help")
    _, transform_help, _ = run(capsys, "transform", "--help")
    assert "all-theorem, all, @file.dsl" in verify_help
    assert "all-theorem" not in transform_help
    assert "@file.dsl holding one generator" in transform_help


def test_finite_line_names_why_there_is_no_finite_check(capsys):
    # a user generator is checked infinitesimally only; transform runs its
    # flow.  A rotation candidate has no closed-form flow.
    for gen in ("t*d/dx1 + d/du1", "0"):
        code, out, _ = run(capsys, "verify", "--dim", "2", "--gen", gen)
        assert code == 0
        assert "  finite: not run for user generators (see transform)\n" in out
        assert "closed-form" not in out
        assert run(capsys, "transform", "--dim", "2", "--gen", gen)[0] == 0
    code, out, _ = run(capsys, "verify", "--dim", "2", "--gen", "J12_tensorial")
    assert "  finite: no closed-form flow in the exact carrier\n" in out
    assert "not run" not in out


def test_failing_verify_writes_the_full_report_to_out(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "verify", "--dim", "2", "--gen", "J12_naive",
                         "--out", str(target))
    assert (code, out, err) == (1, "", "")
    text = target.read_text(encoding="utf-8")
    assert "; witness Pi11_d_u1x1*u1_x1x2 -> rho\n" in text
    assert text.endswith("status: fail\n")
    assert run(capsys, "verify", "--dim", "2", "--gen", "J12_naive") == (1, text, "")


def test_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    for argv in (("verify", "--dim", "2", "--gen", "J12_naive"),
                 ("list", "--dim", "1")):
        code, out, err = run(capsys, *argv, "--out",
                             str(tmp_path / "missing" / "report.txt"))
        assert (code, out) == (2, "")
        assert err.startswith("liequiv: error:")
    assert not (tmp_path / "missing").exists()


def test_factor_text(spaces):
    # report prints the exact pair (c, k) as c*exp(a)^k; no golden reaches
    # c != 1, and a missing factor is text in transform, null in verify JSON
    one, neg, half = Fraction(1), Fraction(-1), Fraction(3, 2)
    cases = {
        (one, 0): "1", (one, 1): "exp(a)", (one, -1): "exp(-a)",
        (one, 2): "exp(2*a)", (one, -3): "exp(-3*a)",
        (neg, 0): "-1", (neg, 1): "-1*exp(a)", (neg, -1): "-1*exp(-a)",
        (neg, 2): "-1*exp(2*a)", (neg, -3): "-1*exp(-3*a)",
        (half, 0): "3/2", (half, 1): "3/2*exp(a)", (half, -1): "3/2*exp(-a)",
        (half, 2): "3/2*exp(2*a)", (half, -3): "3/2*exp(-3*a)",
        None: None,
    }
    factors = tuple(FiniteFactor(f"eq{n}", factor, Expr())
                    for n, factor in enumerate(cases))
    fc = FiniteCheckResult(False, factors)
    reg = spaces[1].reg
    ft = exponentiate(reg, prolong(reg, find_entry(spaces[1].catalog, "X0").spec))
    transform = report.transform_payload("X0", None, ft, fc)
    verdict = report.render_json(report.verdict_payload(
        Verdict("X0", "theorem", True, (), fc, False)))
    verify_factors = json.loads(verdict)["finite"]["factors"]
    for f, entry, want in zip(factors, transform["equations"], cases.values()):
        assert entry["equation"] == f.equation
        assert entry["factor"] == (want or "none (not form-invariant)"), f
        assert verify_factors[f.equation] == want, f
    assert f'"{factors[-1].equation}": null' in verdict


def test_missing_factor_in_verify_text():
    # verify text prints a missing factor as transform does; JSON keeps null
    fc = FiniteCheckResult(False, (FiniteFactor("mass", None, Expr()),
                                   FiniteFactor("pressure", (Fraction(1), 2),
                                                Expr())))
    payload = report.skeleton("verify", 1)
    payload["results"] = [report.verdict_payload(
        Verdict("X0", "theorem", True, (), fc, False))]
    payload["status"] = "fail"
    text = report.render_text(payload)
    assert ("  finite: fail (mass: none (not form-invariant), "
            "pressure: exp(2*a))\n") in text
    assert "None" not in text
    assert payload["results"][0]["finite"]["factors"]["mass"] is None
