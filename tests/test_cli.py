import gc
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tpoly import beta as beta_mod
from tpoly import cli, combos, svg
from tpoly.lattice import isosceles


def run(argv):
    return cli.main(argv)


def test_ihp_command(tmp_path):
    out = tmp_path / "ihp.json"
    assert run(["ihp", "--d", "7", "--p", "17", "--lmax", "36",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "tpoly/1"
    assert [28, "259/1"] in data["vertices"]
    assert [36, "387/1"] in data["vertices"]


def test_gnp_vertices_command(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["gnp-vertices", "--d", "7", "--p", "17", "--kmax", "2",
                "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["x_k"] == 28 and rows[0]["h_Tk"] == 259
    assert rows[1]["x_k"] == 105


def test_hodge_h_command(tmp_path):
    out = tmp_path / "h.json"
    assert run(["hodge-h", "--d", "5", "--p", "11", "--k", "1",
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["h_greedy"] == data["h_oracle"] == 80


def test_dwork_np_command(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"3,0": 1, "0,3": 2, "1,1": 3}))
    out = tmp_path / "np.json"
    assert run(["dwork-np", "--d", "3", "--p", "7", "--f", str(f),
                "--tprec", "18", "--lmax", "6", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["valuations"]["0"] == 0
    assert data["valuations"]["6"] == 16
    assert data["precision"] == [2] * 7


def test_dwork_np_reports_precision(tmp_path):
    # v_7(8!) = 1: u_0..u_6 keep M + 1 digits, the division by 7 drops one
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"3,0": 1, "0,3": 2, "1,1": 3}))
    out = tmp_path / "np.json"
    assert run(["dwork-np", "--d", "3", "--p", "7", "--f", str(f),
                "--tprec", "10", "--lmax", "8", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["precision"] == [3] * 7 + [2] * 2


def test_leading_coeff_command(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"3,0": 1, "0,3": 2, "1,1": 3}))
    out = tmp_path / "lead.json"
    assert run(["leading-coeff", "--d", "3", "--p", "7", "--f", str(f),
                "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["h_T1"] == 16 and data["unit_mod_p"]
    assert data["match"]


def test_special_command(tmp_path):
    out = tmp_path / "cls.json"
    assert run(["special", "--d", "5", "--p", "11",
                "--emit-classes", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 1
    assert data["classes"][0]["size"] == 1


def _ref_special_payload(delta, p):
    """The special report built bijection by bijection, as before the DP."""
    bs = combos.special_bijections(delta, p)
    recs = []
    for cl in combos.relatedness_classes(bs):
        datas = [combos.combo_from_bijection(delta, p, b) for b in cl]
        coeff = sum(b.sign * data.coefficient for b, data in zip(cl, datas))
        recs.append({
            "vector_multiset": [list(v) for v in cl[0].vectors],
            "size": len(cl),
            "sign_balance": sum(b.sign for b in cl),
            "coefficient": cli.frac_str(coeff),
            "exponents": list(datas[0].exponents),
        })
    return {"schema": cli.SCHEMA, "command": "special", "p": p,
            "count": len(bs), "classes": recs}


def test_special_prints_coefficients_past_int_str_limit(capsys):
    # K has more digits than Python's default int-to-str limit here; the
    # limit stays in place for parsing input
    assert run(["special", "--d", "5", "--p", "997"]) == 0
    data = json.loads(capsys.readouterr().out)
    k = combos.combo_denominator(isosceles(5), 997)
    assert len(str(Decimal(k))) > sys.get_int_max_str_digits()
    for rec in data["classes"]:
        num, den = (int(Decimal(part)) for part in rec["coefficient"].split("/"))
        assert Fraction(num, den) == Fraction(rec["sign_balance"], k)


@pytest.mark.parametrize("d,p", [(5, 11), (5, 19), (7, 53)])
def test_special_matches_enumeration(tmp_path, d, p):
    out = tmp_path / "cls.json"
    assert run(["special", "--d", str(d), "--p", str(p),
                "--emit-classes", str(out)]) == 0
    ref = cli.dump_json(_ref_special_payload(isosceles(d), p),
                        str(tmp_path / "ref.json"))
    assert out.read_text() == ref


def test_beta_command(tmp_path):
    out = tmp_path / "beta.json"
    pic = tmp_path / "beta.svg"
    assert run(["beta", "--d", "13", "--p", "41", "--json", str(out),
                "--svg", str(pic)]) == 0
    data = json.loads(out.read_text())
    assert data["status"] == "ok" and data["sign"] == 1
    assert pic.read_text().startswith("<svg")

    out2 = tmp_path / "beta717.json"
    assert run(["beta", "--d", "7", "--p", "17", "--json", str(out2)]) == 2
    assert json.loads(out2.read_text())["status"] == "out-of-hypothesis"


def test_figure_command(tmp_path):
    for which in ("t1", "y0"):
        out = tmp_path / f"{which}.svg"
        assert run(["figure", "--d", "7", "--p", "17", "--which", which,
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    out = tmp_path / "regions.svg"
    assert run(["figure", "--d", "16", "--p", "19", "--which", "regions",
                "--out", str(out)]) == 0
    body = out.read_text()
    assert 'class="k1"' in body and 'class="k2"' in body


def test_figure_markers_match_paper_sets(tmp_path):
    text = svg.figure_y0(isosceles(7), 17)
    # nine bullets at Y0, nine circles at m(Y0)
    assert text.count('class="bullet"') == 9
    assert text.count('class="circle"') == 9


def test_figure_byte_deterministic():
    a = svg.figure_t1_split(isosceles(7), 17)
    b = svg.figure_t1_split(isosceles(7), 17)
    assert a == b


def test_verify_command_and_exit_code(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--d", "5", "--p", "11", "--seed", "1",
                "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["failures"] == 0
    assert all(c["status"] in ("pass", "out-of-hypothesis")
               for c in rep["checks"])
    assert rep["seed"] == 1


def test_verify_outside_c0_hypothesis(tmp_path):
    # p0 = 41 mod 11 = 8, so d > 2*p0 fails: the C0 closed form does not apply
    out = tmp_path / "verify.json"
    assert run(["verify", "--d", "11", "--p", "41", "--json", str(out)]) == 0
    rep = json.loads(out.read_text())
    status = {c["name"]: c["status"] for c in rep["checks"]}
    assert rep["failures"] == 0
    assert status["c0_distribution_rows"] == "out-of-hypothesis"


def test_verify_never_enumerates_special_bijections(tmp_path, monkeypatch):
    def enumerate_all(*_args, **_kwargs):
        raise AssertionError("verify enumerated the special bijections")
    monkeypatch.setattr(combos, "special_bijections", enumerate_all)
    # (7,17) is outside the hypothesis of the beta pipeline and of K2
    for d, p, gated, uses_count in [
            (7, 17, {"beta_pipeline", "k2_distribution_rows"},
             {"example_special_bijection_present",
              "special_combo_exponent_maximality"}),
            (5, 11, set(), {"ordinary_case_trivialities"})]:
        out = tmp_path / f"verify-{d}-{p}.json"
        assert run(["verify", "--d", str(d), "--p", str(p),
                    "--json", str(out)]) == 0
        status = {c["name"]: c["status"]
                  for c in json.loads(out.read_text())["checks"]}
        assert uses_count <= set(status)
        assert status == {name: "out-of-hypothesis" if name in gated
                          else "pass" for name in status}


REFUSAL_KEYS = {"schema", "command", "p", "status", "reason"}


def assert_refused(rep, command, p):
    assert set(rep) == REFUSAL_KEYS
    assert rep["status"] == "refused" and rep["command"] == command
    assert rep["p"] == p


def test_verify_rejects_bad_config(capsys):
    # 15 is not prime, and 7 divides det = 49
    for p in (15, 7):
        assert run(["verify", "--d", "7", "--p", str(p)]) == 2
        assert_refused(json.loads(capsys.readouterr().out), "verify", p)


def test_verify_budget_refusal(tmp_path, monkeypatch):
    def out_of_budget(*_args, **_kwargs):
        raise combos.EnumerationBudgetExceeded("related enumeration budget exceeded")
    monkeypatch.setattr(beta_mod, "related_class_characterization", out_of_budget)
    out = tmp_path / "verify.json"
    assert run(["verify", "--d", "13", "--p", "41", "--json", str(out)]) == 2
    rep = json.loads(out.read_text())
    status = {c["name"]: c["status"] for c in rep["checks"]}
    assert status["beta_pipeline"] == "out-of-budget"
    assert rep["failures"] == 0


def test_verify_odd_assembly_fails_before_the_class_dp(tmp_path, monkeypatch):
    # the assembled beta at (21,107) is odd; the class DP there passes its
    # budget, which must not turn the failure into out-of-budget
    def out_of_budget(*_args, **_kwargs):
        raise combos.EnumerationBudgetExceeded("more than 400000 DP transitions")
    monkeypatch.setattr(beta_mod, "related_class_characterization", out_of_budget)
    out = tmp_path / "verify.json"
    assert run(["verify", "--d", "21", "--p", "107", "--json", str(out)]) == 1
    rep = json.loads(out.read_text())
    [check] = [c for c in rep["checks"] if c["name"] == "beta_pipeline"]
    assert check["status"] == "fail" and check["computed"]["sign"] == -1
    assert rep["failures"] == 1


def run_process(argv, python=("-m", "tpoly.cli")):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *python, *argv],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("extra", [["--lmax", "-1"], ["--tprec", "0"],
                                   ["--M", "8", "--tprec", "12"]])
def test_dwork_np_refusals(tmp_path, extra):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"3,0": 1, "0,3": 2, "1,1": 3}))
    res = run_process(["dwork-np", "--d", "3", "--p", "7", "--f", str(f),
                       *extra])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert_refused(json.loads(res.stdout), "dwork-np", 7)


def test_special_budget_refusal():
    res = run_process(["special", "--d", "7", "--p", "17", "--budget", "1000"])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    rep = json.loads(res.stdout)
    assert rep["status"] == "out-of-budget" and rep["command"] == "special"
    assert rep["reason"] == "more than 1000 DP transitions"


@pytest.mark.parametrize("M", ["0", "30"])
def test_leading_coeff_refusals(tmp_path, M):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"3,0": 1, "0,3": 2, "1,1": 3}))
    res = run_process(["leading-coeff", "--d", "3", "--p", "7", "--f", str(f),
                       "--M", M])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert_refused(json.loads(res.stdout), "leading-coeff", 7)


GENERAL = ["--a1", "1", "--b1", "3", "--a2", "2", "--b2", "1", "--p", "11"]

# --f files written for the refusal cases; missing.json is never written
F_FILES = {"list.json": "[1, 2]", "badkey.json": '{"1;2": 3}',
           "badval.json": '{"1,2": [3]}',
           "floatval.json": '{"3,0": 1, "0,3": 2, "1,1": 1.5}'}


@pytest.mark.parametrize("argv", [
    ["verify", *GENERAL],
    ["figure", *GENERAL],
    ["special", *GENERAL],
    ["beta", *GENERAL],
    ["dwork-np", "--d", "3", "--p", "7", "--f", "missing.json"],
    ["leading-coeff", "--d", "3", "--p", "7", "--f", "missing.json"],
    ["ihp", "--d", "7", "--p", "17", "--lmax", "-1"],
    ["dwork-np", "--d", "3", "--p", "7", "--f", "list.json"],
    ["dwork-np", "--d", "3", "--p", "7", "--f", "badval.json"],
    ["leading-coeff", "--d", "3", "--p", "7", "--f", "badkey.json"],
    ["leading-coeff", "--d", "3", "--p", "7", "--f", "floatval.json"],
    ["ihp", "--a1", "1", "--b1", "3", "--p", "11"],
    ["gnp-vertices", "--d", "7", "--p", "15"],
    ["hodge-h", "--d", "7", "--p", "7"],
], ids=["verify-general", "figure-general", "special-general",
        "beta-general", "dwork-np-missing-f", "leading-coeff-missing-f",
        "ihp-negative-lmax", "dwork-np-f-list", "dwork-np-f-bad-value",
        "leading-coeff-f-bad-key", "leading-coeff-f-float",
        "ihp-missing-triangle",
        "gnp-vertices-p-not-prime", "hodge-h-p-divides-det"])
def test_refusals_are_json_with_exit_2(tmp_path, argv):
    for name, text in F_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    res = run_process(argv)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert_refused(json.loads(res.stdout), argv[0],
                   int(argv[argv.index("--p") + 1]))


def test_verify_imports_no_scipy(tmp_path):
    # scipy's linear_sum_assignment would replace the oracle in one line,
    # but importing it costs more set-up time and memory than the oracle
    code = ("import sys; from tpoly import cli; "
            f"rc = cli.main(['verify', '--d', '7', '--p', '17', "
            f"'--json', {str(tmp_path / 'v.json')!r}]); "
            "assert rc == 0, rc; "
            "assert 'scipy' not in sys.modules, 'scipy imported'")
    res = run_process([], python=("-c", code))
    assert res.returncode == 0, res.stderr


def test_score_assignment_h_is_h1_plus_h2_under_O():
    # h1 reads the target's weights too: here source and target differ,
    # and under -O no assert stands between a wrong h1 and the caller
    code = ("import sys; from tpoly import hodge; "
            "from tpoly.lattice import isosceles; "
            "a = hodge.assignment_oracle(isosceles(7), 17, [(0, 0)], [(0, 1)]); "
            "sys.exit(0 if not __debug__ and a.h == a.h1 + a.h2 else 1)")
    res = run_process([], python=("-O", "-c", code))
    assert res.returncode == 0, res.stderr


# -- the report writer against json.dumps ------------------------------


def _stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1, default=cli._json_default)


def _outcome(dumps, obj):
    try:
        return dumps(obj)
    except TypeError as exc:
        return TypeError, str(exc)


class Opaque:
    """A value neither json nor _json_default can write."""


ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10 ** 900, 10 ** 900),
    st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0),
    st.text(), st.text(alphabet=ESCAPES), st.fractions(),
    st.builds(Opaque), st.complex_numbers(max_magnitude=1e3))
int_keys = st.one_of(st.integers(), st.booleans(), st.floats())
json_values = st.recursive(scalars, lambda kids: st.one_of(
    st.lists(kids), st.lists(kids).map(tuple),
    st.lists(st.one_of(st.integers(), st.booleans())),
    st.dictionaries(st.text(alphabet=ESCAPES + "ab"), kids),
    st.dictionaries(int_keys, kids),
    st.dictionaries(st.one_of(st.none(), st.text(max_size=1)), kids,
                    max_size=2)), max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({"a": [1, True, 2], "b": [], "c": {}, "d": (), "e": -10 ** 30})
@example([[1, 2], (3, -4), [False], [0, 1.5], [Fraction(-1, 3)]])
@example({True: 2, 2: 3, -1: None, 2.5: [float("nan"), float("-inf")]})
@example({None: {float("inf"): -0.0}})
@example({"x": [1, 2, Opaque()]})
@example({1: "one", "1": "string one"})     # keys the sort cannot order
def test_dumps_is_stdlib_layout(obj):
    assert _outcome(cli._dumps, obj) == _outcome(_stdlib_dumps, obj)


def test_dumps_bool_in_int_list_and_list_indent():
    # a bool among ints takes the general path and stays "true"; ints in
    # a nested list sit one space deeper than the list's own line
    assert cli._dumps({"v": [1, True]}) == '{\n "v": [\n  1,\n  true\n ]\n}'
    assert cli._dumps([[7, 8]]) == "[\n [\n  7,\n  8\n ]\n]"


def test_dumps_leaves_no_garbage_cycle():
    # a writer that closes over itself keeps every chunk alive until a
    # cyclic collection, which raised peak RSS over repeated reports
    payload = {"classes": [{"v": [[1, 2], [3, 4]], "c": "1/2"}] * 50}
    gc.collect()
    gc.disable()
    try:
        cli._dumps(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _captured_payloads(monkeypatch, argv_list):
    """The objects each cli.main call hands to the writer."""
    seen = []
    dumps = cli._dumps

    def record(obj):
        seen.append(obj)
        return dumps(obj)
    with monkeypatch.context() as m:
        m.setattr(cli, "_dumps", record)
        for argv in argv_list:
            cli.main(argv)
    return seen


def test_dumps_matches_stdlib_on_every_command(tmp_path, monkeypatch, capsys):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"3,0": 1, "0,3": 2, "1,1": 3}))
    a = ["--d", "7", "--p", "17"]
    argv_list = [
        ["ihp", *a], ["gnp-vertices", *a], ["hodge-h", *a, "--k", "2"],
        ["dwork-np", "--d", "3", "--p", "7", "--f", str(f), "--tprec", "18",
         "--lmax", "6"],
        ["leading-coeff", "--d", "3", "--p", "7", "--f", str(f)],
        ["special", "--d", "5", "--p", "19"],
        ["beta", "--d", "13", "--p", "41"], ["beta", *a],
        ["verify", *a],
        ["ihp", "--d", "7", "--p", "15"],   # a refusal record
    ]
    seen = _captured_payloads(monkeypatch, argv_list)
    capsys.readouterr()
    assert [obj["command"] for obj in seen] == [v[0] for v in argv_list]
    assert seen[-1]["status"] == "refused"
    for obj in seen:
        assert cli._dumps(obj) == _stdlib_dumps(obj)


# -- one parser per process ----------------------------------------------


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    a = ["--d", "7", "--p", "17"]
    assert run(["verify", *a, "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert run(["verify", *a]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0

    out = tmp_path / "cls.json"
    b = ["--d", "5", "--p", "19"]
    assert run(["special", *b, "--emit-classes", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(["special", *b]) == 0
    assert capsys.readouterr().out == out.read_text()

    assert run(["ihp", *a, "--lmax", "5"]) == 0
    short = json.loads(capsys.readouterr().out)
    assert run(["ihp", *a]) == 0
    default = capsys.readouterr().out
    assert run(["ihp", *a, "--lmax", "40"]) == 0
    assert default == capsys.readouterr().out
    assert len(json.loads(default)["h_values"]) > len(short["h_values"])


def test_import_builds_no_parser():
    code = ("from tpoly import cli; "
            "assert cli._parser.cache_info().currsize == 0, 'built at import'")
    res = run_process([], python=("-c", code))
    assert res.returncode == 0, res.stderr


def test_emit_classes_and_stdout_write_the_same_bytes(tmp_path, capsys):
    out = tmp_path / "cls.json"
    a = ["special", "--d", "7", "--p", "17"]
    assert run([*a, "--emit-classes", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(a) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")
