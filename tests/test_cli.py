import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_verify_rejects_bad_config():
    with pytest.raises(SystemExit):
        run(["verify", "--d", "7", "--p", "15"])
    with pytest.raises(SystemExit):
        run(["verify", "--d", "7", "--p", "7"])


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


def run_process(argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tpoly.cli", *argv],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("extra", [["--lmax", "-1"], ["--tprec", "0"],
                                   ["--M", "8", "--tprec", "12"]])
def test_dwork_np_refusals(tmp_path, extra):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"3,0": 1, "0,3": 2, "1,1": 3}))
    res = run_process(["dwork-np", "--d", "3", "--p", "7", "--f", str(f),
                       *extra])
    assert res.returncode != 0
    assert "Traceback" not in res.stderr
    assert "dwork-np" in res.stderr
