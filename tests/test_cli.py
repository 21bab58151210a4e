import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import vetopersuasion
from cli_corpus import PAPER3, ROWS, check
from vetopersuasion.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_quad_json(capsys):
    code, out, _ = run(
        capsys, "solve", "quad", "persuasion-first", "uniform:-1,1", "power:2", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"regime", "cutoffs", "proposals", "value", "veto_prob"}
    assert report["regime"] == "BinaryCutoff"
    assert report["cutoffs"][0] == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert report["proposals"][0] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert report["value"] == pytest.approx(-11.0 / 27.0, abs=1e-6)


def test_solve_ideal_accepted(capsys):
    code, out, _ = run(
        capsys, "solve", "quad", "persuasion-first", "uniform:0.5,0.9", "linear", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "IdealAccepted" and report["value"] == 0.0


def test_solve_linear2(capsys):
    code, out, _ = run(
        capsys, "solve", "linear2", "persuasion-first", "atoms:0.1:.8,0.7:.2", "linear", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "Split"
    assert report["value"] == pytest.approx(-0.56, abs=1e-6)


def test_solve_linear3(capsys):
    code, out, _ = run(
        capsys, "solve", "linear3", "proposal-first", "atoms:0:.7,0.1:.2,0.5:.1", "linear", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(-13.0 / 15.0, abs=1e-6)
    assert report["value_noinfo"] == -1.0
    assert report["value_fullinfo"] == pytest.approx(-0.86)


SOLVE_DISTS = {"quad": "uniform:-1,1", "linear2": "atoms:0.1:.8,0.7:.2",
               "linear3": "atoms:0:.7,0.1:.2,0.5:.1"}
REPORT_KEYS = ["regime", "cutoffs", "proposals", "value", "veto_prob"]


@pytest.mark.parametrize("timing", ["persuasion-first", "proposal-first"])
@pytest.mark.parametrize("model", sorted(SOLVE_DISTS))
def test_solve_report_keys(capsys, model, timing):
    argv = ("solve", model, timing, SOLVE_DISTS[model], "linear")
    keys = REPORT_KEYS + (["value_noinfo", "value_fullinfo"] if model == "linear3" else [])
    code, text, _ = run(capsys, *argv)
    assert code == 0
    assert [line.split(": ", 1)[0] for line in text.splitlines()] == keys
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and sorted(json.loads(out)) == sorted(keys)


def test_solve_linear3_reports_the_same_signal_under_either_timing(capsys):
    reports = [run(capsys, "solve", "linear3", timing, SOLVE_DISTS["linear3"], "linear")
               for timing in ("persuasion-first", "proposal-first")]
    assert reports[0] == reports[1]


def test_json_output_is_byte_stable(capsys):
    args = ("solve", "quad", "persuasion-first", "uniform:-1,1", "power:2", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "quad", "persuasion-first", "uniform:-1,1", "power:2", "--tol", "1"),
        ("solve", "quad", "persuasion-first", "uniform:-1,1", "power:2", "--grid", "5"),
        ("sweep", "tilt", "--grid", "5"),
        ("figure", "1", "--tol", "1"),
    ],
)
def test_flag_only_where_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_solve_linear2_high_type_near_the_float_limit(capsys):
    # h = 1e308 solves as h = 1e300 does (phi once overflowed 2 (h - ell)).
    argv = ("solve", "linear2", "persuasion-first", "atoms:0.1:.7,{}:.3", "power:2", "--json")
    reports = []
    for h in ("1e308", "1e300"):
        code, out, _ = run(capsys, *(a.format(h) for a in argv))
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["value"] == pytest.approx(-0.2065, abs=1e-12)


def test_sweep_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "risk-aversion", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "parameter,s_star,s_upper,F_s_star,value,monotone"
    assert len(lines) == 5
    assert all(line.endswith(",pass") for line in lines[1:])


def test_sweep_custom_values(capsys):
    code, out, _ = run(capsys, "sweep", "tilt", "--values", "0,1")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_sweep_negative_values_need_the_equals_form(capsys):
    # argparse reads a list that starts with - as an option, so the spaced
    # form is a usage error and only --values=-1,0,1 reaches the sweep.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep", "tilt", "--values", "-1,0,1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, "sweep", "tilt", "--values=-1,0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,s_star,s_upper,F_s_star,value,monotone"
    assert [line.split(",", 1)[0] for line in lines[1:]] == ["-1", "0", "1"]


@pytest.mark.parametrize("values", ["2.5", "3"])
def test_sweep_tilt_without_a_cutoff(capsys, values):
    # Tilts this strong put the prior in a regime with no cutoff; the row
    # reports the prior mean instead of crashing.
    code, out, err = run(capsys, "sweep", "tilt", "--values", values)
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,s_star,s_upper,F_s_star,value,monotone"
    assert len(lines) == 2 and all(cell for cell in lines[1].split(","))


def test_sweep_across_regimes(capsys):
    # Tilts 2.5 and 3 have no cutoff: they get no verdict and fail nothing.
    code, out, _ = run(capsys, "sweep", "tilt", "--values", "0,1,2.5,3")
    assert code == 0
    verdicts = [line.rsplit(",", 1)[1] for line in out.strip().splitlines()[1:]]
    assert verdicts == ["pass", "pass", "n/a", "n/a"]
    # Two neighbouring rows with cutoffs are still compared.
    code, out, _ = run(capsys, "sweep", "tilt", "--values", "2.5,1,0")
    assert code == 3
    verdicts = [line.rsplit(",", 1)[1] for line in out.strip().splitlines()[1:]]
    assert verdicts == ["n/a", "pass", "fail"]


def test_every_sweep_kind_builds_its_own_instance(capsys, monkeypatch):
    from vetopersuasion import cli
    from vetopersuasion.dist import UniformInterval, lr_tilt
    from vetopersuasion.prefs import Exponential, Power
    from vetopersuasion.qsolve import solve_persuasion_first

    expected = {
        "risk-aversion": (UniformInterval(-1.0, 1.0), Exponential(0.7)),
        "tilt": (lr_tilt(UniformInterval(-1.0, 0.8), 0.7), Power(2.0)),
        "theta-hi": (UniformInterval(-1.0, 0.7), Power(2.0)),
    }
    assert set(cli._SWEEPS) == set(expected)
    for kind, (_, _, instance) in cli._SWEEPS.items():
        assert instance(0.7) == expected[kind], kind
    assert cli._SWEEPS["tilt"][2](0.0) == (UniformInterval(-1.0, 0.8), Power(2.0))

    # A kind declared only in the table runs on the instance it declares,
    # not on theta-hi's.
    d, prefs = UniformInterval(-1.0, 0.6), Power(3.0)
    monkeypatch.setitem(cli._SWEEPS, "power-three", ([0.6], ("<=", ">="), lambda x: (d, prefs)))
    code, out, _ = run(capsys, "sweep", "power-three")
    assert code == 0
    value = out.strip().splitlines()[1].split(",")[4]
    assert value == "%.12g" % solve_persuasion_first(d, prefs).value
    assert value != "%.12g" % solve_persuasion_first(d, Power(2.0)).value


def test_figure_csv(capsys, tmp_path):
    out = tmp_path / "fig1.csv"
    code, _, _ = run(capsys, "figure", "1", "--out", str(out), "--grid", "5")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta_lo,u_no,u_fl1,u_fl2,u_bi"
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == -2.0 and first[1] == -1.0
    assert first[4] == pytest.approx(-(2.0 - 5.0 / 27.0) / 3.0, abs=1e-10)


def test_figure_five_peak(capsys):
    code, out, _ = run(capsys, "figure", "5", "--grid", "201")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    best = max(rows, key=lambda r: float(r[2]))  # mu0 = 0.3 column
    assert float(best[0]) == pytest.approx(0.7, abs=0.01)


def test_cli_corpus():
    # The script that CI runs after an install without the test extra.
    src = str(Path(vetopersuasion.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("cli_corpus.py"))],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("line, code, fragment", ROWS, ids=[row[0] for row in ROWS])
def test_cli_corpus_row(line, code, fragment):
    # Each row again, in this process, so a broken one fails under its own name;
    # the script above adds the checks on what each row imports.
    assert check(line, code, fragment) == []


# Out of the corpus, whose rows all meet the contract, until the oracle's
# polish climbs the kink ridge to the solver's (0, 5/6, 1).
@pytest.mark.xfail(strict=True, reason="the linear3 oracle's coordinate polish stalls: "
                   "-0.8005 vs -0.8 (power:2), -1.43378 vs -1.43307 (exp:1)")
@pytest.mark.parametrize("loss", ["power:2", "exp:1"])
def test_oracle_linear3_paper_prior_under_a_curved_loss(loss):
    assert check(f"oracle linear3 {PAPER3} {loss}", 0, None) == []


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"json": True}))
    code, out, _ = run(
        capsys,
        "solve", "quad", "persuasion-first", "uniform:-1,1", "power:2",
        "--config", str(cfg),
    )
    assert code == 0
    json.loads(out)  # config turned on machine output


def test_config_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "ignored.txt")}))
    out_file = tmp_path / "wins.txt"
    code, _, _ = run(
        capsys,
        "solve", "quad", "persuasion-first", "uniform:-1,1", "power:2",
        "--json", "--out", str(out_file), "--config", str(cfg),
    )
    assert code == 0
    assert out_file.exists()
    assert not (tmp_path / "ignored.txt").exists()


@pytest.mark.parametrize(
    "cfg,argv",
    [
        ({"values": 5}, ("sweep", "tilt")),
        ({"tol": "x"}, ("oracle", "quad", "uniform:-1,1", "power:2")),
        ({"tol": float("nan")}, ("oracle", "quad", "uniform:-1,1", "power:2", "--grid", "50")),
        ({"json": "no"}, ("solve", "quad", "persuasion-first", "uniform:-1,1", "power:2")),
        # A config that is not a JSON object.
        ([1, 2], ("solve", "quad", "persuasion-first", "uniform:-1,1", "power:2")),
        ("x", ("solve", "quad", "persuasion-first", "uniform:-1,1", "power:2")),
    ],
)
def test_config_bad_value_exit_code(capsys, tmp_path, cfg, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "solve", "quad", "persuasion-first", "uniform:-1,1", "power:2",
                         "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad config file") and "utf-8" in err and err.count("\n") == 1


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("vps ")]
    assert {argv[1] for argv in examples} == {"solve", "sweep", "figure", "oracle"}
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])
    # Each example also runs, as a corpus row that exits 0, once its --out FILE is dropped.
    codes = {tuple(shlex.split(line)): code for line, code, _ in ROWS}
    for argv in examples:
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i:i + 2]
        assert codes.get(tuple(argv[1:])) == 0, argv


def test_readme_cli_section_names_the_whole_syntax():
    # The parser is the one source of the syntax; the README must name every
    # subcommand, choice and long flag it defines, each in a code span.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    names = set(commands)
    for sub in commands.values():
        for action in sub._actions:
            names.update(str(c) for c in action.choices or ())
            names.update(f for f in action.option_strings if f.startswith("--") and f != "--help")
    missing = sorted(n for n in names if f"`{n}`" not in section and f"`{n} " not in section)
    assert not missing
