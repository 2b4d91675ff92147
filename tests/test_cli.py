"""Command-line interface: schemas, config merging, exit codes, determinism."""

import csv
import hashlib
import json
import shlex
import types
from pathlib import Path

import pytest

import raclab
from raclab.cli import DELAY_HEADER, DMT_HEADER, SIM_HEADER, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_dmt_curve_csv(tmp_path):
    out = tmp_path / "dmt.csv"
    assert main(["dmt", "--users", "2", "--deadline", "1", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == DMT_HEADER
    # scalar span is 1.0 at 0.01 steps for gta, ondma, irarq L=1 and L=2
    assert len(rows) == 400
    first = rows[0]
    assert first[0] == "0" and float(first[1]) == 1.0 and first[2] == "gta"
    # IR-ARQ rows carry their deadline; the repetition protocol has none
    deadlines = {r[2]: r[3] for r in rows}
    assert deadlines["ondma"] == "" and deadlines["irarq"] in {"1", "2"}


def test_dmt_rows_carry_the_pt_of_their_curve(tmp_path):
    # the IR-ARQ curve is computed at p_t = 1, so its rows say 1 under --pt 0.5;
    # the O-NDMA and GTA curves are computed at the given p_t
    out = tmp_path / "dmt.csv"
    assert main(["dmt", "--users", "3", "--pt", "0.5", "--deadline", "1", "2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    pts = {(r[2], r[4]) for r in rows}
    assert pts == {("gta", "0.5"), ("ondma", "0.5"), ("irarq", "1")}


def test_dmt_vector_irarq_reaches_full_span(tmp_path):
    out = tmp_path / "dmt.csv"
    assert main(["dmt", "--users", "2", "--rx-ant", "2", "--deadline", "1",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ir = [(float(r[0]), float(r[1])) for r in rows if r[2] == "irarq"]
    on = [(float(r[0]), float(r[1])) for r in rows if r[2] == "ondma"]
    assert max(r for r, _ in ir) == pytest.approx(1.99)
    assert ir[-1][1] > 0.0 and ir[-1][1] < 0.05      # d -> 0 as r_e -> 2
    assert on[-1][1] == 0.0                           # repetition stops short


def test_gta_recursion_exact_output(tmp_path):
    out = tmp_path / "rec.csv"
    assert main(["gta-recursion", "--kmax", "3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["k", "X", "J", "X_exact", "J_exact"]
    assert rows[2][3] == "4" and rows[3][3] == "35/6" and rows[3][4] == "5/2"


def test_beta_csv_schema(tmp_path):
    out = tmp_path / "beta.csv"
    code = main(["beta", "--users", "2", "--deadline", "2", "--snr-db", "10",
                 "--trials", "2000", "--seed", "4", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == SIM_HEADER
    metrics = {r[5] for r in rows}
    assert metrics == {"beta_k1_l1", "beta_k1_l2", "beta_k2_l1", "beta_k2_l2"}


def test_beta_runs_every_deadline(tmp_path):
    out = tmp_path / "beta.csv"
    assert main(["beta", "--deadline", "2", "3", "--snr-db", "10", "--trials", "1000",
                 "--seed", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert {(r[2], r[5]) for r in rows} == (
        {("2", f"beta_k{k}_l{ell}") for k in (1, 2) for ell in (1, 2)}
        | {("3", f"beta_k{k}_l{ell}") for k in (1, 2) for ell in (1, 2, 3)})
    # each deadline's rows are those of a run at that deadline alone
    alone = tmp_path / "alone.csv"
    assert main(["beta", "--deadline", "3", "--snr-db", "10", "--trials", "1000",
                 "--seed", "1", "--out", str(alone)]) == 0
    assert [r for r in rows if r[2] == "3"] == read_csv(alone)[1]


def test_beta_rows_carry_no_pt(tmp_path):
    # a beta table is per collision size and never reads p_t, so --pt
    # leaves the p_t field empty and changes no other field
    args = ["beta", "--users", "2", "--deadline", "2", "--snr-db", "10", "--trials", "1000", "--seed", "1"]
    given, plain = tmp_path / "given.csv", tmp_path / "plain.csv"
    assert main(args + ["--pt", "0.5", "--out", str(given)]) == 0
    assert main(args + ["--out", str(plain)]) == 0
    header, rows = read_csv(given)
    column = header.index("p_t")
    assert rows and {r[column] for r in rows} == {""}
    assert rows == read_csv(plain)[1]


def test_pe_csv_and_determinism(tmp_path):
    args = ["pe", "--protocol", "irarq", "--deadline", "2", "--snr-db", "10", "15", "20",
            "--trials", "5000", "--seed", "9"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == SIM_HEADER
    assert any(r[5] == "diversity_slope" for r in rows)
    assert any(r[5] == "per_user_error_prob_0" for r in rows)


def test_throughput_csv(tmp_path):
    out = tmp_path / "tput.csv"
    code = main(["throughput", "--protocol", "ondma", "irarq", "--deadline", "2", "--snr-db", "10",
                 "--horizon", "20000", "--trials", "5000", "--seed", "3", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == SIM_HEADER
    metrics = [r[5] for r in rows]
    assert "throughput_per_rate" in metrics and "renewal_prediction_per_rate" in metrics
    # IR-ARQ's prediction reads a beta table of --trials trials, so it has a stderr
    pred = next(r for r in rows if r[1] == "irarq" and r[5] == "renewal_prediction_per_rate")
    assert pred[8] == "5000" and float(pred[7]) > 0.0


def test_delay_csv(tmp_path):
    out = tmp_path / "delay.csv"
    code = main(["delay", "--protocol", "irarq", "--deadline", "2", "--snr-db", "25",
                 "--lambda", "0.5", "--horizon", "20000", "--trials", "20000",
                 "--seed", "6", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == DELAY_HEADER
    protos = {r[0] for r in rows}
    assert protos == {"irarq", "irarq-analytic"}
    sim = next(r for r in rows if r[0] == "irarq")
    assert sim[12] in {"stable", "unstable", "inconclusive"}


def test_stability_table(capsys):
    assert main(["stability", "--protocol", "gta", "ondma", "irarq", "--deadline", "2"]) == 0
    text = capsys.readouterr().out
    assert "lambda_max=0.577350" in text   # tree at its optimal p_t
    assert "lambda_max=1.000000" in text   # repetition at p_t=1
    assert "lambda_max=2.000000" in text   # deadline ARQ below the rate knee


def test_stability_scan_rows_go_to_stdout(capsys):
    assert main(["stability", "--protocol", "ondma", "--scan", "--snr-db", "30",
                 "--horizon", "2000", "--seed", "5"]) == 0
    captured = capsys.readouterr()
    header, *rows = csv.reader(captured.out.splitlines())
    assert header == DELAY_HEADER
    assert "lambda_max=1.000000" in captured.err        # the summary stays off the CSV
    assert len(rows) == 6                               # one per load on the scan grid
    assert {r[0] for r in rows} == {"ondma"}
    assert {r[12] for r in rows} <= {"stable", "unstable", "inconclusive"}


def test_stability_scan_runs_every_snr(capsys):
    assert main(["stability", "--protocol", "ondma", "--scan", "--snr-db", "20", "30",
                 "--horizon", "2000", "--seed", "5"]) == 0
    captured = capsys.readouterr()
    _, *rows = csv.reader(captured.out.splitlines())
    assert [r[7] for r in rows] == ["20"] * 6 + ["30"] * 6
    assert "scan at 20 dB" in captured.err and "scan at 30 dB" in captured.err


def test_config_file_with_overrides(tmp_path):
    cfg = {"users": 2, "protocols": ["ondma"], "r": 0.3, "seed": 11}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "dmt.csv"
    assert main(["dmt", "--config", str(path), "--r", "0.45", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert {r[2] for r in rows} == {"ondma"}


def test_config_errors_exit_2(tmp_path, capsys):
    # arrival rate outside [0, K]
    assert main(["delay", "--lambda", "5.0", "--seed", "1"]) == 2
    # simulation without a seed
    assert main(["beta", "--users", "2"]) == 2
    # more users than the random-arrival simulator tabulates
    assert main(["delay", "--users", "9", "--lambda", "0.5", "--seed", "1"]) == 2
    assert main(["stability", "--users", "9", "--scan", "--seed", "1"]) == 2
    # a fixed rate in bits/use is not an arrival multiplexing gain
    assert main(["stability", "--protocol", "irarq", "--rate-mode", "fixed-R",
                 "--r", "1.5"]) == 2
    # empty protocol list via config file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"protocols": []}))
    assert main(["dmt", "--config", str(path)]) == 2
    # unknown config key
    path.write_text(json.dumps({"protocls": ["gta"]}))
    assert main(["dmt", "--config", str(path)]) == 2
    # unreadable config
    assert main(["dmt", "--config", str(tmp_path / "missing.json")]) == 2
    # values the library rejects
    assert main(["delay", "--horizon", "5", "--lambda", "0.5", "--seed", "1"]) == 2
    assert main(["gta-recursion", "--kmax", "-1"]) == 2
    assert main(["throughput", "--horizon", "0", "--seed", "1"]) == 2
    assert main(["dmt", "--pt", "0"]) == 2
    assert main(["beta", "--workers", "0", "--trials", "100", "--seed", "1"]) == 2
    assert main(["beta", "--workers", "-1", "--trials", "100", "--seed", "1"]) == 2
    # an SNR that is nan or overflows in linear scale: one line, no traceback
    capsys.readouterr()
    for snr_db in ("nan", "4000"):
        assert main(["pe", "--snr-db", snr_db, "--seed", "1", "--protocol", "irarq",
                     "--deadline", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    # config values of the right type that the config checks or the protocol
    # parameters reject
    for bad in ({"protocols": ["csma"]}, {"snr_db": []}, {"deadline": [0]}, {"trials": 0},
                {"rate_mode": "fixed"}):
        path.write_text(json.dumps(bad))
        assert main(["dmt", "--config", str(path)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (bad, err)
    # config values of the wrong type, and a config that is not an object
    for bad in ({"trials": "100"}, {"lambda": 0.5}, [1, 2], {"seed": "7"},
                {"users": True}, {"deadline": 2}, {"snr_db": [10, "20"]}):
        path.write_text(json.dumps(bad))
        assert main(["beta", "--config", str(path), "--trials", "100"]) == 2, bad
    # invalid protocol choice is an argparse error, also exit code 2
    with pytest.raises(SystemExit) as exc:
        main(["dmt", "--protocol", "csma"])
    assert exc.value.code == 2


def test_joint_decoding_past_one_kernel_tile_exits_2(capsys):
    # 2^40 - 1 subsets per epoch: a config error, not an allocation that never ends
    for argv in (["beta", "--users", "40"],
                 ["pe", "--protocol", "irarq", "--users", "40", "--deadline", "2"],
                 ["throughput", "--protocol", "irarq", "--users", "40", "--deadline", "2"]):
        capsys.readouterr()
        assert main(argv + ["--trials", "100", "--seed", "1"]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "kernel tile" in err, err


def test_fixed_rate_mode(tmp_path):
    out = tmp_path / "pe.csv"
    code = main(["pe", "--protocol", "ondma", "--rate-mode", "fixed-R", "--r", "1.0",
                 "--snr-db", "10", "13", "16", "--trials", "4000", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    sys_rows = [r for r in rows if r[5] == "system_error_prob"]
    # fixed rate: error probability falls roughly like 1/snr
    assert float(sys_rows[0][6]) > float(sys_rows[-1][6])


def test_config_error_is_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": "7"}))
    for argv in (["beta", "--config", str(path)], ["gta-recursion", "--kmax", "-1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_unwritable_out_fails_before_any_simulation(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr("raclab.montecarlo.system_error_probability", no_run)
    for argv in (["dmt"], ["pe", "--trials", "100", "--seed", "1"]):
        assert main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
    # a writable path keeps its contents until the rows are written
    out = tmp_path / "kept.csv"
    out.write_text("old\n")
    assert main(["dmt", "--pt", "0", "--out", str(out)]) == 2
    assert out.read_text() == "old\n"


def test_config_file_values_of_every_field_type(tmp_path):
    # ints stand for floats; null for optional fields; lambda is the key of --lambda
    cfg = {"protocols": ["gta"], "users": 2, "deadline": [1], "pt": None, "snr_db": [10, 20.5],
           "lambda": [1], "rate_mode": "multiplexing", "r": 1, "seed": 3, "out": None,
           "scan": False}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["stability", "--config", str(path)]) == 0
    path.write_text(json.dumps({"lam": [1.0]}))
    assert main(["stability", "--config", str(path)]) == 2


def test_readme_examples_parse():
    # every documented command line must keep parsing when an option moves
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```bash", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("raclab ")]
    assert len(commands) >= 7
    for argv in commands:
        build_parser().parse_args(argv)


# (command, stdout line count, stdout sha256): pure-Python or exact-valued
# floats printed to 10 digits, so the digests do not depend on numpy
ANALYTIC_OUTPUTS = [
    ("dmt --deadline 1 2", 401,
     "155259b8a6e92e99fad455502f4636c1d1b75a8b18ce17f150ed62f5f99d92e2"),
    ("dmt --users 4 --tx-ant 2 --rx-ant 2 --deadline 1 3", 801,
     "f1c462a1127db2a3511cf7b38cc5fe085b08b96ed15b0d71a7cac84140ea2c99"),
    ("dmt --users 3 --pt 0.5 --deadline 1 2 4", 501,
     "a3138c1459b8bcda6e810cdf5dc71d8cb5f9241eeb3105dfef4d3f475f726d26"),
    ("dmt --users 2 --rx-ant 2 --deadline 1", 601,
     "226227b63e67f01092c205a47af94d3c44a0047a98dbc835076e53edc78efe48"),
    ("stability --protocol gta ondma irarq", 3,
     "7ec6c54c6aa6bc097f2e3d846e381f98e6f3e89ef0bb3d74d9d9c7429d0637c7"),
    ("stability --users 4 --tx-ant 2 --rx-ant 2 --protocol gta ondma irarq --deadline 2 3", 4,
     "e2a51d56f9db36558e990f7cb01d39331ae26d01ee53bb4d121c2693b59edcf8"),
    ("gta-recursion --kmax 3", 5,
     "ecaae2f4afb4ab7bcc1a73fc606a8c04186285a97c43b918b07f71b70941a560"),
]


@pytest.mark.parametrize("command, lines, digest", ANALYTIC_OUTPUTS, ids=[
    "-".join(word.lstrip("-") for word in command.split()) for command, _, _ in ANALYTIC_OUTPUTS])
def test_analytic_output_is_pinned(command, lines, digest, capsys):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_readme_names_every_public_name():
    text = README.read_text()
    public = [name for name in dir(raclab) if not name.startswith("_")
              and not isinstance(getattr(raclab, name), types.ModuleType)]
    assert [name for name in public if f"`{name}`" not in text] == []
