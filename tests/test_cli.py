"""Command-line interface: outputs, config layering, exit codes, determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from qpmp.cli import main
from qpmp.lindblad import cost_of_control
from qpmp.problems import make_retention_problem, step_control
from qpmp.quantum_core import format_real
from qpmp.trajectories import (
    DOMAIN_LAMBDA,
    DOMAIN_RHO,
    derive_seed,
    realization_to_string,
    sample_jump_process,
)


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_propagate_outputs(runner, tmp_path):
    out = tmp_path / "run"
    result = run_ok(runner, ["propagate", "--problem", "retention",
                             "--control", "step", "--out", str(out)])
    for name in ("rho_path.csv", "costate_path.csv", "phi.csv",
                 "c_hamiltonian.csv", "control.csv", "metadata.json"):
        assert (out / name).is_file()
    meta = json.loads((out / "metadata.json").read_text())
    spec = make_retention_problem()
    expected = cost_of_control(spec, step_control(spec.t_f, spec.n_bins))
    assert meta["results"]["cost"] == pytest.approx(expected, abs=1e-12)
    assert meta["results"]["pairing_spread"] < 1e-10
    assert format_real(expected) in result.output
    # CSV texture: LF endings, 17 significant digits survive a round trip
    raw = (out / "phi.csv").read_bytes()
    assert b"\r" not in raw
    first_val = raw.decode().splitlines()[1].split(",")[1]
    assert float(first_val) == float(format_real(float(first_val)))


def test_propagate_constant_and_csv_control(runner, tmp_path):
    a = tmp_path / "a"
    run_ok(runner, ["propagate", "--problem", "retention", "--bins", "20",
                    "--control", "constant:0.25", "--out", str(a)])
    # reuse the written control file as input: byte-identical outputs
    b = tmp_path / "b"
    run_ok(runner, ["propagate", "--problem", "retention", "--bins", "20",
                    "--control", str(a / "control.csv"), "--out", str(b)])
    assert (a / "phi.csv").read_bytes() == (b / "phi.csv").read_bytes()
    assert (a / "control.csv").read_bytes() == (b / "control.csv").read_bytes()


def test_propagate_rejects_garbage(runner, tmp_path):
    r = runner.invoke(main, ["propagate", "--problem", "nope"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["propagate", "--problem", "retention",
                             "--control", "no_such_keyword_or_file"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["propagate", "--problem", "retention",
                             "--bins", "21", "--control", "step"])
    assert r.exit_code == 2  # step needs an even bin count
    # control grid mismatching the problem
    other = tmp_path / "other"
    run_ok(runner, ["propagate", "--problem", "retention", "--bins", "20",
                    "--control", "step", "--out", str(other)])
    r = runner.invoke(main, ["propagate", "--problem", "retention",
                             "--bins", "50",
                             "--control", str(other / "control.csv")])
    assert r.exit_code == 2


def test_config_layering(runner, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "problem": "retention", "n_bins": 30, "control": "step",
        "output_dir": str(tmp_path / "from_cfg"),
    }))
    run_ok(runner, ["propagate", "--config", str(cfg)])
    meta = json.loads((tmp_path / "from_cfg" / "metadata.json").read_text())
    assert meta["problem"]["n_bins"] == 30

    # flags override config keys
    run_ok(runner, ["propagate", "--config", str(cfg), "--bins", "20",
                    "--out", str(tmp_path / "flagged")])
    meta = json.loads((tmp_path / "flagged" / "metadata.json").read_text())
    assert meta["problem"]["n_bins"] == 20

    r = runner.invoke(main, ["propagate", "--config",
                             str(tmp_path / "missing.json")])
    assert r.exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = runner.invoke(main, ["propagate", "--config", str(bad)])
    assert r.exit_code == 2


def test_trajectories_procedure2(runner, tmp_path):
    out = tmp_path / "t2"
    args = ["trajectories", "--problem", "retention", "--bins", "20",
            "--control", "step", "--n", "40", "--seed", "7",
            "--out", str(out)]
    res = run_ok(runner, args)
    assert "procedure 2" in res.output
    assert (out / "phi_stochastic.csv").is_file()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["options"]["master_seed"] == 7
    assert meta["options"]["seed_mode"] == "explicit"
    assert 0.0 <= meta["results"]["phi_within_3stderr_fraction"] <= 1.0

    # same seed: byte-identical; different threads: byte-identical
    rerun = tmp_path / "t2_rerun"
    run_ok(runner, args[:-1] + [str(rerun)])
    threaded = tmp_path / "t2_threads"
    run_ok(runner, args[:-1] + [str(threaded), "--threads", "3"])
    base = (out / "phi_stochastic.csv").read_bytes()
    assert (rerun / "phi_stochastic.csv").read_bytes() == base
    assert (threaded / "phi_stochastic.csv").read_bytes() == base


def test_trajectories_procedure1_outputs(runner, tmp_path):
    out = tmp_path / "t1"
    run_ok(runner, ["trajectories", "--problem", "retention", "--bins", "20",
                    "--control", "step", "--procedure", "1", "--n", "30",
                    "--seed", "3", "--dump-realizations", "--out", str(out)])
    for name in ("rho_estimate.csv", "lambda_estimate.csv",
                 "rho_deterministic.csv", "lambda_deterministic.csv",
                 "phi_stochastic.csv", "realizations_rho.csv",
                 "realizations_lambda.csv", "metadata.json"):
        assert (out / name).is_file()
    rows = (out / "realizations_rho.csv").read_text().splitlines()
    assert rows[0] == "index,seed,dN"
    assert len(rows) == 31
    assert set(rows[1].split(",")[2]) <= {"0", "1"}


def test_trajectories_validation(runner):
    r = runner.invoke(main, ["trajectories", "--problem", "retention",
                             "--control", "step"])
    assert r.exit_code == 2  # n required
    r = runner.invoke(main, ["trajectories", "--problem", "retention",
                             "--control", "step", "--n", "0"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["trajectories", "--problem", "retention",
                             "--control", "step", "--n", "5",
                             "--procedure", "9"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["trajectories", "--problem", "retention",
                             "--control", "step", "--n", "5",
                             "--drift-mode", "leapfrog"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["trajectories", "--problem", "retention",
                             "--control", "step", "--n", "5",
                             "--seed", "sometimes"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["trajectories", "--problem", "retention",
                             "--control", "step", "--n", "5",
                             "--threads", "0"])
    assert r.exit_code == 2


def test_dumped_realizations_match_per_row_replay(runner, tmp_path):
    # 600 realizations span two chunks; every row is what derive_seed and
    # sample_jump_process give for its index.
    out = tmp_path / "dump"
    run_ok(runner, ["trajectories", "--problem", "retention", "--bins", "20",
                    "--control", "step", "--procedure", "1", "--n", "600",
                    "--seed", "2", "--dump-realizations", "--out", str(out)])
    spec = make_retention_problem(20)
    u = step_control(spec.t_f, spec.n_bins)
    for label, domain in (("rho", DOMAIN_RHO), ("lambda", DOMAIN_LAMBDA)):
        lines = ["index,seed,dN"]
        for i in range(600):
            s = derive_seed(2, domain, i)
            jr = sample_jump_process(u, spec.gamma, s)
            lines.append(f"{i},{s},{realization_to_string(jr)}")
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        assert (out / f"realizations_{label}.csv").read_bytes() == expected


def test_negative_seed_is_a_usage_error(runner, tmp_path):
    base = ["--problem", "retention", "--bins", "20"]
    r = runner.invoke(main, ["trajectories"] + base
                      + ["--control", "step", "--n", "5", "--seed", "-1"])
    assert r.exit_code == 2
    assert "non-negative" in r.output
    r = runner.invoke(main, ["optimize"] + base
                      + ["--provider", "stochastic2", "--n", "5",
                         "--iters", "1", "--seed", "-3"])
    assert r.exit_code == 2
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"master_seed": -7}))
    r = runner.invoke(main, ["trajectories", "--config", str(cfg)] + base
                      + ["--control", "step", "--n", "5"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["optimize", "--config", str(cfg)] + base
                      + ["--iters", "1"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["trajectories"] + base
                      + ["--control", "step", "--n", str(2 ** 32)])
    assert r.exit_code == 2


def test_seed_auto_differs(runner, tmp_path):
    seeds = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        run_ok(runner, ["trajectories", "--problem", "retention",
                        "--bins", "20", "--control", "step", "--n", "5",
                        "--seed", "auto", "--out", str(out)])
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["options"]["seed_mode"] == "auto"
        seeds.append(meta["options"]["master_seed"])
    assert seeds[0] != seeds[1]


def test_optimize_deterministic(runner, tmp_path):
    out = tmp_path / "opt"
    res = run_ok(runner, ["optimize", "--problem", "preparation",
                          "--bins", "20", "--iters", "25",
                          "--out", str(out)])
    assert res.output.count("iter ") == 26
    for name in ("iterations.csv", "final_control.csv", "final_phi.csv",
                 "metadata.json"):
        assert (out / name).is_file()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["options"]["provider"] == "deterministic"
    assert meta["results"]["final_cost_det"] < -0.3
    rows = (out / "iterations.csv").read_text().splitlines()
    assert rows[0] == "k,n_realizations,cost_det,cost_stoch,cost_stoch_stderr"
    assert len(rows) == 27
    quiet = run_ok(runner, ["optimize", "--problem", "preparation",
                            "--bins", "20", "--iters", "5", "--quiet",
                            "--out", str(tmp_path / "q")])
    assert "iter " not in quiet.output


def test_optimize_stochastic_schedule(runner, tmp_path):
    out = tmp_path / "opt2"
    run_ok(runner, ["optimize", "--problem", "retention", "--bins", "20",
                    "--provider", "stochastic2", "--schedule", "4x10,3x20",
                    "--seed", "11", "--quiet", "--out", str(out)])
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["options"]["schedule"] == [[4, 10], [3, 20]]
    assert meta["options"]["iterations"] == 7  # defaults to schedule total
    assert "final_cost_stoch" in meta["results"]
    rows = (out / "iterations.csv").read_text().splitlines()[1:]
    counts = [int(r.split(",")[1]) for r in rows]
    assert counts == [10] * 4 + [20] * 4  # final record reuses last n

    r = runner.invoke(main, ["optimize", "--problem", "retention",
                             "--provider", "warp"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["optimize", "--problem", "retention",
                             "--provider", "stochastic2",
                             "--schedule", "10x"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["optimize", "--problem", "retention",
                             "--iters", "0"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["optimize", "--problem", "retention",
                             "--iters", "3", "--eta", "-1"])
    assert r.exit_code == 2


def test_optimize_stochastic_reproducible(runner, tmp_path):
    outs = []
    for sub, threads in (("r1", "1"), ("r2", "4")):
        out = tmp_path / sub
        run_ok(runner, ["optimize", "--problem", "retention", "--bins", "20",
                        "--provider", "stochastic2", "--n", "15",
                        "--iters", "6", "--seed", "21", "--quiet",
                        "--threads", threads, "--out", str(out)])
        outs.append(out)
    for name in ("iterations.csv", "final_control.csv", "final_phi.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_gradcheck_pass_and_breach(runner, tmp_path):
    # the tolerance is calibrated to the default 100-bin grid: the
    # midpoint-convention mismatch against central differences is O(dt^2)
    out = tmp_path / "g"
    res = run_ok(runner, ["gradcheck", "--problem", "retention",
                          "--out", str(out)])
    assert "OK" in res.output
    assert (out / "gradcheck.csv").is_file()
    rows = (out / "gradcheck.csv").read_text().splitlines()
    assert rows[0] == "bin,t,phi,fd,abs_err,rel_err"
    assert len(rows) == 101

    # a huge difference step breaks the quadratic regime: honest failure
    r = runner.invoke(main, ["gradcheck", "--problem", "retention",
                             "--bins", "40", "--delta", "0.5",
                             "--out", str(tmp_path / "g2")])
    assert r.exit_code == 3
    assert "FAIL" in r.output

    r = runner.invoke(main, ["gradcheck", "--problem", "retention",
                             "--delta", "-1"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["gradcheck", "--problem", "retention",
                             "--gamma", "-2"])
    assert r.exit_code == 2


def test_gradcheck_gamma_override(runner, tmp_path):
    out = tmp_path / "g0"
    run_ok(runner, ["gradcheck", "--problem", "retention",
                    "--gamma", "0", "--out", str(out)])
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["problem"]["gamma"] == 0.0
    assert meta["results"]["max_rel_err"] <= meta["options"]["tolerance"]
