import csv
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from fadepower import cli
from fadepower.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

PLATEAU_PBAR = 4.481420117724550
FIXED_PBAR_01 = 5.036825427107048
VAR_PBAR_01 = 4.326287636938557  # variable-rate closed form at r1 = r_min = 0.001

LIGHT_SCHEDULE = "seed = 3\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_fixed_plateau_json(tmp_path, capsys):
    spec = write(
        tmp_path / "spec.txt",
        "gamma = 0.2\nn = 1\neps_out = 0.3\nrate = 1\npeak_power_dbw = 20\n",
    )
    out = tmp_path / "res.json"
    assert main(["solve", "fixed", spec, "--seed", "7", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["best_avg_power"] / PLATEAU_PBAR - 1.0) < 0.02
    assert data["spec"]["peak_power_w"] == pytest.approx(100.0)
    assert len(data["best_policy"]["powers"]) == 2
    assert "avg power" in capsys.readouterr().out


def test_solve_same_seed_identical_files(tmp_path):
    spec = write(
        tmp_path / "spec.txt",
        "n = 1\neps_out = 0.25\nrate = 1\n" + LIGHT_SCHEDULE,
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "fixed", spec, "--out", str(a)]) == 0
    assert main(["solve", "fixed", spec, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_restarts_reports_best(tmp_path):
    spec = write(
        tmp_path / "spec.txt",
        "n = 1\neps_out = 0.2\nrate = 1\n" + LIGHT_SCHEDULE,
    )
    out = tmp_path / "r.json"
    assert main(["solve", "fixed", spec, "--restarts", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["restarts"] == 3
    assert data["seed"] in (3, 4, 5)


def test_solve_rejects_inverted_rate_bounds(tmp_path, capsys):
    spec = write(
        tmp_path / "spec.txt",
        "n = 1\neps_out = 0.1\nrate = 1\nr_min = 2\nr_max = 1\n",
    )
    assert main(["solve", "variable", spec]) == 1
    assert "r_min" in capsys.readouterr().err


@pytest.mark.parametrize("problem", ["fixed", "variable"])
def test_solve_rejects_nan_rate_floor(tmp_path, capsys, problem):
    # NaN passes no comparison, so 0 <= r_min <= r_max must be asked as such
    spec = write(tmp_path / "spec.txt", "n = 1\neps_out = 0.1\nrate = 1\nr_min = nan\n")
    out = tmp_path / "out.json"
    assert main(["solve", problem, spec, "--out", str(out)]) == 1
    assert "r_min" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, field", [("peak_power_w = inf", "peak_power"),
                                         ("noise_power = inf", "noise_power")])
def test_solve_rejects_an_infinite_power_field(tmp_path, capsys, line, field):
    # an infinite peak power once solved (exit 0, bare Infinity tokens in
    # the JSON) and an infinite noise power blamed r_min/r_max
    spec = write(tmp_path / "spec.txt", f"n = 1\neps_out = 0.1\nrate = 1\n{line}\n")
    out = tmp_path / "out.json"
    for problem in ("fixed", "variable"):
        assert main(["solve", problem, spec, "--out", str(out)]) == 1
        assert f"{field} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


def test_solve_writes_the_lower_bound(tmp_path):
    # fixed rate: the Lagrangian dual, within 1e-12 below the power it
    # certifies; variable rate: null
    spec = write(tmp_path / "spec.txt", "n = 3\neps_out = 0.1\nrate = 1\n" + LIGHT_SCHEDULE)
    out = tmp_path / "res.json"
    assert main(["solve", "fixed", spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    bound, best = data["lower_bound"], data["best_avg_power"]
    assert math.isfinite(bound) and bound <= best <= bound * (1.0 + 1e-12)
    assert main(["solve", "variable", spec, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lower_bound"] is None


def test_solve_diagnoses_malformed_lines(tmp_path, capsys):
    spec = write(tmp_path / "spec.txt", "n = 1\nbogus_key = 3\n")
    assert main(["solve", "fixed", spec]) == 1
    err = capsys.readouterr().err
    assert "spec.txt:2" in err and "bogus_key" in err

    spec2 = write(tmp_path / "s2.txt", "n = 1\neps_out = abc\nrate = 1\n")
    assert main(["solve", "fixed", spec2]) == 1
    err = capsys.readouterr().err
    assert "s2.txt:2" in err and "eps_out" in err

    spec3 = write(tmp_path / "s3.txt", "n = 1\nrate = 1\n")
    assert main(["solve", "fixed", spec3]) == 1
    assert "eps_out" in capsys.readouterr().err


def test_solve_rejects_removed_rate_inner_key(tmp_path, capsys):
    spec = write(
        tmp_path / "spec.txt",
        "n = 1\neps_out = 0.1\nrate = 1\nrate_inner = 20\n",
    )
    assert main(["solve", "variable", spec]) == 1
    err = capsys.readouterr().err
    assert "spec.txt:4" in err and "unknown key 'rate_inner'" in err


def test_solve_rejects_unbounded_draw_budget(tmp_path, capsys):
    # no option sets a draw budget any more: the cooling-schedule flags and
    # keys that did are unknown, and unknown input is malformed (exit 1)
    spec = write(tmp_path / "spec.txt", "n = 1\neps_out = 0.1\nrate = 1\n")
    assert main(["solve", "fixed", spec, "--t-min", "1e-12"]) == 1
    assert "unrecognized arguments: --t-min" in capsys.readouterr().err
    assert main(["sweep", "eps_out", "0.1,0.2", spec, "--outer-per-temp", "9"]) == 1
    assert "unrecognized arguments: --outer-per-temp" in capsys.readouterr().err
    keyed = write(tmp_path / "keyed.txt", "n = 1\neps_out = 0.1\nrate = 1\nt0 = 5\n")
    assert main(["solve", "fixed", keyed]) == 1
    assert "keyed.txt:4" in capsys.readouterr().err
    assert main(["solve", "bogus", spec]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_solve_empty_feasibility_window_exit_two(tmp_path, capsys):
    spec = write(
        tmp_path / "spec.txt",
        "n = 1\neps_out = 0.02\nrate = 1\npeak_power_w = 5\n" + LIGHT_SCHEDULE,
    )
    assert main(["solve", "fixed", spec]) == 2
    assert "feasibility window empty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["solve", "fixed"], ["sweep", "eps_out", "0.1,0.2"]], ids=["solve", "sweep"]
)
def test_restart_seeds_past_64_bits_are_malformed(tmp_path, capsys, command):
    # the k-th restart runs seed + k: a last seed past 2^64 - 1 is malformed
    # input (exit 1), although the base seed alone solves
    spec = write(tmp_path / "spec.txt", "n = 1\neps_out = 0.1\nrate = 1\n")
    out = tmp_path / "out"
    seed = ["--seed", str(2**64 - 1), "--out", str(out)]
    assert main([*command, spec, *seed, "--restarts", "2"]) == 1
    assert "seed must fit in 64 unsigned bits" in capsys.readouterr().err
    assert not out.exists()
    assert main([*command, spec, *seed]) == 0


def test_solve_fixed_deep_burst_budget(tmp_path):
    spec = write(tmp_path / "spec.txt", "gamma = 0.2\nn = 10\neps_out = 0.1\nrate = 1\n")
    out = tmp_path / "deep.json"
    assert main(["solve", "fixed", spec, "--seed", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["best_policy"]["eps"]) == 11
    assert abs(data["best_avg_power"] / PLATEAU_PBAR - 1.0) < 1e-3


def test_solve_no_feasible_candidates_exit_two(tmp_path, capsys):
    spec = write(
        tmp_path / "spec.txt",
        "n = 1\ngamma = 1e-9\neps_out = 0.9\nrate = 6.5\n" + LIGHT_SCHEDULE,
    )
    assert main(["solve", "variable", spec]) == 2
    assert "no feasible solution" in capsys.readouterr().err


def test_solve_certified_infeasible_exit_two(tmp_path, capsys):
    # the outage at peak power, 0.3, lies above gamma: every loss rate is at
    # least 0.3, so the solver reports no solution without drawing
    spec = write(
        tmp_path / "spec.txt",
        f"gamma = 0.26\nn = 3\neps_out = 0.35\nrate = 1\npeak_power_w = {-1.0 / math.log(0.7)!r}\n",
    )
    assert main(["solve", "fixed", spec]) == 2
    assert "after 0 candidate evaluations" in capsys.readouterr().err


def test_closed_form_reference_values(tmp_path):
    spec = write(tmp_path / "cf.txt", "gamma = 0.2\nn = 1\neps_out = 0.1\nrate = 1\n")
    out = tmp_path / "cf.json"
    assert main(["closed-form", spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["region"] == "bursty packet loss dominant"
    assert data["fixed_boundary"]["avg_power"] == pytest.approx(FIXED_PBAR_01, rel=1e-12)
    assert data["fixed_optimum"]["avg_power"] == pytest.approx(FIXED_PBAR_01, rel=1e-12)
    assert data["variable_search"]["avg_power"] < data["fixed_boundary"]["avg_power"]
    assert "fixed_search" not in data
    # at gamma 0.65 a binding loss budget with state 1 at eps_out needs
    # eps_0 = 1.3, so both closed forms fail; the fixed-rate optimum puts
    # state 0 at the guard band and is certified by its lower bound
    spec = write(tmp_path / "cf.txt", "gamma = 0.65\nn = 1\neps_out = 0.3\nrate = 1\n")
    assert main(["closed-form", spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["fixed_boundary"] == {"error": "infeasible gamma/eps pair"}
    assert data["variable_search"] == {"error": "infeasible gamma/eps pair"}
    optimum = data["fixed_optimum"]
    assert optimum["avg_power"] == pytest.approx(1.6790234217, abs=1e-9)
    assert optimum["lower_bound"] == pytest.approx(optimum["avg_power"], rel=1e-12)
    assert optimum["lower_bound"] <= optimum["avg_power"]


def test_closed_form_fixed_optimum_is_the_solve_of_the_files_seed(tmp_path, monkeypatch):
    seeds = []
    solve_fixed = cli.solve_fixed

    def recording_solve_fixed(spec, schedule):
        seeds.append(schedule.seed)
        return solve_fixed(spec, schedule)

    monkeypatch.setattr(cli, "solve_fixed", recording_solve_fixed)
    text = "gamma = 0.65\nn = 1\neps_out = 0.3\nrate = 1\n"
    cf, res = tmp_path / "cf.json", tmp_path / "res.json"
    for seed_line, seed in (("", 0), ("seed = 5\n", 5)):
        spec = write(tmp_path / "spec.txt", text + seed_line)
        assert main(["closed-form", spec, "--out", str(cf)]) == 0
        assert main(["solve", "fixed", spec, "--out", str(res)]) == 0
        assert seeds == [seed, seed]
        seeds.clear()
        optimum, solved = json.loads(cf.read_text())["fixed_optimum"], json.loads(res.read_text())
        assert optimum == {
            "avg_power": solved["best_avg_power"],
            "lower_bound": solved["lower_bound"],
            "policy": solved["best_policy"],
        }
    spec = write(tmp_path / "spec.txt", text + f"seed = {2**64}\n")
    assert main(["closed-form", spec]) == 1


def test_closed_form_boundary_point(tmp_path):
    spec = write(tmp_path / "cf.txt", "gamma = 0.2\nn = 1\neps_out = 0.2\nrate = 1\n")
    out = tmp_path / "cf.json"
    assert main(["closed-form", spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["fixed_boundary"]["avg_power"] == pytest.approx(PLATEAU_PBAR, rel=1e-9)


def test_closed_form_rejects_larger_chain(tmp_path, capsys):
    spec = write(tmp_path / "cf.txt", "n = 2\neps_out = 0.1\nrate = 1\n")
    assert main(["closed-form", spec]) == 1
    assert "closed form defined only for N=1" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["1", "-5"])
def test_closed_form_rejects_fewer_than_two_grid_points(tmp_path, capsys, points):
    spec = write(tmp_path / "cf.txt", "n = 1\neps_out = 0.1\nrate = 1\n")
    # the water fill needs no grid, so --grid-points is an unknown flag at any value
    assert main(["closed-form", spec, "--grid-points", points]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: --grid-points {points}" in err


def test_closed_form_variable_search_is_exact_and_takes_no_grid_option(tmp_path, capsys):
    spec = write(tmp_path / "cf.txt", "n = 1\neps_out = 0.1\nrate = 1\n")
    assert main(["closed-form", spec, "--grid-points", "4001"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --grid-points 4001" in err
    out_file = tmp_path / "cf.json"
    assert main(["closed-form", spec, "--out", str(out_file)]) == 0
    data = json.loads(out_file.read_text())["variable_search"]
    assert data["avg_power"] == pytest.approx(VAR_PBAR_01, rel=1e-9)
    assert data["policy"]["rates"][1] == pytest.approx(0.001, abs=1e-12)


def test_closed_form_partial_results_when_peak_binds(tmp_path):
    spec = write(
        tmp_path / "cf.txt",
        "n = 1\neps_out = 0.01\nrate = 1\npeak_power_w = 5\n",
    )
    out = tmp_path / "cf.json"
    assert main(["closed-form", spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["fixed_boundary"]["error"] == "peak power infeasible"
    assert data["fixed_optimum"]["error"] == "feasibility window empty"
    assert "avg_power" in data["variable_search"]


def test_closed_form_fully_infeasible_exit_two(tmp_path, capsys):
    spec = write(
        tmp_path / "cf.txt",
        "n = 1\neps_out = 0.01\nrate = 1\npeak_power_w = 1\n",
    )
    assert main(["closed-form", spec]) == 2
    assert "no feasible solution" in capsys.readouterr().err


def test_simulate_report_json(tmp_path):
    pol = write(tmp_path / "pol.txt", "eps = 0.225;0.1\nrates = 1;1\n")
    out = tmp_path / "sim.json"
    assert main(["simulate", pol, "--slots", "50000", "--seed", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    rep = data["report"]
    assert abs(rep["empirical_gamma"] - 0.2) < 0.01
    assert rep["state_slots"][0] + rep["state_slots"][1] == 50000
    assert data["config"]["slots"] == 50000


def test_simulate_validate_adds_scores(tmp_path):
    pol = write(tmp_path / "pol.txt", "eps = 0.225;0.1\nrates = 1;1\n")
    out = tmp_path / "sim.json"
    assert main(
        ["simulate", pol, "--slots", "50000", "--seed", "2", "--validate", "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert data["max_abs_z"] < 4.0
    assert data["analytic"]["gamma_r"] == pytest.approx(0.2, abs=1e-12)


def test_simulate_rejects_malformed_policy(tmp_path, capsys):
    pol = write(tmp_path / "pol.txt", "eps = 0.225;0.1\nrates = 1\n")
    assert main(["simulate", pol]) == 1
    capsys.readouterr()
    pol2 = write(tmp_path / "p2.txt", "rates = 1;1\n")
    assert main(["simulate", pol2]) == 1
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param("rates = 1;1\npowers = -5;3\n", id="negative_power"),
        pytest.param("rates = 1;1\npowers = 5;nan\n", id="nan_power"),
        pytest.param("rates = 1;1\npowers = 5;inf\n", id="inf_power"),
        pytest.param("rates = -1;1\npowers = 5;3\n", id="negative_rate"),
        pytest.param("rates = nan;1\n", id="nan_rate"),
        pytest.param("rates = inf;1\npowers = 5;3\n", id="inf_rate"),
    ],
)
def test_simulate_rejects_negative_or_nonfinite_power_or_rate(tmp_path, capsys, fields):
    pol = write(tmp_path / "pol.txt", "eps = 0.225;0.1\n" + fields)
    assert main(["simulate", pol, "--slots", "100"]) == 1
    err = capsys.readouterr().err
    assert "rate" in err or "power" in err


@pytest.mark.parametrize("flags", [[], ["--validate"]], ids=["plain", "validate"])
def test_simulate_rejects_nan_outages(tmp_path, capsys, flags):
    pol = write(tmp_path / "pol.txt", "eps = nan;0.1\nrates = 1;1\npowers = 3;4\n")
    assert main(["simulate", pol, "--slots", "100", *flags]) == 1
    assert "eps" in capsys.readouterr().err


def test_sweep_csv_contract(tmp_path):
    spec = write(
        tmp_path / "spec.txt",
        "gamma = 0.2\nn = 1\nrate = 1\neps_out = 0.1\n" + LIGHT_SCHEDULE,
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "eps_out", "0.1:0.3:0.1", spec, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("#")
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    hdr, data = rows[0], rows[1:]
    assert len(data) == 3
    av = hdr.index("axis_value")
    feas = hdr.index("feasible")
    cf = hdr.index("closed_form_avg_power")
    pw = hdr.index("powers")
    assert [r[av] for r in data] == ["0.1", "0.2", "0.3"]
    assert not {"t0", "c_sa", "t_min", "outer_per_temp"} & set(hdr)
    assert all(r[feas] == "1" for r in data)
    assert all(float(r[cf]) > 0 for r in data)
    assert all(";" in r[pw] for r in data)
    # rerun reproduces the same bytes
    out2 = tmp_path / "sweep2.csv"
    assert main(["sweep", "eps_out", "0.1:0.3:0.1", spec, "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    # on a fixed-rate N=1 row the column is the solve's certified lower bound:
    # below the binding-budget 12.746 W at eps_out 0.02, and filled at gamma
    # 0.9, where a binding loss budget would need eps_0 above 1
    best = hdr.index("best_avg_power")
    for axis, values in (("eps_out", "0.02,0.1"), ("gamma", "0.9,0.95")):
        assert main(["sweep", axis, values, spec, "--problem", "fixed", "--out", str(out2)]) == 0
        data += list(csv.reader(line for line in out2.read_text().splitlines() if not line.startswith("#")))[1:]
    assert len(data) == 7
    for r in data:
        assert float(r[cf]) <= float(r[best]) <= float(r[cf]) * (1.0 + 1e-12), r


def test_sweep_csv_independent_of_workers(tmp_path):
    sweeps = {
        # the figure sweep: 20 eps_out points of the fixed N=1 problem
        "figure": (
            "gamma = 0.2\nn = 1\neps_out = 0.1\nrate = 1\n",
            ["eps_out", "0.02:0.40:0.02"],
            "(20 points)",
        ),
        # an empty feasibility window, a solved point and a malformed eps_out
        "rows without tables": (
            "n = 1\nrate = 1\neps_out = 0.1\npeak_power_w = 5\n",
            ["eps_out", "0.02,0.3,1.5"],
            "eps_out must lie in (0, 1)",
        ),
        "variable n": (
            "gamma = 0.2\nrate = 1\neps_out = 0.3\n",
            ["n", "1,2,3", "--problem", "variable"],
            "(3 points)",
        ),
    }
    for name, (text, sweep, expect) in sweeps.items():
        spec = write(tmp_path / "spec.txt", text)
        outs = []
        # 3 is this process plus two workers; the 20-point sweep splits 7/7/6
        for workers in ("1", "2", "3"):
            outs.append(tmp_path / f"w{workers}.csv")
            argv = ["sweep", *sweep[:2], spec, *sweep[2:], "--workers", workers]
            assert main([*argv, "--seed", "1", "--out", str(outs[-1])]) == 0
            # every worker is joined when main returns
            assert multiprocessing.active_children() == []
        assert expect in outs[0].read_text(), name
        for out in outs[1:]:
            assert out.read_bytes() == outs[0].read_bytes(), (name, out.name)


def test_sweep_error_in_callers_share_joins_the_pool(tmp_path, monkeypatch):
    from multiprocessing.process import BaseProcess

    spec = write(tmp_path / "spec.txt", "gamma = 0.2\nn = 1\nrate = 1\neps_out = 0.1\n" + LIGHT_SCHEDULE)
    events = []
    solve_point = cli._sweep_point

    def failing_point(args, base_vals, base_sched, value):
        if value == 0.1:  # values[0::2]: this process's share, not the worker's
            events.append("raise")
            raise RuntimeError("point failed")
        return solve_point(args, base_vals, base_sched, value)

    join = BaseProcess.join

    def recording_join(self, *a, **kw):
        join(self, *a, **kw)
        events.append(("join", self.exitcode))

    monkeypatch.setattr(cli, "_sweep_point", failing_point)
    monkeypatch.setattr(BaseProcess, "join", recording_join)
    with pytest.raises(RuntimeError, match="point failed"):
        main(["sweep", "eps_out", "0.1,0.2,0.3", spec, "--workers", "2", "--out", str(tmp_path / "s.csv")])
    # the one worker had finished its share and been joined before the error left main
    assert events == ["raise", ("join", 0)]
    assert multiprocessing.active_children() == []


# these tests patch the point function that a worker runs, which only a forked worker inherits
forked_workers = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sweep workers fork only on Linux")


@forked_workers
def test_sweep_worker_exception_is_raised_after_the_callers_share(tmp_path, monkeypatch):
    spec = write(tmp_path / "spec.txt", "gamma = 0.2\nn = 1\nrate = 1\neps_out = 0.1\n" + LIGHT_SCHEDULE)
    solved = []  # appended to in this process only: a forked worker keeps its own copy
    solve_point = cli._sweep_point

    def failing_point(args, base_vals, base_sched, value):
        if value == 0.2:  # values[1::2]: the worker's share
            raise RuntimeError("point failed")
        solved.append(value)
        return solve_point(args, base_vals, base_sched, value)

    monkeypatch.setattr(cli, "_sweep_point", failing_point)
    with pytest.raises(RuntimeError, match="^point failed$") as info:
        main(["sweep", "eps_out", "0.1,0.2,0.3", spec, "--workers", "2", "--out", str(tmp_path / "s.csv")])
    assert solved == [0.1, 0.3]
    # the worker's traceback text is the cause, as a process pool's would be
    cause = info.value.__cause__
    assert isinstance(cause, cli._WorkerTraceback)
    assert "Traceback" in str(cause) and "failing_point" in str(cause)
    assert "RuntimeError: point failed" in str(cause)
    assert not (tmp_path / "s.csv").exists()
    assert multiprocessing.active_children() == []


@forked_workers
def test_sweep_worker_crash_exits_1(tmp_path, monkeypatch, capsys):
    spec = write(tmp_path / "spec.txt", "gamma = 0.2\nn = 1\nrate = 1\neps_out = 0.1\n" + LIGHT_SCHEDULE)
    solve_point = cli._sweep_point

    def crashing_point(args, base_vals, base_sched, value):
        if value == 0.3:  # values[2::3]: the second worker's share
            os._exit(3)
        return solve_point(args, base_vals, base_sched, value)

    monkeypatch.setattr(cli, "_sweep_point", crashing_point)
    argv = ["sweep", "eps_out", "0.1,0.2,0.3", spec, "--workers", "3", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sweep worker 2 exited with code 3" in err, err
    assert not (tmp_path / "s.csv").exists()
    assert multiprocessing.active_children() == []


# A worker's rows over the 64 KiB pipe buffer while the caller's own share
# fails: the worker blocks in its send until the caller reads the message,
# so a caller that closed its read end and joined would wait forever.
_BIG_ROWS_SCRIPT = """
import json, multiprocessing, sys
from fadepower import cli

events = []
solve_point = cli._sweep_point

def point(args, base_vals, base_sched, value):
    if value == 0.1:  # values[0::2]: the caller's share
        raise RuntimeError("point failed")
    return {**solve_point(args, base_vals, base_sched, value), "note": "x" * 200_000}

join = multiprocessing.process.BaseProcess.join

def recording_join(self, *a, **kw):
    join(self, *a, **kw)
    events.append(self.exitcode)

cli._sweep_point = point
multiprocessing.process.BaseProcess.join = recording_join
try:
    cli.main(["sweep", "eps_out", "0.1,0.2,0.3", sys.argv[1], "--workers", "2", "--out", sys.argv[2]])
except RuntimeError as exc:
    events.append(str(exc))
events.append(len(multiprocessing.active_children()))
print(json.dumps(events))
"""


@forked_workers
def test_sweep_reads_big_worker_rows_before_joining(tmp_path):
    spec = write(tmp_path / "spec.txt", "gamma = 0.2\nn = 1\nrate = 1\neps_out = 0.1\n" + LIGHT_SCHEDULE)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _BIG_ROWS_SCRIPT, spec, str(tmp_path / "s.csv")]
    # a session of its own, so that a hung run's worker is killed with it
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the sweep hung with a worker's rows over the pipe buffer")
    assert proc.returncode == 0
    # the worker was joined with exit code 0, then the caller's error left main
    assert json.loads(out) == [0, "point failed", 0]
    with pytest.raises(ProcessLookupError):  # no process of the run's session is left
        os.killpg(proc.pid, 0)


def test_sweep_worker_count(monkeypatch):
    # the default counts the CPUs this process may run on, not the host's
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._sweep_workers(None, 20) == 3
    assert cli._sweep_workers(None, 1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._sweep_workers(None, 20) == 8
    assert cli._sweep_workers(None, 5) == 5
    # a requested count is capped at the number of points
    assert cli._sweep_workers(1000, 3) == 3
    assert cli._sweep_workers(2, 20) == 2
    with pytest.raises(cli.SpecFileError, match="workers must be >= 1"):
        cli._sweep_workers(0, 20)


def test_importing_the_cli_loads_no_multiprocessing(tmp_path):
    spec = write(tmp_path / "spec.txt", "gamma = 0.2\nn = 1\nrate = 1\neps_out = 0.1\n" + LIGHT_SCHEDULE)
    code = (
        "import sys, fadepower.cli; assert 'multiprocessing' not in sys.modules\n"
        # a sweep's workers are plain processes, with no executor behind them
        f"assert fadepower.cli.main(['sweep', 'eps_out', '0.1,0.2', {spec!r}, '--workers', '2',"
        f" '--out', {str(tmp_path / 's.csv')!r}]) == 0\n"
        "assert 'multiprocessing' in sys.modules and 'concurrent.futures' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_sweep_axis_n(tmp_path):
    spec = write(
        tmp_path / "spec.txt",
        "gamma = 0.2\nrate = 1\neps_out = 0.3\n" + LIGHT_SCHEDULE,
    )
    out = tmp_path / "n.csv"
    assert main(["sweep", "n", "1,2", spec, "--out", str(out)]) == 0
    rows = [
        r
        for r in csv.reader(out.read_text().splitlines())
        if r and not r[0].startswith("#")
    ]
    hdr, data = rows[0], rows[1:]
    ncol = hdr.index("n")
    cf = hdr.index("closed_form_avg_power")
    assert [r[ncol] for r in data] == ["1", "2"]
    assert data[0][cf] != "" and data[1][cf] == ""


def test_sweep_records_infeasible_points(tmp_path):
    spec = write(
        tmp_path / "spec.txt",
        "n = 1\nrate = 1\neps_out = 0.1\npeak_power_w = 5\n" + LIGHT_SCHEDULE,
    )
    out = tmp_path / "s.csv"
    assert main(["sweep", "eps_out", "0.02,0.3", spec, "--out", str(out)]) == 0
    rows = [
        r
        for r in csv.reader(out.read_text().splitlines())
        if r and not r[0].startswith("#")
    ]
    hdr, data = rows[0], rows[1:]
    feas = hdr.index("feasible")
    note = hdr.index("note")
    assert data[0][feas] == "0" and "feasibility window empty" in data[0][note]
    assert data[1][feas] == "1"


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    spec = write(tmp_path / "spec.txt", "n = 1\nrate = 1\neps_out = 0.1\n")
    assert main(["sweep", "eps_out", "0.4:0.1:0.05", spec]) == 1
    capsys.readouterr()
    assert main(["sweep", "eps_out", "0.1,0.3,0.2", spec]) == 1
    capsys.readouterr()
    assert main(["sweep", "n", "1.5,2", spec]) == 1
    assert "integers" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    spec = write(tmp_path / "spec.txt", "n = 1\nrate = 1\neps_out = 0.1\n")
    assert main(["sweep", "eps_out", "0.1,0.2", spec, "--workers", workers]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
