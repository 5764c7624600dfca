"""fadepower benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a fadepower checkout (the package is imported from
``src/``; nothing is installed):

    python3 perfbench/run.py --workload solve-grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload sweep-eps --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke --workload simulate-validate --seed 7

The benchmark is one process driving the library as a closed loop: a
single caller makes the next call only after the previous one returned.
A *pass* makes every call of the workload once; passes repeat until
``--seconds`` of calls have run, and every pass makes identical calls
(the inputs depend on ``--seed`` only), so each result is checked to be
bit-identical across passes.

Workloads (why each is here):

* ``solve-grid`` -- ``solve_fixed`` at N = 1, 3, 6, 10 and
  ``solve_variable`` at N = 1, 3 (gamma 0.2, eps_out 0.1, R 1, P_m 100 W,
  default schedule).  The "find me the table" path across burst depths;
  at deep N nearly every draw is rejected.  Fixed N=10 finds no table
  today although one exists; it stays in and counts as failed.
* ``sweep-eps`` -- ``fadepower.cli.main(["sweep", "eps_out",
  "0.02:0.40:0.02", ...])`` on the N=1 fixed problem with 2 workers, in
  this process.  The figure-making path: the cli thread pool, the
  closed-form oracle column and a chain walk that sees ~20% feasible draws.
* ``simulate-validate`` -- ``simulator.validate`` with 10^6 slots on a
  low-loss N=3 table and a bursty N=10 table (short and long renewal
  cycles).  The only workload where the simulator does the work.

Correctness gates run after each call, outside its timing.  A call that
returns no table, or whose output fails a gate, counts as failed; a
returned table that ``evaluate_*`` rejects, a reported power that differs
from the evaluator's, a malformed sweep CSV, a reference table that no
longer evaluates feasible, or results that differ between identical
calls make the run incorrect (``"correct": false``).

The metric names and units are read from BENCHMARK.json at the root.
With ``--trace 0`` the last line reports its end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced, the second half
with spans at every fadepower layer boundary (see spans.py), and the last
line reports its per-layer metrics, per traced pass.  Spans are also
written to perfbench/out/.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads: the sweep runs two solver
# threads, and the benchmark's share of the machine is its own 2 cores.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("solve-grid", "sweep-eps", "simulate-validate")
# Set-ups per run: one in this process, the rest in child processes spread
# evenly over the timed calls.  Set-ups made back to back all see the
# machine's speed of that moment, and their median then varied between
# runs about as much (IQR/median 0.24) as single set-ups do.
SETUP_REPEATS = 7
SOLVE_CASES = (("fixed", 1), ("fixed", 3), ("fixed", 6), ("fixed", 10), ("variable", 1), ("variable", 3))
SOLVE_EPS_OUT = 0.1
# Fixed N=10 keeps the baseline schedule seed, on which it finds no table
# (0 of 2 M draws feasible) although one exists.  Other seeds find one
# about once in 24, which would make ok_share flip between runs.
FIXED_N10_SEED = 1
SWEEP_RANGE = "0.02:0.40:0.02"
SWEEP_POINTS = 20
SWEEP_WORKERS = 2
SIM_SLOTS = 1_000_000
Z_LIMIT = 4.0
# Machine-speed calibration: a fixed kernel that does not touch fadepower
# is timed between calls (at least every CAL_EVERY_S seconds of calls),
# once on one thread and, for the sweep, once as two copies on two
# threads.  Times and rates are scaled by the geometric mean over those
# thread counts of median(kernel time) / CAL_REFERENCE_S[threads], i.e.
# reported at the speed the kernel had on a quiet run of the 2-core
# reference machine.  On that shared machine the speed drifts by 10-30%
# over minutes.  Scaled by the one-thread kernel, solve-grid and
# simulate-validate figures vary (IQR/median over 10 seeds) a third to
# a half as much as raw ones.  The two-worker sweep follows neither
# kernel alone: over 16 runs their geometric mean cut the spread of its
# p50 to 0.05-0.08, against 0.06-0.11 raw or with one kernel.
CAL_REFERENCE_S = {1: 0.040, 2: 0.050}
CAL_EVERY_S = 1.0
# Fixed-rate (R=1) tables for simulate-validate.  lowloss: N=3, 5% loss,
# renewal cycles of about one slot.  bursty: N=10, 49% loss, a tenth of
# all slots spent in the terminal state, cycles of tens of slots.
SIM_TABLES = {
    "lowloss": (0.05, 0.1, 0.1, 0.05),
    "bursty": (0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.8, 0.85, 0.85, 0.9, 0.9),
}


def import_fadepower():
    """Import fadepower from this checkout's src/, never from elsewhere."""
    pkg = SRC / "fadepower"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from a fadepower checkout")
    sys.path.insert(0, str(SRC))
    import fadepower
    import fadepower.cli

    if Path(fadepower.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported fadepower from {fadepower.__file__}, not {pkg}")
    return fadepower


@dataclass
class Inputs:
    fp: object
    np: object
    reference: dict  # case key -> p_ref
    bad_references: list
    seed: int
    spec_defaults: dict

    def seeds(self, pass_index: int) -> list[int]:
        """Seeds of one pass: 0-5 solve-grid cases, 6 sweep, 7-8 simulation tables."""
        state = self.np.random.SeedSequence([self.seed, pass_index]).generate_state(9)
        return [int(w) for w in state]

    def spec(self, n: int, eps_out: float):
        d = self.spec_defaults
        ch = self.fp.ChannelModel(
            mean_fading_power=d["mean_fading_power"], noise_power=d["noise_power"]
        )
        return self.fp.ProblemSpec(
            gamma=d["gamma"], n_states=n, eps_out=eps_out, avg_rate=d["rate"],
            r_min=d["r_min"], r_max=d["r_max"], peak_power=d["peak_power_w"], channel=ch,
        )


def setup(seed: int) -> tuple[float, Inputs]:
    """Import fadepower, load the reference table and re-check every entry.

    The per-pass inputs are derived from the seed when a pass starts
    (microseconds); the set-up is dominated by the imports.
    """
    t0 = time.perf_counter()
    fp = import_fadepower()
    import numpy as np

    data = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    inp = Inputs(fp, np, {}, [], seed, data["spec"])
    for key, case in data["cases"].items():
        sp = inp.spec(case["n"], case["eps_out"])
        policy = fp.make_policy(case["eps"], case["rates"], sp.channel)
        evaluate = fp.evaluate_fixed if case["problem"] == "fixed" else fp.evaluate_variable
        report = evaluate(policy, sp)
        if not report.feasible or not math.isclose(report.avg_power, case["p_ref"], rel_tol=1e-9):
            inp.bad_references.append(key)
        inp.reference[key] = case["p_ref"]
    return time.perf_counter() - t0, inp


def child_setup_seconds(seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------- outcomes


@dataclass
class Outcome:
    """Gate verdict for one call: work units attempted/failed, quality ratios."""

    attempted: int
    failed: int = 0
    incorrect: tuple = ()
    ratios: tuple = ()
    notes: tuple = ()
    fingerprint: object = None


def _evaluates(evaluate, policy, spec, reported: float) -> str | None:
    report = evaluate(policy, spec)
    if not report.feasible:
        return f"evaluator rejects the returned table ({','.join(report.violated)})"
    if not math.isclose(report.avg_power, reported, rel_tol=1e-9):
        return f"reported power {reported!r} != evaluated {report.avg_power!r}"
    return None


def solve_grid(inp: Inputs, pass_index: int):
    fp = inp.fp
    calls = []
    for (problem, n), seed in zip(SOLVE_CASES, inp.seeds(pass_index)):
        if (problem, n) == ("fixed", 10):
            seed = FIXED_N10_SEED
        spec = inp.spec(n, SOLVE_EPS_OUT)
        schedule = fp.AnnealingSchedule(seed=seed)

        def call(problem=problem, spec=spec, schedule=schedule):
            solver = fp.solve_fixed if problem == "fixed" else fp.solve_variable
            try:
                return solver(spec, schedule)
            except fp.NoFeasibleSolution as exc:
                return exc

        def check(result, problem=problem, n=n, spec=spec):
            key = f"{problem}.n{n}" if (problem, n) != ("fixed", 1) else f"fixed.n1.eps{SOLVE_EPS_OUT:.2f}"
            if isinstance(result, fp.NoFeasibleSolution):
                return Outcome(1, 1, notes=(f"{problem}.n{n}: {result}",),
                               fingerprint=("none", result.evaluated_count))
            evaluate = fp.evaluate_fixed if problem == "fixed" else fp.evaluate_variable
            wrong = _evaluates(evaluate, result.best_policy, spec, result.best_avg_power)
            fingerprint = (result.best_avg_power, result.best_policy, result.evaluated_count,
                           result.feasible_count, result.accepted_count)
            if wrong:
                return Outcome(1, 1, incorrect=(f"{problem}.n{n}: {wrong}",), fingerprint=fingerprint)
            return Outcome(1, ratios=(result.best_avg_power / inp.reference[key],),
                           fingerprint=fingerprint)

        calls.append((f"{problem}.n{n}", seed, call, check))
    return calls


def sweep_eps(inp: Inputs, pass_index: int):
    fp = inp.fp
    seed = inp.seeds(pass_index)[6]
    argv = ["sweep", "eps_out", SWEEP_RANGE, str(BENCH / "sweep_n1.txt"), "--problem", "fixed",
            "--workers", str(SWEEP_WORKERS), "--seed", str(seed)]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = fp.cli.main(argv)
        return rc, buf.getvalue()

    def check(result):
        rc, text = result
        if rc != 0:
            return Outcome(SWEEP_POINTS, SWEEP_POINTS, notes=(f"sweep exit code {rc}",), fingerprint=result)
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        keys = [f"fixed.n1.eps{float(r['eps_out']):.2f}" for r in rows]
        if len(rows) != SWEEP_POINTS or any(k not in inp.reference for k in keys):
            return Outcome(SWEEP_POINTS, SWEEP_POINTS, incorrect=(f"sweep CSV has {len(rows)} rows",),
                           fingerprint=result)
        failed, incorrect, ratios, notes = 0, [], [], []
        for row, key in zip(rows, keys):
            if row["feasible"] != "1" or not row["closed_form_avg_power"]:
                failed += 1
                notes.append(f"{key}: feasible={row['feasible']} {row['note']}")
                continue
            vec = lambda text: tuple(float(v) for v in text.split(";"))  # noqa: E731
            policy = fp.Policy(eps=vec(row["eps"]), rates=vec(row["rates"]), powers=vec(row["powers"]))
            power = float(row["best_avg_power"])
            wrong = _evaluates(fp.evaluate_fixed, policy, inp.spec(1, float(row["eps_out"])), power)
            if wrong:
                failed += 1
                incorrect.append(f"{key}: {wrong}")
                continue
            ratios.append(power / inp.reference[key])
        return Outcome(SWEEP_POINTS, failed, tuple(incorrect), tuple(ratios), tuple(notes), result)

    return [("sweep", seed, call, check)]


def chain_z_scores(inp: Inputs, policy, record) -> list[float]:
    """z-scores of loss rate, occupancy and power with the chain's own variance.

    validate() scores these as if slots were independent; on a bursty
    table consecutive slots are strongly correlated and its z-scores are
    too large.  Here the asymptotic variance of a state function f is
    pi.(f~ * (2 Z f~ - f~)), Z = (I - P + 1 pi^T)^-1 the fundamental
    matrix.  A slot is lost exactly when the next state is not 0, so the
    loss rate has the variance of f = 1[state != 0].
    """
    np = inp.np
    p = inp.fp.build_transition_matrix(policy.eps)
    pi = np.asarray(record.analytic_pi)
    k = pi.size
    z_mat = np.linalg.inv(np.eye(k) - p + np.outer(np.ones(k), pi))
    slots = sum(record.report.state_slots)

    def z(empirical, analytic, f):
        f = f - pi @ f
        var = max(float(pi @ (f * (2.0 * (z_mat @ f) - f))), 0.0)
        diff = empirical - analytic
        if diff == 0.0:
            return 0.0
        return diff / math.sqrt(var / slots) if var > 0.0 else math.inf

    rep = record.report
    scores = [
        z(rep.empirical_gamma, record.analytic_gamma, (np.arange(k) != 0).astype(float)),
        z(rep.avg_power, record.analytic_avg_power, np.asarray(policy.powers, dtype=float)),
    ]
    scores += [z(rep.occupancy[j], pi[j], np.eye(k)[j]) for j in range(k)]
    # per-state outage: given the visits, each slot's loss is an independent draw
    scores += [s for s in record.z_state_outage if s is not None]
    return scores


def simulate_validate(inp: Inputs, pass_index: int):
    # The work does not depend on the seed, so every pass repeats pass 0.
    fp = inp.fp
    calls = []
    for (label, eps), seed in zip(SIM_TABLES.items(), inp.seeds(0)[7:9]):
        n = len(eps) - 1
        spec = inp.spec(n, SOLVE_EPS_OUT)
        policy = fp.make_policy(eps, (spec.avg_rate,) * len(eps), spec.channel)

        def call(policy=policy, spec=spec, seed=seed):
            return fp.validate(policy, spec, SIM_SLOTS, seed)

        def check(record, label=label, policy=policy):
            rep = record.report
            fingerprint = (rep.state_slots, rep.state_losses, rep.avg_power)
            if sum(rep.state_slots) != SIM_SLOTS:
                return Outcome(1, 1, incorrect=(f"{label}: counted {sum(rep.state_slots)} slots",),
                               fingerprint=fingerprint)
            worst = max(abs(s) for s in chain_z_scores(inp, policy, record))
            ratio = rep.avg_power / record.analytic_avg_power
            notes = (f"{label}: max |z| {worst:.2f} (validate's own {record.max_abs_z:.2f})",)
            return Outcome(1, int(worst > Z_LIMIT), ratios=(max(ratio, 1.0 / ratio),),
                           notes=notes, fingerprint=fingerprint)

        calls.append((label, seed, call, check))
    return calls


BUILDERS = {"solve-grid": solve_grid, "sweep-eps": sweep_eps, "simulate-validate": simulate_validate}
# workload -> (unit of work, the name work_per_s has on that workload)
WORK = {
    "solve-grid": ("solves", "solves_per_s"),
    "sweep-eps": ("sweep points", "sweep_points_per_s"),
    "simulate-validate": ("simulated slots", "sim_slots_per_s"),
}


# ---------------------------------------------------------------- measurement


@dataclass
class Call:
    label: str
    seconds: float
    outcome: Outcome


def kernel(np) -> None:
    """A fixed numpy batch and Python loop, like the solver and simulator."""
    rng = np.random.default_rng(0)
    for _ in range(4):
        e = np.sort(rng.uniform(1e-6, 0.999, size=(65536, 4)), axis=1)
        np.einsum("ij,ij->i", 1.0 / -np.log1p(-e), np.cumprod(e, axis=1))
    total = 0.0
    for v in rng.random(100_000).tolist():
        if v < 0.5:
            total += v


def calibrate(np, threads: int) -> float:
    """Wall seconds for `threads` copies of the kernel run at once."""
    if threads == 1:
        t = time.perf_counter()
        kernel(np)
        return time.perf_counter() - t
    workers = [threading.Thread(target=kernel, args=(np,)) for _ in range(threads)]
    t = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t


class Runner:
    """Closed-loop passes over a workload's calls, gating every result.

    Pass p takes its seeds from (--seed, p), so a run averages over many
    solver seeds.  Each call of passes() starts again at pass 0, and calls
    whose inputs repeat must give identical results.
    """

    def __init__(self, workload: str, inp: Inputs):
        self.build = functools.partial(BUILDERS[workload], inp)
        self.np = inp.np
        self.cal_threads = (1, SWEEP_WORKERS) if workload == "sweep-eps" else (1,)
        self.calibrations: dict[int, list[float]] = {t: [] for t in self.cal_threads}
        for t in self.cal_threads:
            calibrate(self.np, t)  # warm-up: the first run is slower
        self.seed = inp.seed
        self.first: dict[tuple, object] = {}
        self.nondeterministic: set[str] = set()
        self.setup_times: list[float] = []

    def passes(self, seconds: float, tracer=None, max_passes=None,
               child_setups: int = 0) -> list[list[Call]]:
        """Run passes for `seconds` of calls, timing `child_setups` set-ups between them."""
        done: list[list[Call]] = []
        busy = 0.0
        last_cal = -math.inf
        while not done or (busy < seconds and (max_passes is None or len(done) < max_passes)):
            record = []
            for label, seed, call, check in self.build(len(done)):
                due = (len(self.setup_times) + 0.5) * seconds / child_setups if child_setups else math.inf
                if len(self.setup_times) < child_setups and busy >= due:
                    self.setup_times.append(child_setup_seconds(self.seed))
                if busy - last_cal >= CAL_EVERY_S:
                    for t in self.cal_threads:
                        self.calibrations[t].append(calibrate(self.np, t))
                    last_cal = busy
                root = tracer.open(label, "bench") if tracer else None
                t = time.perf_counter()
                result = call()
                dt = time.perf_counter() - t
                if tracer:
                    tracer.close(root)
                busy += dt
                outcome = check(result)
                if self.first.setdefault((label, seed), outcome.fingerprint) != outcome.fingerprint:
                    self.nondeterministic.add(label)
                record.append(Call(label, dt, outcome))
            done.append(record)
        while len(self.setup_times) < child_setups:
            self.setup_times.append(child_setup_seconds(self.seed))
        return done

    def slowdown(self) -> float:
        """Machine speed against the reference: >1 when it runs slower."""
        return geomean(statistics.median(v) / CAL_REFERENCE_S[t] for t, v in self.calibrations.items())


def tail(values: list[float]) -> tuple[float, float, int, int]:
    """Upper quartile (nearest-rank p75) of the latencies.

    Returns (value, percentile, samples, samples above it).  A higher
    percentile varies too much between runs: the sweep makes 12-14 calls
    a run, and a passing stall of a shared host slows one or two of them;
    in solve-grid the six cases take 0.3-1.2 s each, so a rank that sits
    a fixed number of samples below the top (as "ten beyond it" does)
    moves from one case to another as the pass count changes with machine
    speed.  The upper quartile lies inside one case's band at any count.
    """
    s = sorted(values)
    k = math.ceil(0.75 * len(s)) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s), len(s) - 1 - k


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else math.nan


def end_to_end(workload: str, passes: list[list[Call]], setup_s: float,
               slow: float) -> tuple[dict, list[str]]:
    calls = [c for p in passes for c in p]
    lat = [c.seconds / slow for c in calls]
    attempted = sum(c.outcome.attempted for c in calls)
    failed = sum(c.outcome.failed for c in calls)
    work = sum(SIM_SLOTS if workload == "simulate-validate" else c.outcome.attempted for c in calls)
    tail_s, tail_pct, n, beyond = tail(lat)
    # quality from pass 0, whose seeds depend on --seed alone, so it repeats exactly
    ratio = geomean(r for c in passes[0] for r in c.outcome.ratios)
    metrics = {
        "setup_s": setup_s,
        "work_per_s": work / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail_s,
        "ok_share": (attempted - failed) / attempted,
        "power_ratio": ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = WORK[workload][1]
    raw = f"; wall clock {{:.6g}} at {slow:.3f}x the reference kernel time"
    details = {
        "work_per_s": f"= {named}" + raw.format(metrics["work_per_s"] / slow),
        "op_s.p50": f"median of {n} calls" + raw.format(metrics["op_s.p50"] * slow),
        "op_s.tail": f"p{tail_pct:.1f} of {n} calls, {beyond} beyond it" + raw.format(tail_s * slow),
        "ok_share": f"failed_share {failed}/{attempted} = {failed / attempted:.4f}",
        "setup_s": f"median of {SETUP_REPEATS} set-ups spread over the run, wall clock",
    }
    lines = [f"{k:<44} {v:.6g}  {details.get(k, '')}" for k, v in metrics.items()]
    return metrics, lines


def per_layer(tracer: spans.Tracer, traced: list[list[Call]], untraced: list[list[Call]]) -> dict:
    """Per-layer counts and times per traced pass, from the recorded spans.

    Times are span wall-clock seconds (not calibrated) summed over
    threads, so the sweep's two overlapping workers can exceed the pass
    time.  Gate calls made after each call are traced too.
    """
    n_pass = len(traced)
    all_spans = tracer.spans
    by_id = {s.id: s for s in all_spans}
    self_t = spans.self_times(all_spans)

    def root(s):
        while s.parent is not None:
            s = by_id[s.parent]
        return s

    m: dict[str, float] = {}
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = sum(self_t[s.id] for s in all_spans if s.layer == layer) / n_pass
    for name in ("markov.steady_state_for", "policy.make_policy", "policy.evaluate_fixed",
                 "policy.evaluate_variable", "channel.power_for_outage",
                 "closed_form.n1_fixed_search", "simulator.simulate"):
        hits = [s for s in all_spans if s.name == name]
        m[f"{name}.calls"] = len(hits) / n_pass
        m[f"{name}.s"] = sum(s.end - s.start for s in hits) / n_pass

    solves = [s for s in all_spans if s.layer == "annealer" and "evaluated" in s.info]
    draws = sum(s.info["evaluated"] for s in solves)
    feasible = sum(s.info["feasible"] for s in solves)
    solve_s = sum(s.end - s.start for s in solves)
    m["annealer.draws_per_s"] = draws / solve_s if solve_s else 0.0
    m["annealer.feasible_share"] = feasible / draws if draws else 0.0
    m["annealer.accepted_share"] = sum(s.info["accepted"] for s in solves) / feasible if feasible else 0.0

    # quality from pass 0 (untraced), whose seeds depend on --seed alone
    ratios = {c.label: c.outcome.ratios for c in untraced[0]}
    for problem, n in SOLVE_CASES:
        label = f"{problem}.n{n}"
        mine = [s for s in solves if root(s).name == label]
        ev = sum(s.info["evaluated"] for s in mine)
        m[f"annealer.{label}.s"] = sum(s.end - s.start for s in mine) / n_pass
        # 0 where the case returned no table
        m[f"annealer.{label}.power_ratio"] = ratios[label][0] if ratios.get(label) else 0.0
        m[f"annealer.{label}.feasible_share"] = sum(s.info["feasible"] for s in mine) / ev if ev else 0.0

    mains = [s for s in all_spans if s.name == "cli.main"]
    wall = sum(s.end - s.start for s in mains)
    busy = sum(s.end - s.start for s in all_spans if s.parent in {c.id for c in mains})
    m["cli.parallel_efficiency"] = busy / (SWEEP_WORKERS * wall) if wall else 0.0

    for label in SIM_TABLES:
        sims = [s for s in all_spans if s.name == "simulator.simulate" and root(s).name == label]
        sim_s = sum(s.end - s.start for s in sims)
        m[f"simulator.slots_per_s.{label}"] = SIM_SLOTS * len(sims) / sim_s if sim_s else 0.0

    # both phases start at pass 0, so pass i has the same inputs in each
    pairs = list(zip(untraced, traced))
    m["trace.overhead_pct"] = 100.0 * (
        sum(c.seconds for _, p in pairs for c in p) / sum(c.seconds for p, _ in pairs for c in p) - 1.0
    )
    return m


def environment(seed: int, workload: str, fp, np) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fadepower": getattr(fp, "__version__", "unknown"),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": commit,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="solve-grid")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass (one per phase when tracing) and one set-up")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    setup_s, inp = setup(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics(kind)

    units = WORK[args.workload][0]
    runner = Runner(args.workload, inp)
    max_passes = 1 if args.smoke else None
    if args.trace:
        untraced = runner.passes(args.seconds / 2, max_passes=max_passes)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = runner.passes(args.seconds / 2, tracer, max_passes=max_passes)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        passes = untraced + traced
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([vars(s) for s in tracer.spans]), encoding="utf-8")
        lines = [f"{k:<44} {v:.6g}" for k, v in sorted(metrics.items())]
    else:
        # set-up time is an end-to-end metric only
        passes = runner.passes(args.seconds, max_passes=max_passes,
                               child_setups=0 if args.smoke else SETUP_REPEATS - 1)
        setup_median = statistics.median([setup_s] + runner.setup_times)
        metrics, lines = end_to_end(args.workload, passes, setup_median, runner.slowdown())

    calls_done = [c for p in passes for c in p]
    attempted = sum(c.outcome.attempted for c in calls_done)
    failed = sum(c.outcome.failed for c in calls_done)
    incorrect = sorted({msg for c in calls_done for msg in c.outcome.incorrect})
    incorrect += [f"{label}: results differ between identical calls" for label in sorted(runner.nondeterministic)]
    incorrect += [f"reference {key} no longer evaluates feasible" for key in inp.bad_references]
    notes = sorted({msg for c in passes[0] for msg in c.outcome.notes})

    print(f"# {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{len(calls_done)} calls, work unit: {units}")
    for line in lines:
        print(line)
    for msg in notes:
        print(f"note: {msg}")
    for msg in incorrect:
        print(f"INCORRECT: {msg}")
    print(json.dumps({"env": environment(args.seed, args.workload, inp.fp, inp.np),
                      "setup_s_samples": [setup_s] + runner.setup_times}))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise SystemExit(f"error: no value for declared metrics {missing}")
    print(json.dumps({
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
