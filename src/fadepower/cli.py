"""Command-line front end: solve, closed-form, simulate, sweep.

Problem and policy files use a flat ``key = value`` text format; blank
lines and lines starting with ``#`` are ignored.  Recognized problem
keys: gamma, n, eps_out, rate, r_min, r_max, peak_power_dbw OR
peak_power_w, noise_power, mean_fading_power, and the solver's seed.
Peak power given in dBW is converted as P = 10^(dBW/10).  Policy files
carry eps / rates / optional powers as semicolon-separated vectors plus
the channel keys.

Missing keys fall back to the experiment preset (unit mean fading gain
and noise power, 20 dBW peak power, gamma 0.2, r_min 0.001, r_max at
the peak-power capacity); n, eps_out, and rate must always be given.

Results are emitted as JSON (to --out, or stdout when --out is absent)
with a one-line human summary on the other stream.  ``closed-form`` puts
the paper's N=1 boundary form and variable-rate R_1 grid beside
``fixed_optimum``, the fixed-rate solve of the file's seed with its
certified lower bound.  Sweeps emit CSV with '#'-prefixed comment lines,
one self-describing row per point; on N=1 rows closed_form_avg_power is
that lower bound for the fixed-rate problem and the R_1 grid's power for
the variable-rate one.
A sweep with ``--workers W`` solves its points in W processes: the calling
process plus W-1 worker processes (forked on Linux), each sending its rows
back over a one-way pipe; every process takes every W-th point.  W defaults
to min(8, usable CPUs, points), and ``--workers 1`` starts no worker.  Rows
keep the range's order, so the CSV does not depend on the worker count.
Exit codes: 0 success, 1 malformed input (an unknown flag or key
included), 2 no feasible solution.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, replace

from .annealer import (
    AnnealingSchedule,
    NoFeasibleSolution,
    solve_fixed,
    solve_variable,
)
from .channel import ChannelModel, max_rate
from .closed_form import n1_fixed_solution, n1_region, n1_variable_search
from .policy import Policy, ProblemSpec, make_policy
from .simulator import simulate, validate

_CHANNEL_KEYS = {"noise_power", "mean_fading_power"}
_PROBLEM_KEYS = _CHANNEL_KEYS | {
    "gamma",
    "n",
    "eps_out",
    "rate",
    "r_min",
    "r_max",
    "peak_power_dbw",
    "peak_power_w",
}
_SCHEDULE_KEYS = {"seed"}
_POLICY_KEYS = (_PROBLEM_KEYS - {"n"}) | {"eps", "rates", "powers"}

# experiment preset used when a key is absent (peak 100 W = 20 dBW)
_PRESET_GAMMA = 0.2
_PRESET_R_MIN = 0.001
_PRESET_PEAK_W = 100.0


class SpecFileError(ValueError):
    """Malformed problem/policy/schedule input, with file diagnostics."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are malformed input (exit 1)."""

    def error(self, message):
        raise SpecFileError(f"{self.prog}: {message}")


def _parse_kv_file(path: str, allowed: set[str]) -> dict[str, tuple[int, str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecFileError(f"{path}: {exc.strerror or exc}") from exc
    fields: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecFileError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in allowed:
            raise SpecFileError(f"{path}:{lineno}: unknown key '{key}'")
        if key in fields:
            raise SpecFileError(f"{path}:{lineno}: duplicate key '{key}'")
        if not val:
            raise SpecFileError(f"{path}:{lineno}: field '{key}': empty value")
        fields[key] = (lineno, val)
    return fields


def _conv(path: str, key: str, entry: tuple[int, str], kind):
    lineno, raw = entry
    try:
        return kind(raw)
    except ValueError as exc:
        raise SpecFileError(
            f"{path}:{lineno}: field '{key}': cannot parse {raw!r}"
        ) from exc


def _vector(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(";"))


def _typed_values(fields, path: str) -> dict:
    """Convert raw problem-file fields to typed values (no validation)."""
    vals: dict = {}
    for key, entry in fields.items():
        if key in _SCHEDULE_KEYS or key in {"eps", "rates", "powers"}:
            continue
        kind = int if key == "n" else float
        vals[key] = _conv(path, key, entry, kind)
    if "peak_power_dbw" in vals and "peak_power_w" in vals:
        raise SpecFileError(
            f"{path}: specify only one of peak_power_dbw, peak_power_w"
        )
    if "peak_power_dbw" in vals:
        vals["peak_power_w"] = 10.0 ** (vals.pop("peak_power_dbw") / 10.0)
    return vals


def _build_channel(vals: dict) -> ChannelModel:
    return ChannelModel(
        mean_fading_power=vals.get("mean_fading_power", 1.0),
        noise_power=vals.get("noise_power", 1.0),
    )


def _spec_from_values(vals: dict, path: str) -> ProblemSpec:
    for key in ("n", "eps_out", "rate"):
        if key not in vals:
            raise SpecFileError(f"{path}: missing required key '{key}'")
    channel = _build_channel(vals)
    peak = vals.get("peak_power_w", _PRESET_PEAK_W)
    r_max = vals.get("r_max")
    if r_max is None:
        r_max = max_rate(peak, channel)
    try:
        return ProblemSpec(
            gamma=vals.get("gamma", _PRESET_GAMMA),
            n_states=vals["n"],
            eps_out=vals["eps_out"],
            avg_rate=vals["rate"],
            r_min=vals.get("r_min", _PRESET_R_MIN),
            r_max=r_max,
            peak_power=peak,
            channel=channel,
        )
    except ValueError as exc:
        raise SpecFileError(f"{path}: {exc}") from exc


def _build_schedule(fields, path: str, seed: int | None = None, restarts: int = 1) -> AnnealingSchedule:
    """The first restart's schedule, checked with every later restart's seed.

    seed overrides the file's seed, which defaults to 0.
    """
    if restarts < 1:
        raise SpecFileError("restarts must be >= 1")
    if seed is None:
        seed = _conv(path, "seed", fields["seed"], int) if "seed" in fields else 0
    last = seed + restarts - 1
    try:
        base = AnnealingSchedule(seed=seed)
        AnnealingSchedule(seed=last)
    except ValueError as exc:
        raise SpecFileError(f"{path}: {exc}; the restarts use seeds {seed} to {last}") from exc
    return base


def _spec_echo(spec: ProblemSpec) -> dict:
    return {
        "gamma": spec.gamma,
        "n": spec.n_states,
        "eps_out": spec.eps_out,
        "rate": spec.avg_rate,
        "r_min": spec.r_min,
        "r_max": spec.r_max,
        "peak_power_w": spec.peak_power,
        "noise_power": spec.channel.noise_power,
        "mean_fading_power": spec.channel.mean_fading_power,
    }


def _emit(payload: dict, out: str | None, summary: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(summary)
    else:
        print(text)
        print(summary, file=sys.stderr)


def _run_restarts(solver, spec, base: AnnealingSchedule, restarts: int):
    """Run `restarts` seeded attempts; return (best result, its seed, evals)."""
    best = None
    best_seed = None
    evaluated = 0
    for k in range(restarts):
        sched = replace(base, seed=base.seed + k)
        try:
            res = solver(spec, sched)
        except NoFeasibleSolution as exc:
            evaluated += exc.evaluated_count
            continue
        evaluated += res.evaluated_count
        if best is None or res.best_avg_power < best.best_avg_power:
            best = res
            best_seed = sched.seed
    return best, best_seed, evaluated


def _solve(args, spec: ProblemSpec, base: AnnealingSchedule):
    """Best of the restarts from base: (SolveResult, its seed, None) or (None, None, why).

    why, the exit-2 cause, is the ValueError that proves spec infeasible
    (an empty feasibility window, say), or NoFeasibleSolution when no
    restart found a feasible table.  _build_schedule has checked the seeds.
    """
    solver = solve_fixed if args.problem == "fixed" else solve_variable
    try:
        best, best_seed, evaluated = _run_restarts(solver, spec, base, args.restarts)
    except ValueError as exc:
        return None, None, exc
    if best is None:
        return None, None, NoFeasibleSolution(evaluated)
    return best, best_seed, None


def cmd_solve(args) -> int:
    fields = _parse_kv_file(args.spec_file, _PROBLEM_KEYS | _SCHEDULE_KEYS)
    spec = _spec_from_values(_typed_values(fields, args.spec_file), args.spec_file)
    base = _build_schedule(fields, args.spec_file, args.seed, args.restarts)
    best, best_seed, why = _solve(args, spec, base)
    if why is not None:
        print(why, file=sys.stderr)
        return 2
    payload = {
        "problem": args.problem,
        "spec": _spec_echo(spec),
        "schedule": asdict(base),
        "restarts": args.restarts,
        "seed": best_seed,
        "best_avg_power": best.best_avg_power,
        "lower_bound": best.lower_bound,
        "best_policy": asdict(best.best_policy),
        "accepted_count": best.accepted_count,
        "feasible_count": best.feasible_count,
        "evaluated_count": best.evaluated_count,
    }
    summary = (
        f"{args.problem}: avg power {best.best_avg_power:.6f} W "
        f"(seed {best_seed}, {args.restarts} restart(s))"
    )
    _emit(payload, args.out, summary)
    return 0


def cmd_closed_form(args) -> int:
    if args.grid_points < 2:
        raise SpecFileError("grid_points must be >= 2")
    fields = _parse_kv_file(args.spec_file, _PROBLEM_KEYS | _SCHEDULE_KEYS)
    spec = _spec_from_values(_typed_values(fields, args.spec_file), args.spec_file)
    if spec.n_states != 1:
        raise ValueError("closed form defined only for N=1")
    schedule = _build_schedule(fields, args.spec_file)

    def entry(policy, avg, **extra) -> dict:
        return {"avg_power": float(avg), "policy": asdict(policy), **extra}

    def fixed_optimum() -> dict:
        res = solve_fixed(spec, schedule)
        return entry(res.best_policy, res.best_avg_power, lower_bound=float(res.lower_bound))

    payload: dict = {"spec": _spec_echo(spec), "region": n1_region(spec)}
    parts = [
        ("fixed_boundary", lambda: entry(*n1_fixed_solution(spec))),
        ("fixed_optimum", fixed_optimum),
        ("variable_search", lambda: entry(*n1_variable_search(spec, args.grid_points))),
    ]
    for name, fn in parts:
        try:
            payload[name] = fn()
        except ValueError as exc:  # NoFeasibleSolution included
            payload[name] = {"error": str(exc)}
    if all("error" in payload[name] for name, _ in parts):
        print("no feasible solution found", file=sys.stderr)
        return 2
    bits = [payload["region"]]
    for name, _ in parts:
        entry = payload[name]
        if "avg_power" in entry:
            bits.append(f"{name} {entry['avg_power']:.6f} W")
        else:
            bits.append(f"{name}: {entry['error']}")
    _emit(payload, args.out, "; ".join(bits))
    return 0


def _load_policy(args) -> tuple[Policy, ChannelModel, dict]:
    fields = _parse_kv_file(args.policy_file, _POLICY_KEYS)
    vals = _typed_values(fields, args.policy_file)
    channel = _build_channel(vals)
    for key in ("eps", "rates"):
        if key not in fields:
            raise SpecFileError(f"{args.policy_file}: missing required key '{key}'")
    eps = _conv(args.policy_file, "eps", fields["eps"], _vector)
    rates = _conv(args.policy_file, "rates", fields["rates"], _vector)
    try:
        if "powers" in fields:
            powers = _conv(args.policy_file, "powers", fields["powers"], _vector)
            policy = Policy(eps=eps, rates=rates, powers=powers)
        else:
            policy = make_policy(eps, rates, channel)
    except ValueError as exc:
        raise SpecFileError(f"{args.policy_file}: {exc}") from exc
    for key in ("rates", "powers"):
        if not all(math.isfinite(v) and v >= 0.0 for v in getattr(policy, key)):
            raise SpecFileError(f"{args.policy_file}: {key} must be finite and >= 0")
    if not all(0.0 <= v <= 1.0 for v in policy.eps):  # NaN fails too
        raise SpecFileError(f"{args.policy_file}: eps must lie in [0, 1]")
    return policy, channel, vals


def cmd_simulate(args) -> int:
    policy, channel, vals = _load_policy(args)
    config = {
        "policy": asdict(policy),
        "channel": asdict(channel),
        "slots": args.slots,
        "seed": args.seed,
        "burn_in": args.burn_in,
    }
    if args.validate:
        # assemble the analytic reference spec; the constraint fields are
        # placeholders (validation compares sample vs chain, not vs bounds)
        eps_n = policy.eps[-1]
        rate = vals.get("rate", max(max(policy.rates), _PRESET_R_MIN))
        peak = vals.get("peak_power_w", _PRESET_PEAK_W)
        try:
            spec = ProblemSpec(
                gamma=vals.get("gamma", _PRESET_GAMMA),
                n_states=policy.n_states,
                eps_out=vals.get("eps_out", eps_n if 0.0 < eps_n < 1.0 else 0.5),
                avg_rate=rate,
                r_min=vals.get("r_min", min(_PRESET_R_MIN, rate)),
                r_max=vals.get("r_max", max_rate(peak, channel)),
                peak_power=peak,
                channel=channel,
            )
            record = validate(
                policy, spec, args.slots, args.seed, burn_in=args.burn_in
            )
        except ValueError as exc:
            raise SpecFileError(f"{args.policy_file}: {exc}") from exc
        payload = {
            "config": config,
            "report": asdict(record.report),
            "analytic": {
                "gamma_r": record.analytic_gamma,
                "pi": list(record.analytic_pi),
                "avg_power": record.analytic_avg_power,
                "eps_out": record.analytic_eps_out,
            },
            "z": {
                "gamma": record.z_gamma,
                "occupancy": list(record.z_occupancy),
                "avg_power": record.z_avg_power,
                "eps_out": record.z_eps_out,
                "state_outage": list(record.z_state_outage),
            },
            "max_abs_z": record.max_abs_z,
        }
        report = record.report
        summary = (
            f"simulated {args.slots} slots: loss rate {report.empirical_gamma:.5f}, "
            f"avg power {report.avg_power:.5f} W, max |z| {record.max_abs_z:.2f}"
        )
    else:
        report = simulate(policy, channel, args.slots, args.seed, burn_in=args.burn_in)
        payload = {"config": config, "report": asdict(report)}
        summary = (
            f"simulated {args.slots} slots: loss rate {report.empirical_gamma:.5f}, "
            f"avg power {report.avg_power:.5f} W, violations {report.violations}"
        )
    _emit(payload, args.out, summary)
    return 0


def _parse_range(text: str, axis: str) -> list:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise SpecFileError(f"range {text!r}: expected start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise SpecFileError(f"range {text!r}: cannot parse") from exc
        if step == 0.0:
            raise SpecFileError(f"range {text!r}: step must be nonzero")
        span = (stop - start) / step
        count = int(span + 1e-9) + 1 if span >= 0 else 0
        if count > 1_000_000:
            raise SpecFileError(f"range {text!r}: too many points")
        # trim accumulated float noise so grid points print cleanly
        values = [round(start + i * step, 12) for i in range(count)]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise SpecFileError(f"range {text!r}: cannot parse") from exc
        if len(values) > 1:
            diffs = [b - a for a, b in zip(values, values[1:])]
            if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
                raise SpecFileError(f"range {text!r}: values must be monotone")
    if not values:
        raise SpecFileError(f"range {text!r}: empty sweep range")
    if axis == "n":
        out = []
        for v in values:
            iv = round(v)
            if abs(v - iv) > 1e-9 or iv < 1:
                raise SpecFileError(f"range {text!r}: n values must be integers >= 1")
            out.append(int(iv))
        return out
    return values


_SWEEP_COLUMNS = (
    "axis",
    "axis_value",
    "problem",
    "gamma",
    "n",
    "eps_out",
    "rate",
    "r_min",
    "r_max",
    "peak_power_w",
    "noise_power",
    "mean_fading_power",
    "seed",
    "feasible",
    "best_avg_power",
    "closed_form_avg_power",
    "eps",
    "rates",
    "powers",
    "note",
)


def _join(vec) -> str:
    return ";".join(str(float(v)) for v in vec)


def _sweep_point(args, base_vals: dict, base_sched: AnnealingSchedule, value) -> dict:
    """One sweep row: the base problem with args.axis set to value, solved."""
    vals = dict(base_vals)
    vals[args.axis] = value
    row = {
        "axis": args.axis,
        "axis_value": value,
        "problem": args.problem,
        "seed": base_sched.seed,
        "feasible": 0,
        "best_avg_power": "",
        "closed_form_avg_power": "",
        "eps": "",
        "rates": "",
        "powers": "",
        "note": "",
    }
    try:
        spec = _spec_from_values(vals, args.spec_file)
    except ValueError as exc:
        row["note"] = str(exc)
        for key in ("gamma", "n", "eps_out", "rate", "r_min", "r_max"):
            if key in vals:
                row[key] = vals[key]
        row.setdefault("gamma", _PRESET_GAMMA)
        row["peak_power_w"] = vals.get("peak_power_w", _PRESET_PEAK_W)
        row["noise_power"] = vals.get("noise_power", 1.0)
        row["mean_fading_power"] = vals.get("mean_fading_power", 1.0)
        return row
    row.update(_spec_echo(spec))
    if spec.n_states == 1 and args.problem == "variable":
        try:
            row["closed_form_avg_power"] = float(n1_variable_search(spec)[1])
        except ValueError:
            pass
    best, best_seed, why = _solve(args, spec, base_sched)
    if why is not None:
        no_table = isinstance(why, NoFeasibleSolution)
        row["note"] = "no feasible solution found" if no_table else str(why)
        return row
    if spec.n_states == 1 and args.problem == "fixed":
        # the Lagrangian dual: best_avg_power wherever the pass closes its gap
        row["closed_form_avg_power"] = float(best.lower_bound)
    row["feasible"] = 1
    row["seed"] = best_seed
    row["best_avg_power"] = best.best_avg_power
    row["eps"] = _join(best.best_policy.eps)
    row["rates"] = _join(best.best_policy.rates)
    row["powers"] = _join(best.best_policy.powers)
    return row


def _sweep_share(args, base_vals: dict, base_sched: AnnealingSchedule, values) -> list[dict]:
    """The rows of `values`, solved in order in this process.

    The calling process solves its own share with it, and each of the W-1
    worker processes (forked on Linux) solves its share with it before
    sending its rows back over a one-way pipe (`_sweep_child`).
    """
    return [_sweep_point(args, base_vals, base_sched, v) for v in values]


class _WorkerTraceback(Exception):
    """A sweep worker's traceback text, chained as the cause of its error."""


def _sweep_child(conn, args, base_vals: dict, base_sched: AnnealingSchedule, values) -> None:
    """A sweep worker: solve `values` and send one message over `conn`.

    The message is (True, rows), or (False, exception, traceback text) when
    a point raised.  A module-level function, so that a spawned worker can
    unpickle it.
    """
    try:
        message = (True, _sweep_share(args, base_vals, base_sched, values))
    except Exception as exc:
        import traceback

        message = (False, exc, traceback.format_exc())
    with conn:
        conn.send(message)


def _sweep_workers(requested: int | None, points: int) -> int:
    """Solving processes for a sweep of `points` points.

    The count includes the calling process, which solves its own share
    beside count - 1 worker processes (forked on Linux), each sending its
    rows back over a one-way pipe.  The default is min(8, usable CPUs,
    points).  A requested count is capped at `points`, so that no worker
    is started with an empty share.
    """
    if requested is None:
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        return min(8, usable, points)
    if requested < 1:
        raise SpecFileError("workers must be >= 1")
    return min(requested, points)


def cmd_sweep(args) -> int:
    values = _parse_range(args.range, args.axis)
    fields = _parse_kv_file(args.spec_file, _PROBLEM_KEYS | _SCHEDULE_KEYS)
    base_vals = _typed_values(fields, args.spec_file)
    base_sched = _build_schedule(fields, args.spec_file, args.seed, args.restarts)
    workers = _sweep_workers(args.workers, len(values))
    if workers == 1:
        rows = _sweep_share(args, base_vals, base_sched, values)
    else:
        # imported here, so that importing the cli loads no multiprocessing
        import multiprocessing

        # forked workers inherit the loaded package instead of importing numpy
        ctx = multiprocessing.get_context("fork" if sys.platform.startswith("linux") else None)
        rows = [None] * len(values)
        children = []
        try:
            # worker w solves values[w::workers] while this process solves values[0::workers]
            for w in range(1, workers):
                receiver, sender = ctx.Pipe(duplex=False)
                child = ctx.Process(
                    target=_sweep_child,
                    args=(sender, args, base_vals, base_sched, values[w::workers]),
                )
                child.start()
                # with no other copy of the write end open, a worker that dies unsent reads as EOF
                sender.close()
                children.append((child, receiver))
            rows[0::workers] = _sweep_share(args, base_vals, base_sched, values[0::workers])
        finally:
            # Read each worker's message before joining it, on every exit
            # path: its rows can exceed the pipe buffer, and the worker holds
            # a copy of the read end, so closing ours would not free its send.
            messages = []
            for child, receiver in children:
                with receiver:
                    try:
                        messages.append(receiver.recv())
                    except EOFError:
                        messages.append(None)
                child.join()
        for w, ((child, _), message) in enumerate(zip(children, messages), 1):
            if message is None:
                raise ChildProcessError(
                    f"sweep worker {w} exited with code {child.exitcode} before sending its rows"
                )
            if not message[0]:
                raise message[1] from _WorkerTraceback(message[2])
            rows[w::workers] = message[1]

    stream = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        stream.write(f"# policy sweep over {args.axis} ({len(rows)} points)\n")
        stream.write("# columns: " + ",".join(_SWEEP_COLUMNS) + "\n")
        writer = csv.writer(stream)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row.get(col, "") for col in _SWEEP_COLUMNS])
    finally:
        if args.out:
            stream.close()
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fadepower",
        description="Energy-minimal rate/power policies for a fading link "
        "under average and bursty loss constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "solve", help="search for the cheapest table (structured family, exploration, polish)"
    )
    sp.add_argument("problem", choices=("fixed", "variable"))
    sp.add_argument("spec_file")
    sp.add_argument("--seed", type=int, default=None, help="base RNG seed")
    sp.add_argument("--restarts", type=int, default=1)
    sp.add_argument("--out", help="write result JSON here")
    sp.set_defaults(func=cmd_solve)

    cf = sub.add_parser(
        "closed-form",
        help="N=1 closed forms beside the certified fixed-rate optimum of the file's seed",
    )
    cf.add_argument("spec_file")
    cf.add_argument(
        "--grid-points", dest="grid_points", type=int, default=2001,
        help="R_1 grid points of the variable-rate closed form",
    )
    cf.add_argument("--out")
    cf.set_defaults(func=cmd_closed_form)

    sim = sub.add_parser("simulate", help="Monte-Carlo simulation of a policy")
    sim.add_argument("policy_file")
    sim.add_argument("--slots", type=int, default=100_000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
    sim.add_argument("--validate", action="store_true", help="add analytic z-scores")
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="solve across a parameter range, emit CSV")
    sw.add_argument("axis", choices=("eps_out", "n", "gamma", "rate"))
    sw.add_argument("range", help="start:stop:step or comma-separated values")
    sw.add_argument("spec_file")
    sw.add_argument("--problem", choices=("fixed", "variable"), default="fixed")
    sw.add_argument("--seed", type=int, default=None, help="base RNG seed")
    sw.add_argument("--restarts", type=int, default=1)
    sw.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help="solving processes: this one plus W-1 worker processes (forked on "
        "Linux), each sending its rows back over a one-way pipe (default: "
        "min(8, usable CPUs, points); 1 starts none); the CSV does not depend on it",
    )
    sw.add_argument("--out", help="write CSV here (default: stdout)")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NoFeasibleSolution as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
