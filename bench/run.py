"""Benchmark of the altring command line, driven in-process.

    python3 bench/run.py --workload analysis|maps --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from ``src/`` next to this
directory, so a plain checkout is enough and nothing is installed.  One
closed-loop client issues the workload's commands back to back through
``altring.cli.main``.  The command list is repeated in rounds, each on fresh
seeded inputs (see workloads.py), until ``--seconds`` of command time have
run; the first round always completes.  Every command's output is checked by
its gate.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced.  A command's latency is the mean over
every run of it (a round may run a cheap command several times, each on its
own copy):

  setup_s        median of fresh-interpreter ``import altring.cli`` starts,
                 spread evenly over the measured time
  wall_s         sum of the command latencies: one pass over the commands
  cmd_max_s      the largest command latency
  cmd_geomean_s  geometric mean of the command latencies
  peak_rss_mb    ru_maxrss of this process
  ops_ok_ratio   commands that exited 0 and passed their gate / attempted

Latencies are averaged rather than taken at their median: a command's cost
depends on the seeded copy it gets (a backtracking search visits 10x more
nodes on some bases than on others), and the run estimates the expected
cost over copies; medians are taken across runs.

With ``--trace 1`` the metrics are the per-layer ones (see spans.py): the
warm-up commands (every command kind once, on tiny rings) and the first
round are run untraced and then again, on the same inputs, traced; the
difference of the two wall times is ``trace.overhead_s``.  Tracing the
warm-up too gives every layer a measured, nonzero time on both workloads.

Per-command records (exit code, seconds, sha256 of the output, gate
problems) and, when tracing, the spans are written to ``.bench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench-out"
WORKLOADS = ("analysis", "maps")
SETUP_STARTS = 15
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_max_s": "s",
    "cmd_geomean_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "ratio",
}


def import_program():
    """Import altring from this checkout's src/, and only from there."""
    if not (SRC / "altring" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'altring'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import altring.cli

    if Path(altring.__file__).resolve().parent != SRC / "altring":
        raise SystemExit(f"error: altring imported from {altring.__file__}, not {SRC}")
    return altring


def setup_start() -> float:
    """Wall time of one fresh interpreter importing altring.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import altring.cli"], env=env, cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def invoke(main, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="altring", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an internal error is a failed command, not a crash
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Runs rounds of one workload and keeps every command's record."""

    def __init__(self, altring, workload: str, seed: int, workdir: str):
        import workloads

        self.build_round = workloads.build_round
        self.altring = altring
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.records: list[dict] = []
        self.setup_times: list[float] = []

    def round(self, rnd: int, tracer=None, workload: str | None = None,
              after=None) -> list[tuple[str, float]]:
        """Run round ``rnd``; returns (name, seconds) of each command run.

        Input generation, gates and ``after(seconds)`` run outside the timed
        region; ``after`` is called after each command and ends the round
        early when it returns true."""
        workload = workload or self.workload
        directory = os.path.join(self.workdir, f"{workload}-r{rnd}")
        os.makedirs(directory)
        commands = self.build_round(workload, self.seed, rnd, directory)
        seconds = []
        for slot, cmd in enumerate(commands):
            if tracer is None:
                t0 = time.perf_counter()
                code, out, err = invoke(self.altring.cli.main, cmd.argv)
                dt = time.perf_counter() - t0
            else:
                tracer.install(self.altring)
                try:
                    t0 = time.perf_counter()
                    code, out, err = tracer.run_command(
                        invoke, self.altring.cli.main, cmd.argv)
                    dt = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
            problems = self.check(cmd, code, out, err)
            self.records.append({
                "workload": workload, "round": rnd, "slot": slot, "name": cmd.name,
                "traced": tracer is not None, "exit": code, "seconds": dt,
                "sha256": hashlib.sha256(out.encode()).hexdigest(), "problems": problems,
            })
            if problems:
                print(f"gate failed: {cmd.name} (round {rnd}): " + "; ".join(problems),
                      file=sys.stderr)
            seconds.append((cmd.name, dt))
            if after is not None and after(dt):
                break
        shutil.rmtree(directory)
        return seconds

    @staticmethod
    def check(cmd, code: int, out: str, err: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {err.strip()[-500:]}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        try:
            return cmd.gate(doc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"report lacks an expected field: {exc!r}"]

    def warmup(self) -> None:
        """Every command kind once on tiny rings, so that lazy imports and
        first-call costs are paid before timing; gated but not timed."""
        self.round(0, workload="warmup")

    def rounds(self, budget: float) -> list[tuple[str, float]]:
        """Rounds until ``budget`` seconds of commands have run; the first
        round always completes, a later one stops where the budget ends.
        Set-up starts are interleaved, one per budget / SETUP_STARTS."""
        out: list[tuple[str, float]] = []
        spent, done = 0.0, 0

        def after(dt: float) -> bool:
            nonlocal spent
            spent += dt
            if len(self.setup_times) < spent * SETUP_STARTS / budget:
                self.setup_times.append(setup_start())
            return done > 0 and spent >= budget

        while not done or spent < budget:
            out += self.round(done, after=after)
            done += 1
        while len(self.setup_times) < SETUP_STARTS:
            self.setup_times.append(setup_start())
        return out

    def counts(self) -> tuple[int, int]:
        return len(self.records), sum(1 for r in self.records if r["problems"])


def e2e_metrics(samples: list[tuple[str, float]], setup_times: list[float],
                attempted: int, failed: int) -> dict[str, float]:
    by_name: dict[str, list[float]] = {}
    for name, seconds in samples:
        by_name.setdefault(name, []).append(seconds)
    latency = [statistics.fmean(v) for v in by_name.values()]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(latency),
        "cmd_max_s": max(latency),
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(s) for s in latency)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_ratio": (attempted - failed) / attempted,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    altring = import_program()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        runner = Runner(altring, args.workload, args.seed, workdir)
        runner.warmup()
        if args.trace:
            def traced_pass(tracer=None) -> float:
                samples = (runner.round(0, tracer, workload="warmup")
                           + runner.round(0, tracer))
                return sum(s for _, s in samples)

            untraced = traced_pass()
            tracer = spans.Tracer()
            traced = traced_pass(tracer)
            tracer.write(f"{stem}.spans.jsonl")
            metrics = spans.layer_metrics(tracer, traced - untraced)
            units = spans.LAYER_UNITS
        else:
            samples = runner.rounds(args.seconds)
            metrics = e2e_metrics(samples, runner.setup_times, *runner.counts())
            units = E2E_UNITS
    attempted, failed = runner.counts()
    with open(f"{stem}.records.json", "w", encoding="utf-8") as fh:
        json.dump(runner.records, fh, indent=1)
    for name, value in metrics.items():
        print(f"{args.workload:<9} {name:<34} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
