"""stablesim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) for about S seconds from the root of a
checkout, importing the program from `src/`. It prints the environment
as one JSON line and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
split from a traced run. Every result, with its raw samples, is also
written to `.bench_out/`, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import gate
import layers
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
clock = time.perf_counter_ns

MIN_RUNS = 2          # an invocation compares at least two runs' outputs
SETUP_SAMPLES = 3     # set-ups timed before each run, spread over the window
SETUP_ROUNDS = 12     # ... and at least this many per sweep point in all
PROBE_SAMPLES = 60    # host-speed probes per invocation, spread over the runs
NS = 1e-9
# Seconds one run of each workload, with its set-ups, took at the commit
# that added the benchmark (Python 3.11, 2 CPUs, mean over the machine's
# fast and slow phases). `--seconds` buys a fixed number of runs from it,
# the same on every commit, so the fastest-of-N statistics below always
# compare equal Ns.
NOMINAL_RUN_S = {"holders_direct": 4.5, "dealer_squeeze": 2.0, "preset_sweep": 0.45}
OVERTIME = 1.3        # the runs stop early past OVERTIME x --seconds


def import_program():
    """Import stablesim from this checkout's sources, or return None."""
    src = ROOT / "src"
    if not (src / "stablesim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    try:
        import stablesim
    except ImportError as err:
        print(f"cannot import stablesim: {err}", file=sys.stderr)
        return None
    if Path(stablesim.__file__).resolve().parent != (src / "stablesim").resolve():
        print(f"stablesim imported from {stablesim.__file__}, not {src}", file=sys.stderr)
        return None
    return stablesim


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, generator: dict | None) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator": generator,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    """One invocation: runs, timings, failures and the gate."""

    def __init__(self, sim, workload: str, seed: int):
        import scenarios  # needs stablesim on the path

        self.sim = sim
        self.workload = workload
        self.inputs = scenarios.workload(workload, seed)
        self.shape_check = scenarios.SHAPE_CHECKS.get(workload)
        self.gate = gate.Gate(gate.load_reference(workload, seed))
        self.attempted = 0
        self.failed = 0
        self.errors: dict = {}
        self.setup_ns: dict = {}          # point index -> set-up times
        self.walls_ns: list = []
        self.output_bytes = 0
        self.segments: list = []
        self.probe_ns: list = []
        self.probes_per_run = 1
        if workload == "preset_sweep":
            self.points = [p for _, raw, grid in self.inputs["sweeps"]
                           for p in scenarios.sweep_points(raw, grid)]
        else:
            self.points = [self.inputs["config"]]
            if scenarios.config_bytes(self.points[0]) != scenarios.config_bytes(
                    scenarios.scaled(**self.inputs["args"])):
                raise RuntimeError("scenario generator is not deterministic")
        # balance sheets x horizon days of each point, filled in by set-up
        self.agent_days = [None] * len(self.points)
        self._next_point = 0

    @property
    def sweep(self) -> bool:
        return self.workload == "preset_sweep"

    def _error(self, message: str) -> None:
        self.errors[message] = self.errors.get(message, 0) + 1

    # -- timed pieces -------------------------------------------------------

    def time_setup(self) -> None:
        """parse_config + build_scenario for one scenario, rotating
        through the sweep's points."""
        index = self._next_point % len(self.points)
        self._next_point += 1
        try:
            start = clock()
            scn = self.sim.engine.build_scenario(
                self.sim.config.parse_config(self.points[index]))
            self.setup_ns.setdefault(index, []).append(clock() - start)
        except Exception as err:  # reported through the runs' failures
            self._error(f"set-up {type(err).__name__}: {err}")
            return
        self.agent_days[index] = len(scn.world.agents) * scn.config.horizon_days

    def one_run(self, hook=None) -> dict | None:
        """One timed result; returns its rendered outputs, None if it raised."""
        count = len(self.points)
        self.attempted += count
        try:
            if self.sweep:
                return self._sweep_batch()
            return self._long_run(hook)
        except Exception as err:  # a failing run counts, it never stops the bench
            self.failed += count
            self._error(f"{type(err).__name__}: {err}")
            return None

    def _long_run(self, hook) -> dict:
        sim = self.sim
        marks: list = []

        def day_end(scn, day):
            marks.append(clock())
            if hook is not None:
                hook(scn, day)

        gc.collect()
        start = clock()
        cfg = sim.config.parse_config(self.inputs["config"])
        parsed = clock()
        output = sim.engine.run(cfg, on_day_end=day_end)
        ran = clock()
        texts = gate.render(output)
        done = clock()
        bounds = [parsed] + marks + [ran]
        self.segments.append([parsed - start]
                             + [b - a for a, b in zip(bounds, bounds[1:])]
                             + [done - ran])
        self.walls_ns.append(done - start)
        self.output_bytes = sum(len(t) for t in texts.values())
        failed = self.gate.check(texts)
        if self.shape_check is not None:
            problem = self.shape_check(output)
            if problem:
                self._error(problem)
                failed.add("shape")
        if failed:
            self.failed += 1
        return texts

    def _sweep_batch(self) -> dict:
        gc.collect()
        start = clock()
        reports = []
        for preset, raw, grid in self.inputs["sweeps"]:
            report = self.sim.engine.sweep(raw, grid)
            reports.append((preset, report, report.matrix_csv()))
        done = clock()
        self.walls_ns.append(done - start)
        self.output_bytes = sum(len(matrix) for _, _, matrix in reports)
        texts: dict = {}
        for preset, report, matrix in reports:
            texts.update(gate.render_sweep(preset, report, matrix))
        failed = self.gate.check(texts)
        for preset, report, _ in reports:
            whole = f"{preset}/matrix_csv" in failed
            for point in report.points:
                if point.error:
                    self._error(f"{preset} point {point.index}: {point.error}")
                if whole or point.error or f"{preset}/point_{point.index:03d}" in failed:
                    self.failed += 1
        return texts

    # -- metrics --------------------------------------------------------------

    def time_probe(self) -> None:
        self.probe_ns.append(calibrate.time_probe())

    def end_to_end(self) -> dict:
        # Every time is scaled to the reference host speed (calibrate.py).
        # The program's times are the fastest of one sample per run; the
        # probe's is taken at the same depth: with k probes per run, the
        # k-th fastest probe.
        probe_ns = sorted(self.probe_ns)[self.probes_per_run - 1]
        scale = calibrate.REFERENCE_PROBE_S / (probe_ns * NS)
        # the fastest set-up of each point, then the median over points
        setup_s = median([min(times) for times in self.setup_ns.values()]) * NS * scale
        agent_days = sum(n or 0 for n in self.agent_days)
        points = len(self.points)
        if self.sweep:
            wall_s = min(self.walls_ns, default=0) * NS
            run_s = wall_s
        else:
            # each segment (parse, run start to day 0 end, each later day,
            # last day end to return, rendering) is its fastest over runs
            per_segment = [min(column) for column in zip(*self.segments)]
            wall_s = sum(per_segment) * NS
            run_s = sum(per_segment[1:-1]) * NS
        wall_s *= scale
        run_s *= scale
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "agent_days_per_s": (agent_days / run_s if run_s else 0.0, "1/s"),
            "points_per_s": (points / wall_s if wall_s else 0.0, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }


def run_count(workload: str, seconds: int) -> int:
    return max(MIN_RUNS, round(seconds / NOMINAL_RUN_S[workload]))


def measure(bench: Bench, seconds: int) -> dict:
    runs = run_count(bench.workload, seconds)
    setups = max(SETUP_SAMPLES, -(-SETUP_ROUNDS * len(bench.points) // runs))
    bench.probes_per_run = probes = -(-PROBE_SAMPLES // runs)
    deadline = clock() + int(OVERTIME * seconds * 10 ** 9)
    calibrate.probe()        # warm-up, not counted
    for _ in bench.points:   # every point once, so agent-days are all known
        bench.time_setup()
    for done in range(runs):
        if done >= MIN_RUNS and clock() > deadline:
            print(f"stopped after {done} of {runs} runs: over {OVERTIME}x "
                  f"{seconds} s", file=sys.stderr)
            break
        for _ in range(setups):
            bench.time_setup()
        for _ in range(probes):
            bench.time_probe()
        bench.one_run()
    return bench.end_to_end()


def measure_traced(bench: Bench, seconds: int) -> tuple:
    """Alternate untraced and traced runs; per-layer medians of traced runs."""
    deadline = clock() + seconds * 10 ** 9
    plain_ns: list = []
    traced_ns: list = []
    samples: list = []
    last = None
    attempts = 0
    while attempts < MIN_RUNS or clock() < deadline:
        attempts += 1
        # a run that completes appends its wall time to bench.walls_ns
        bench.one_run()
        if bench.walls_ns:
            plain_ns.append(bench.walls_ns.pop())
        spans = tracer.Tracer()
        probe = layers.DayProbe()
        hook = spans.wrap(probe, "bench.probe")
        with spans.installed(defaults={"engine.run": {"on_day_end": hook}}):
            texts = bench.one_run(hook)
        if texts is None or not bench.walls_ns:
            continue
        traced_ns.append(bench.walls_ns.pop())
        samples.append(layers.metrics(spans.spans, probe, bench.output_bytes))
        last = spans
    if last is not None:
        OUT.mkdir(exist_ok=True)
        last.write(OUT / f"spans-{bench.workload}.tsv")
    metrics = {name: (median([s[name][0] for s in samples]), unit)
               for name, (_value, unit) in (samples[0].items() if samples else ())}
    overhead = median(traced_ns) / median(plain_ns) if plain_ns and traced_ns else 0.0
    metrics["trace.overhead"] = (overhead, "ratio")
    missing = last.missing if last is not None else []
    for entry in missing:
        print(f"not traced, no longer in the program: {entry}", file=sys.stderr)
    return metrics, {"plain_wall_ns": plain_ns, "traced_wall_ns": traced_ns,
                     "untraced_entry_points": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sim = import_program()
    if sim is None:
        print("stablesim sources not found under src/; run from a checkout root",
              file=sys.stderr)
        return 2
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        print(f"unknown workload {args.workload}; one of {scenarios.WORKLOADS}",
              file=sys.stderr)
        return 2
    bench = None
    try:
        bench = Bench(sim, args.workload, args.seed)
        if args.trace:
            metrics, raw = measure_traced(bench, args.seconds)
        else:
            metrics = measure(bench, args.seconds)
            raw = {"wall_ns": bench.walls_ns,
                   "setup_ns": [bench.setup_ns.get(i, [])
                                for i in range(len(bench.points))],
                   "segment_ns": bench.segments,
                   "probe_ns": bench.probe_ns}
        problems = dict(bench.errors, **bench.gate.problems)
        attempted, failed = bench.attempted, bench.failed
    except Exception as err:  # the harness reports a broken program, never crashes
        metrics, raw = {}, {}
        problems = {f"{type(err).__name__}: {err}": 1}
        attempted = failed = 1
    env = environment(args, bench.inputs["args"] if bench else None)
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for message, count in problems.items():
        print(f"{args.workload}: {message} (x{count})", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    record = dict(result, environment=env, problems=problems, samples=raw)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
