"""Benchmark for ``ddosgate run``: seeded workloads, fresh process per run.

    python3 perfbench/run.py --workload mixed --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every metric, every workload

Runs on a plain checkout; nothing needs installing. Inputs are
generated from the seed before any clock starts and cached under
``.perfbench_data/`` at the checkout root. Each measured run is a fresh
``python3 perfbench/child.py`` process with PYTHONPATH set to ``src``,
which calls ``ddosgate.cli.main(["run", "--trace", "-", ...])`` with
the trace file as its stdin: a batch replay, consuming the file as fast
as the pipeline can, one process at a time. Runs repeat until
``--seconds`` have passed (at least MIN_RUNS) and medians are reported.

``--trace 0`` prints the end-to-end metrics: ``events_per_s`` (events
over the wall time from set-up done to the stats file written),
``setup_s`` (just before ``import ddosgate`` to ``build_engine``
returning; runs on an empty trace make up SETUP_SAMPLES samples),
``peak_rss_mb`` (the run process's VmHWM) and ``verified_share`` (the
share of events that passed every output check). ``--trace 1``
alternates untraced and traced runs and prints the per-layer metrics,
taken from the traced runs' spans around the program's public entry
points, and the tracing overhead.

Times are scaled to a nominal CPU speed by calibration slices measured
inside each run (see child.py), because this class of host changes
speed by up to 2x within seconds. ``pipeline.raw_events_per_s`` and
``machine.slowdown`` show the unscaled rate and the scale.

Every run's verdict, stats and sandbox files are checked: one verdict
per trace line, in order; a capture for each sandbox verdict and no
other; stats totals that match the verdicts; the same bytes on every
run. On the default seed the bytes must also match the digests in
``reference.json``, recorded at the commit that added the benchmark;
every invocation checks one run of the default seed, so a change that
alters a verdict fails whichever seed is measured. Events of a run that
fails a check count as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, ".perfbench_data")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 9
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_SAMPLES = 24  # set-up is short and noisy; runs on an empty trace top up the count
CHILD_TIMEOUT_SECS = 100
NOMINAL_SLICE_S = 1e-3

DECISIONS = ("forward", "drop_rate_limited", "reject_blacklisted", "sandbox")

END_TO_END = {  # name -> unit
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_share": "share",
}

# Per-layer span metrics: name -> (span, unit, kind). "per_call" is self
# time per call; "per_event" is self time per trace event; "wall_share"
# is self time over the traced runs' events wall time.
SPAN_METRICS = {
    "events.parse_us": ("events.parse", "us", "per_call"),
    "events.serialize_verdict_us": ("events.serialize_verdict", "us", "per_call"),
    "events.serialize_event_us": ("events.serialize_event", "us", "per_call"),
    "ratelimit.acquire_us": ("ratelimit.acquire", "us", "per_call"),
    "blacklist.contains_us": ("blacklist.contains", "us", "per_call"),
    "analyzer.observe_tcp_us": ("analyzer.observe_tcp", "us", "per_call"),
    "analyzer.observe_udp_us": ("analyzer.observe_udp", "us", "per_call"),
    "waf.evaluate_us": ("waf.evaluate", "us", "per_call"),
    "pipeline.capture_us": ("pipeline.capture", "us", "per_call"),
    "pipeline.decide_self_us": ("pipeline.decide", "us", "per_call"),
    "pipeline.loop_self_us": ("pipeline.loop", "us", "per_event"),
    "events.parse_wall_share": ("events.parse", "share", "wall_share"),
    "events.serialize_verdict_wall_share": ("events.serialize_verdict", "share", "wall_share"),
    "events.serialize_event_wall_share": ("events.serialize_event", "share", "wall_share"),
    "ratelimit.acquire_wall_share": ("ratelimit.acquire", "share", "wall_share"),
    "blacklist.contains_wall_share": ("blacklist.contains", "share", "wall_share"),
    "analyzer.observe_tcp_wall_share": ("analyzer.observe_tcp", "share", "wall_share"),
    "analyzer.observe_udp_wall_share": ("analyzer.observe_udp", "share", "wall_share"),
    "waf.evaluate_wall_share": ("waf.evaluate", "share", "wall_share"),
    "pipeline.capture_wall_share": ("pipeline.capture", "share", "wall_share"),
    "pipeline.decide_self_wall_share": ("pipeline.decide", "share", "wall_share"),
    "pipeline.loop_self_wall_share": ("pipeline.loop", "share", "wall_share"),
}

# Share of the layer's examined events it blocked, from the stats file.
STATS_SHARES = {
    "ratelimit.deny_share": "1",
    "blacklist.hit_share": "2",
    "analyzer.finding_share": "3",
    "waf.match_share": "4",
}

OTHER_PER_LAYER = {
    "pipeline.capture_share": "share",
    "ratelimit.tracked_sources": "count",
    "analyzer.tracked_flows": "count",
    "analyzer.window_sources": "count",
    "blacklist.entries": "count",
    "blacklist.refresh_ms": "ms",
    "pipeline.decide_p50_us": "us",
    "pipeline.decide_p99_us": "us",
    "pipeline.decide_samples": "count",
    "pipeline.gc_pause_ms": "ms",
    "pipeline.state_mb": "MB",
    "pipeline.state_bytes_per_source": "B",
    "pipeline.trace_overhead_share": "share",
    "pipeline.raw_events_per_s": "1/s",
    "machine.slowdown": "ratio",
    "cli.import_ms": "ms",
    "config.build_engine_ms": "ms",
}

PER_LAYER = {**{k: v[1] for k, v in SPAN_METRICS.items()},
             **{k: "share" for k in STATS_SHARES}, **OTHER_PER_LAYER}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # Import from compiled bytecode, as an installed program would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Run:
    """One child process's result and output digests.

    Times are scaled to a CPU on which child.calibration_slice takes
    NOMINAL_SLICE_S: ``slowdown`` is how much longer it took during the
    run, measured beside the work it scales.
    """

    def __init__(self, result: dict, digests: dict, stats: dict, failed: int, events: int):
        self.result = result
        self.digests = digests
        self.stats = stats
        self.failed = failed
        self.events = events

    @property
    def setup_slowdown(self) -> float:
        return setup_slowdown(self.result)

    @property
    def slowdown(self) -> float:
        r = self.result
        return r["slice_time"] / r["slices"] / NOMINAL_SLICE_S if r["slices"] else self.setup_slowdown

    @property
    def setup_s(self) -> float:
        return self.result["build_end"] / self.setup_slowdown

    @property
    def raw_wall_s(self) -> float:
        """Wall time from set-up done to stats written, less the calibration slices."""
        return self.result["end"] - self.result["build_end"] - self.result["slice_time"]

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s / self.slowdown

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s


def read_stats(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        stats = json.load(fh)
    if not isinstance(stats, dict):
        raise ValueError("stats is not a JSON object")
    return stats


def setup_slowdown(result: dict) -> float:
    return result["setup_slice"] / NOMINAL_SLICE_S


def check_outputs(events: int, verdict_path: str, sandbox_path: str, stats_path: str) -> int:
    """Events whose verdict or capture is wrong; all of them if stats disagree
    or an output does not parse."""
    seen: Counter = Counter()
    order_ok = True
    decisions: Counter = Counter()
    sandboxed = []
    with open(verdict_path, encoding="utf-8") as fh:
        for expected_id, line in enumerate(fh, start=1):
            try:
                rec = json.loads(line)
                event_id, decision = rec["event_id"], rec["decision"]
            except (ValueError, KeyError, TypeError):
                order_ok = False
                continue
            seen[event_id] += 1
            order_ok = order_ok and event_id == expected_id
            decisions[decision] += 1
            if decision == "sandbox":
                sandboxed.append(event_id)
    failed = sum(1 for i in range(1, events + 1) if seen.get(i) != 1)
    failed += sum(n for i, n in seen.items() if not isinstance(i, int) or not 1 <= i <= events)
    if not order_ok or set(decisions) - set(DECISIONS):
        return events
    try:
        with open(sandbox_path, encoding="utf-8") as fh:
            captured = [json.loads(line)["event"]["event_id"] for line in fh]
        stats = read_stats(stats_path)
    except (ValueError, KeyError, TypeError):
        return events
    if captured != sandboxed:
        failed += len(set(captured) ^ set(sandboxed)) or events
    if stats.get("events") != events or stats.get("verdicts") != {d: decisions[d] for d in DECISIONS}:
        return events
    return min(failed, events)


def spawn(traced: bool, trace: str, verdicts: str, sandbox: str, stats: str,
          overrides: list[str]) -> dict:
    """Run child.py once; its result."""
    args = [sys.executable, os.path.join(HERE, "child.py"), "1" if traced else "0", trace,
            "run", "--trace", "-", "--out", verdicts, "--stats", stats,
            "--set", f"sandbox.log_path={sandbox}"]
    for item in overrides:
        args += ["--set", item]
    proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_SECS)
    if proc.returncode != 0:
        raise BenchError(f"run failed (exit {proc.returncode}):\n{proc.stderr.strip()}\n"
                         f"{proc.stdout.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(inputs: workloads.Inputs) -> float:
    """Set-up time of one run on an empty trace, scaled like Run.setup_s."""
    result = spawn(False, os.devnull, os.devnull, os.devnull, os.devnull, inputs.overrides)
    return result["build_end"] / setup_slowdown(result)


class Bench:
    def __init__(self, workload: str):
        self.workload = workload
        self.work = os.path.join(DATA, "work", f"{workload}-{os.getpid()}")
        self.runs_made = 0
        self.attempted = 0
        self.failed = 0
        self.checked: dict[tuple, int] = {}  # digests -> failed events
        self.expected: dict[str, dict] = {}  # trace path -> digests every run must give

    def run_child(self, inputs: workloads.Inputs, traced: bool) -> Run:
        os.makedirs(self.work, exist_ok=True)
        self.runs_made += 1
        tag = f"r{self.runs_made}"
        out = {name: os.path.join(self.work, f"{tag}.{name}")
               for name in ("verdicts", "sandbox", "stats")}
        result = spawn(traced, inputs.trace, out["verdicts"], out["sandbox"], out["stats"],
                       inputs.overrides)
        digests = {name: sha256(path) for name, path in out.items()}
        key = tuple(sorted(digests.items()))
        if key not in self.checked:
            self.checked[key] = check_outputs(inputs.events, out["verdicts"], out["sandbox"],
                                              out["stats"])
        failed = self.checked[key]
        if failed:
            log(f"{self.workload}: run {tag}: {failed} events fail the output checks")
        if digests != self.expected.setdefault(inputs.trace, digests):
            log(f"{self.workload}: run {tag}: outputs differ from the reference for this trace")
            failed = inputs.events
        try:
            stats = read_stats(out["stats"])
        except ValueError:
            stats = {}  # already counted as failed by check_outputs
        for path in out.values():
            os.remove(path)
        self.attempted += inputs.events
        self.failed += failed
        return Run(result, digests, stats, failed, inputs.events)

    def expect_reference(self, inputs: workloads.Inputs) -> None:
        """Require the recorded default-seed digests for this trace."""
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)["workloads"][self.workload]
        if sha256(inputs.trace) != ref["trace"] or inputs.events != ref["events"]:
            raise BenchError(f"{self.workload}: generated default-seed trace does not match "
                             f"reference.json; inputs changed, digests no longer apply")
        self.expected[inputs.trace] = {k: ref[k] for k in ("verdicts", "sandbox", "stats")}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def measure(bench: Bench, inputs: workloads.Inputs, seconds: float, traced: bool):
    """Untraced runs (alternating with traced ones if ``traced``) until time is up."""
    plain: list[Run] = []
    with_spans: list[Run] = []
    deadline = time.monotonic() + seconds
    while (len(plain) < MIN_RUNS or (traced and len(with_spans) < MIN_TRACED_RUNS)
           or time.monotonic() < deadline):
        use_trace = traced and len(with_spans) < len(plain)
        run = bench.run_child(inputs, use_trace)
        (with_spans if use_trace else plain).append(run)
        log(f"{bench.workload}: {'traced' if use_trace else 'plain'} run: "
            f"{run.events_per_s:,.0f} ev/s, set-up {run.setup_s * 1e3:.1f} ms, "
            f"RSS {run.result['maxrss_kb'] / 1024:.1f} MB, slowdown {run.slowdown:.2f} "
            f"(set-up {run.setup_slowdown:.2f}), raw {run.events / run.raw_wall_s:,.0f} ev/s")
    return plain, with_spans


def end_to_end_metrics(plain: list[Run], setups: list[float], bench: Bench) -> dict:
    med = statistics.median
    return {
        "events_per_s": med(r.events_per_s for r in plain),
        "setup_s": med(setups),
        "peak_rss_mb": med(r.result["maxrss_kb"] / 1024 for r in plain),
        "verified_share": 1.0 - bench.failed / bench.attempted,
    }


def per_layer_metrics(plain: list[Run], traced: list[Run]) -> dict:
    """Per-layer figures from the traced runs; times scaled like Run.wall_s."""
    med = statistics.median
    events = sum(r.events for r in traced)
    wall = sum(r.wall_s for r in traced)
    spans: dict[str, list] = {}  # span -> [calls, total s, self s], summed over runs
    missing = set()
    for run in traced:
        missing.update(run.result["missing"])
        for span, (calls, total, self_s) in run.result["spans"].items():
            if span == "pipeline.loop":  # the loop pulled the lines that ran the slices
                total -= run.result["slice_time"]
                self_s -= run.result["slice_time"]
            acc = spans.setdefault(span, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total / run.slowdown
            acc[2] += self_s / run.slowdown
    m: dict = {}
    for name, (span, _unit, kind) in SPAN_METRICS.items():
        if span in missing or span not in spans:
            m[name] = None
            continue
        calls, _total, self_s = spans[span]
        if kind == "per_call":
            m[name] = self_s / calls * 1e6 if calls else 0.0
        elif kind == "per_event":
            m[name] = self_s / events * 1e6
        else:
            m[name] = self_s / wall
    stats = traced[-1].stats
    layers = stats.get("layers", {})
    for name, layer in STATS_SHARES.items():
        entry = layers.get(layer, {})
        examined, blocked = entry.get("examined"), entry.get("blocked")
        m[name] = None if examined is None or blocked is None else (blocked / examined if examined else 0.0)
    sandboxed = stats.get("verdicts", {}).get("sandbox")
    m["pipeline.capture_share"] = None if sandboxed is None else sandboxed / traced[-1].events
    m.update(traced[-1].result["sizes"])
    refresh = spans.get("blacklist.refresh")
    m["blacklist.refresh_ms"] = None if refresh is None else refresh[1] / len(traced) * 1e3
    if "pipeline.decide" in missing:
        m["pipeline.decide_p50_us"] = m["pipeline.decide_p99_us"] = m["pipeline.decide_samples"] = None
    else:
        m["pipeline.decide_p50_us"] = med(r.result["decide_p50"] / r.slowdown for r in traced) * 1e6
        m["pipeline.decide_p99_us"] = med(r.result["decide_p99"] / r.slowdown for r in traced) * 1e6
        m["pipeline.decide_samples"] = sum(r.result["decide_samples"] for r in traced)
    m["pipeline.gc_pause_ms"] = med(r.result["gc_pause"] / r.slowdown for r in traced) * 1e3
    state_kb = med((r.result["maxrss_kb"] - r.result["maxrss_setup_kb"]) for r in plain)
    m["pipeline.state_mb"] = state_kb / 1024
    sources = m.get("ratelimit.tracked_sources")
    m["pipeline.state_bytes_per_source"] = state_kb * 1024 / sources if sources else None
    m["pipeline.trace_overhead_share"] = (1.0 - med(r.events_per_s for r in traced)
                                          / med(r.events_per_s for r in plain))
    m["pipeline.raw_events_per_s"] = med(r.events / r.raw_wall_s for r in plain)
    everything = plain + traced
    m["machine.slowdown"] = med(r.slowdown for r in everything)
    m["cli.import_ms"] = med(r.result["import"] / r.setup_slowdown for r in everything) * 1e3
    m["config.build_engine_ms"] = med((r.result["build_end"] - r.result["build_start"])
                                      / r.setup_slowdown for r in everything) * 1e3
    return m


def bench_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cache = os.path.join(DATA, "inputs")
    reference = workloads.prepare(workload, DEFAULT_SEED, cache, keep_seeds=(seed,))
    inputs = workloads.prepare(workload, seed, cache, keep_seeds=(DEFAULT_SEED,))
    bench = Bench(workload)
    try:
        bench.expect_reference(reference)
        if seed != DEFAULT_SEED:
            bench.run_child(reference, traced=False)
        plain, with_spans = measure(bench, inputs, seconds, traced)
        if traced:
            metrics = per_layer_metrics(plain, with_spans)
            units = PER_LAYER
        else:
            setups = [r.setup_s for r in plain]
            setups += [setup_only(inputs) for _ in range(SETUP_SAMPLES - len(setups))]
            metrics = end_to_end_metrics(plain, setups, bench)
            units = END_TO_END
    finally:
        bench.close()
    return {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def record_reference() -> None:
    """Write reference.json from one default-seed run of each workload.

    Only for a commit whose outputs are known good: the digests are what
    every later commit must reproduce.
    """
    cache = os.path.join(DATA, "inputs")
    ref = {"seed": DEFAULT_SEED, "gen_version": workloads.GEN_VERSION, "workloads": {}}
    for workload in workloads.WORKLOADS:
        inputs = workloads.prepare(workload, DEFAULT_SEED, cache)
        bench = Bench(workload)
        try:
            run = bench.run_child(inputs, traced=False)
        finally:
            bench.close()
        if run.failed:
            raise BenchError(f"{workload}: outputs fail the checks; not recording them")
        ref["workloads"][workload] = {"events": inputs.events, "trace": sha256(inputs.trace),
                                      **run.digests}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")


def preflight() -> None:
    if not os.path.isfile(os.path.join(SRC, "ddosgate", "cli.py")):
        raise BenchError(f"no ddosgate sources under {SRC}; run from a full checkout")
    # Compile the package once, so no measured run pays for it.
    subprocess.run([sys.executable, "-c", "import ddosgate.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_SECS)
    sys.path.insert(0, SRC)


def print_table(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{workload:12s} {name:38s} {shown:>14s} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this commit's outputs")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        preflight()
        if args.record_reference:
            record_reference()
            return 0
        if args.workload != "all":
            result = bench_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        for workload in workloads.WORKLOADS:
            for traced in (False, True):
                result = bench_workload(workload, args.seed, args.seconds, traced)
                print_table(workload, result)
                print(f"{workload:12s} {'correct':38s} {str(result['correct']):>14s} "
                      f"({result['failed']} of {result['attempted']} events failed)")
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        log(f"error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
