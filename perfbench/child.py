"""One measured run of ``ddosgate run`` in a fresh process.

    python3 perfbench/child.py <traced 0|1> <trace path> run --trace - <more run arguments...>

The parent sets PYTHONPATH to the checkout's ``src``. This process
calls ``ddosgate.cli.main(["run", "--trace", "-", ...])`` with stdin
replaced by the trace file, and prints one JSON object with its
timestamps (seconds since just before ``import ddosgate``), its peak
RSS and, when traced, per-span totals. Only ``resource``, ``sys`` and
``time`` are imported before the clock starts, and ``ddosgate`` imports
none of them, so set-up time is not shortened.

The CPU this runs on changes speed by up to 2x within seconds when
other tenants load the host. So the run also times fixed slices of
work, each about 1 ms on an idle 2.1 GHz Xeon: SETUP_SLICES of
``setup_slice`` just before set-up, and one ``trace_slice`` every
CALIBRATION_EVERY trace lines while the pipeline reads the trace. Each
slice does what the work it scales does most: compiling and running
module code for set-up, JSON in and out for the trace. Such slices
track those slowdowns far better than a pure dict loop does. The
parent scales the run's times by how long the slices took; their own
time is taken out of the events clock.

``cli.build_engine`` is wrapped in both modes: its return marks the
end of set-up and the start of the events clock. The traced mode also
wraps the public entry points in SPANS; one that a later change renames
or inlines is reported as missing instead of failing the run.
"""

import resource
import sys
import time

CALIBRATION_EVERY = 256
SETUP_SLICES = 8
_SLICE_MODULE = """
class Sample:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b=0, c=None):
        self.a = a
        self.b = b
        self.c = c

    def total(self, extra):
        return self.a + self.b + (extra if self.c is None else self.c)


def build(values, scale=2):
    return {str(i): Sample(v, i).total(scale) for i, v in enumerate(values)}


TABLE = {"alpha": (1, 2, 3), "beta": [4, 5, 6], "gamma": {"x": 1.5}}
"""
_SLICE_LINE = ('{"event_id":1234,"ts":12.345678,"kind":"tcp","src_ip":"10.2.0.1",'
               '"dst_ip":"10.0.0.1","src_port":4321,"dst_port":80,"flags":"S","seq":123456789,'
               '"ack":0,"urgent_ptr":0,"payload_b64":"","label":"attack:syn_flood"}')

# (span, module, attribute path). Calls nest, so each span's self time
# excludes the time of the spans it calls.
SPANS = (
    ("events.parse", "ddosgate.pipeline", "parse_trace_event"),
    ("events.serialize_verdict", "ddosgate.pipeline", "serialize_verdict_record"),
    ("events.serialize_event", "ddosgate.pipeline", "serialize_trace_event"),
    ("waf.evaluate", "ddosgate.pipeline", "evaluate"),
    ("ratelimit.acquire", "ddosgate.ratelimit", "LimiterTable.acquire"),
    ("blacklist.contains", "ddosgate.blacklist", "CidrSnapshot.contains"),
    ("blacklist.refresh", "ddosgate.blacklist", "refresh"),
    ("analyzer.observe_tcp", "ddosgate.analyzer", "Analyzer.observe_tcp"),
    ("analyzer.observe_udp", "ddosgate.analyzer", "Analyzer.observe_udp"),
    ("pipeline.capture", "ddosgate.pipeline", "SandboxSink.capture"),
    ("pipeline.decide", "ddosgate.pipeline", "Engine.process_event"),
    ("pipeline.loop", "ddosgate.pipeline", "Engine.run_trace"),
)

# Engine attributes whose sizes are read after the run: (name, attribute path).
STATE_SIZES = (
    ("ratelimit.tracked_sources", "limiter.buckets"),
    ("analyzer.tracked_flows", "analyzer.entries"),
    ("analyzer.window_sources", "analyzer._windows"),
    ("blacklist.entries", "blacklist.current"),
)


def _maxrss_kb() -> int:
    """This process's peak RSS. ru_maxrss would also count the parent's
    RSS at fork time, which Linux carries across exec; VmHWM does not."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup_slice() -> int:
    """Compiles and runs a small module, as imports do. Builtins only: it
    runs before ``import ddosgate``, and importing anything ddosgate
    imports would shorten set-up."""
    total = 0
    for _ in range(3):
        namespace: dict = {}
        exec(compile(_SLICE_MODULE, "<slice>", "exec"), namespace)
        total += len(namespace["build"](range(40)))
    return total


def trace_slice(loads, dumps) -> int:
    total = 0
    for i in range(60):
        obj = loads(_SLICE_LINE)
        obj["reason"] = "%s:%d" % (obj["src_ip"], i)
        total += len(dumps(obj, separators=(",", ":")))
    return total


def timed_setup_slices(clock, n: int) -> float:
    start = clock()
    for _ in range(n):
        setup_slice()
    return clock() - start


class CalibratedTrace:
    """Stands in for stdin: the trace file's lines, with a calibration
    slice after every CALIBRATION_EVERY of them."""

    def __init__(self, path: str, clock):
        self.path = path
        self.clock = clock
        self.slices = 0
        self.slice_time = 0.0

    def __iter__(self):
        import json  # ddosgate has imported it by now

        loads, dumps = json.loads, json.dumps
        clock = self.clock
        with open(self.path, encoding="utf-8") as fh:
            n = 0
            for line in fh:
                yield line
                n += 1
                if n == CALIBRATION_EVERY:
                    n = 0
                    start = clock()
                    trace_slice(loads, dumps)
                    self.slice_time += clock() - start
                    self.slices += 1


def _resolve(root, path: str):
    """(owner, attribute name) for a dotted path below root."""
    *owners, name = path.split(".")
    for part in owners:
        root = getattr(root, part)
    return root, name


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stats: dict[str, list] = {}  # span -> [calls, total s, self s]
        self.missing: list[str] = []
        self.decide_samples: list[float] = []
        self.gc_pause = [0.0, 0.0]  # started at, total s
        self._stack = [[0.0]]  # per open span: time covered by its children

    def install(self) -> None:
        import gc
        import importlib

        for span, module, path in SPANS:
            try:
                owner, name = _resolve(importlib.import_module(module), path)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(span)
                continue
            if not callable(fn):
                self.missing.append(span)
                continue
            samples = self.decide_samples if span == "pipeline.decide" else None
            setattr(owner, name, self._wrap(fn, self.stats.setdefault(span, [0, 0.0, 0.0]), samples))
        gc.callbacks.append(self._on_gc)

    def _wrap(self, fn, stat: list, samples: list | None):
        clock = self.clock
        stack = self._stack

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if samples is not None:
                    samples.append(elapsed)

        return span

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_pause[0] = self.clock()
        else:
            self.gc_pause[1] += self.clock() - self.gc_pause[0]

    def report(self) -> dict:
        samples = sorted(self.decide_samples)

        def pct(q: float):
            return samples[min(len(samples) - 1, int(q * len(samples)))] if samples else None

        return {"spans": self.stats, "missing": self.missing,
                "decide_p50": pct(0.50), "decide_p99": pct(0.99), "decide_samples": len(samples),
                "gc_pause": self.gc_pause[1]}


def _sizes(engine) -> dict:
    sizes = {}
    for name, path in STATE_SIZES:
        try:
            owner, attr = _resolve(engine, path)
            sizes[name] = len(getattr(owner, attr))
        except (AttributeError, TypeError):
            sizes[name] = None
    return sizes


def main() -> int:
    traced = sys.argv[1] == "1"
    trace = sys.argv[2]
    argv = sys.argv[3:]
    clock = time.perf_counter
    setup_slice_s = timed_setup_slices(clock, SETUP_SLICES) / SETUP_SLICES
    t0 = clock()
    import ddosgate.cli as cli

    t_import = clock() - t0
    marks: dict = {}
    real_build_engine = cli.build_engine

    def build_engine(*args, **kwargs):
        marks["build_start"] = clock() - t0
        engine = real_build_engine(*args, **kwargs)
        marks["build_end"] = clock() - t0
        marks["engine"] = engine
        marks["maxrss_setup_kb"] = _maxrss_kb()
        return engine

    cli.build_engine = build_engine
    tracer = None
    if traced:
        tracer = Tracer(clock)
        tracer.install()
    sys.stdin = stdin = CalibratedTrace(trace, clock)
    code = cli.main(argv)
    t_end = clock() - t0
    maxrss_kb = _maxrss_kb()

    import json

    result = {"import": t_import, "build_start": marks.get("build_start"),
              "build_end": marks.get("build_end"), "end": t_end,
              "setup_slice": setup_slice_s, "slices": stdin.slices, "slice_time": stdin.slice_time,
              "maxrss_setup_kb": marks.get("maxrss_setup_kb"), "maxrss_kb": maxrss_kb}
    if tracer is not None:
        result.update(tracer.report())
        result["sizes"] = _sizes(marks.get("engine"))
    print(json.dumps(result))
    return 0 if code == 0 and "build_end" in marks else 1


if __name__ == "__main__":
    sys.exit(main())
