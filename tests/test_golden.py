"""Golden digests: the same trace and config give byte-identical verdicts,
sandbox captures and stats, on every supported interpreter.

Two tables of sha256 digests, each run through ``ddosgate.cli.main`` in
this process:

- The four benchmark workloads at the reference seed. Their digests live
  in one place, ``perfbench/reference.json``; this test reads them.
  ``perfbench`` is a directory of scripts, not a package, so
  ``workloads.py`` is loaded by file path. A change that alters the output
  format on purpose regenerates ``reference.json`` (``python3
  perfbench/run.py --record-reference``) in the same change.
- ``CASES``: a generated trace, hand-written lines appended to it, and the
  overrides that drive one corner of the engine. Each row pins its input
  trace, verdicts, sandbox and stats, and gen's manifest; a row with
  appended lines also pins gen's trace before them. Each row also asserts,
  in ``_corner``, that its corner occurred, so a change that stops driving
  it fails here even where the bytes were re-pinned.

CI runs this module on 3.10-3.13, so each pin is also the cross-interpreter
check: every interpreter must give the one committed value. Why each row
exists:

- ``mixed_edges``: gen writes the same trace and manifest on each
  interpreter (the writer reads back every line it writes). Five tcp
  lines follow whose ``payload_b64`` is base64 that is not canonical
  (``b64decode(validate=True)`` takes some of them on some interpreters),
  then lines at the edges of the canonical-line regexes, read in lenient
  mode: the first and last dotted quads, an octet past 255 and a leading
  zero (both skipped as malformed); a ts with no fraction, with a trailing
  zero and in both exponent forms (later than the trace's, so each gets a
  verdict); and an http line with an empty header list. A copy with an
  empty line, a whitespace-only line and a trailing blank line inserted
  gives the same bytes: a blank line gets no verdict and no skip count.
- ``http_attack``: the WAF compiles its ruleset into generated Python
  code, which must decide the same on each interpreter. Two hand-written
  requests follow the trace. The first one's header values end in ``%4``
  and ``+``, sit beside a value that is not ASCII and carry ``() {``, which
  rule 1007 sandboxes. The second one carries SQLMAP, which rule 1008
  logs.
- ``blacklist_mix``: a feed with a /32, a /24, a bare address and a line
  that is no entry: gen draws listed sources from it and L2 reads it, so
  the feed parser and the blacklist lookup decide here. A tight L1 that
  sandboxes what it refuses fills the sandbox log too.
- ``syn_flood_cookie``: a threshold of 50 half-open flows arms SYN-cookie
  mode on this trace and L1 is opened wide, so the cookie hash and the
  completion rule decide: seed 7 gives 50 ``syn_half_open`` verdicts on
  attack SYNs and 8 ``cookie_invalid`` verdicts. Those 8 are benign
  clients' ACKs, which carry a random ack, not a cookie (the open defect
  of ROADMAP Direction 12); a mend there must keep a failing cookie check
  in this row.
- ``ack_flood_rings``: L1 is opened wide and the windows are short, 0.1 s
  buckets over 0.5 s. Benign handshakes that take over 50 ms expire, so
  their sources get rings that go stale and are swept, while the flood's
  ring rotates every bucket and moves behind them; at 20 bare ACKs per
  window the flood gets ``ack_flood`` verdicts.
"""

import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from ddosgate import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_outputs_match_reference(workload, tmp_path, bench_inputs_root):
    ref = REFERENCE["workloads"][workload]
    inputs = workloads.prepare(workload, REFERENCE["seed"], bench_inputs_root)
    assert (_sha256(inputs.trace), inputs.events) == (ref["trace"], ref["events"])

    out = {name: tmp_path / name for name in ("verdicts", "sandbox", "stats")}
    argv = ["run", "--trace", inputs.trace, "--out", str(out["verdicts"]),
            "--stats", str(out["stats"]), "--set", f"sandbox.log_path={out['sandbox']}"]
    for item in inputs.overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    assert {name: _sha256(path) for name, path in out.items()} == {
        name: ref[name] for name in out}


_B64_TCP = ('{"event_id":%d,"ts":100.0,"kind":"tcp","src_ip":"10.9.0.%d","dst_ip":"10.0.0.1","src_port":40000,'
            '"dst_port":80,"flags":"PA","seq":1,"ack":1,"urgent_ptr":0,"payload_b64":"%s"}\n')
_EDGE_TCP = ('{"event_id":%d,"ts":%s,"kind":"tcp","src_ip":"%s","dst_ip":"10.0.0.1","src_port":40001,'
             '"dst_port":80,"flags":"S","seq":1,"ack":0,"urgent_ptr":0,"payload_b64":""}\n')
_EDGE_HTTP = ('{"event_id":%d,"ts":1E+5,"kind":"http","src_ip":"10.9.1.2","dst_ip":"10.0.0.1","src_port":40002,'
              '"dst_port":80,"method":"GET","uri":"/","version":"HTTP/1.1","headers":[],"body_b64":"",'
              '"duration_ms":5}\n')
_WAF_HTTP = ('{"event_id":%d,"ts":1E+5,"kind":"http","src_ip":"10.9.2.%d","dst_ip":"10.0.0.1","src_port":40003,'
             '"dst_port":80,"method":"GET","uri":"/","version":"HTTP/1.1","headers":%s,"body_b64":"",'
             '"duration_ms":5}\n')

_EDGE_LINES = (
    *(_B64_TCP % (1000000 + i, i, text)
      for i, text in enumerate(("QR==", "AAAA=", "AAA==", "AAAA====", "QQ==QQ=="), 1)),
    *(_EDGE_TCP % (1000011 + i, "100.5", ip)
      for i, ip in enumerate(("255.255.255.255", "0.0.0.0", "256.1.1.1", "01.2.3.4"))),
    *(_EDGE_TCP % (1000015 + i, ts, "10.9.1.1") for i, ts in enumerate(("200", "200.10", "1e5", "1E+5"))),
    _EDGE_HTTP % 1000019,
)
_WAF_LINES = (
    _WAF_HTTP % (2000001, 1, r'[["x-a","a%4"],["x-b","b+"],["x-c","\u00c9\u212a"],["x-d","() { :; }"]]'),
    _WAF_HTTP % (2000002, 2, '[["host","example.test"],["user-agent","SQLMAP/1.7"]]'),
)
_OPEN_L1 = ("rate.rps=1000000000", "rate.burst=1000000000")


def _edges_corner(verdicts, stats, sandbox):
    appended = {v["event_id"] for v in verdicts if v["event_id"] >= 1000000}
    # the five base64 lines and the two malformed addresses are skipped
    assert appended == {1000011, 1000012, *range(1000015, 1000020)}
    assert stats["skipped_lines"] == 7


def _waf_corner(verdicts, stats, sandbox):
    by_id = {v["event_id"]: v for v in verdicts}
    assert by_id.get(2000001) == {"event_id": 2000001, "decision": "sandbox", "layer": 4,
                                  "reason": "waf_rule_1007", "rule_id": 1007}
    assert by_id.get(2000002) == {"event_id": 2000002, "decision": "forward", "layer": 0, "reason": ""}
    assert stats["waf_log_hits"] == {"1008": 5}  # 4 of them on gen's requests


def _feed_corner(verdicts, stats, sandbox):
    assert stats["verdicts"]["reject_blacklisted"] > 0
    assert sandbox


def _cookie_corner(verdicts, stats, sandbox):
    reasons = Counter(v["reason"] for v in verdicts)
    assert reasons["cookie_invalid"] > 0 and reasons["syn_half_open"] > 0


def _rings_corner(verdicts, stats, sandbox):
    assert any(v["reason"] == "ack_flood" for v in verdicts)


class Case(NamedTuple):
    gen: tuple                  # gen's argv, without --out
    corner: Callable            # (verdict dicts, stats, sandbox bytes) -> None, asserting
    pins: dict                  # name -> sha256
    lines: tuple = ()           # appended to gen's trace
    overrides: tuple = ()       # run's --set items
    lenient: bool = False       # run --lenient
    feed: str = ""              # written to feed.txt first, when not empty
    blank: bool = False         # also run a copy with blank lines inserted


CASES = {
    "mixed_edges": Case(
        gen=("--scenario", "mixed", "--seed", "7"), lines=_EDGE_LINES, lenient=True, blank=True,
        corner=_edges_corner, pins={
            "gen": "42a46c8912487e3966e282a899f983156e4ce25c13fc3902cb5888ee494b0212",
            "manifest": "5ddf4f504939a567515fd76381764d986d605deac9428d347d863e6e729cac60",
            "trace": "8c4583659a0fdc565dcd55f8da2c10e9fdf95c82507baedec03206c3fbb1c98a",
            "blank": "9b814030e4b6f87f07ae85968963ed1f4d2d039a8b7ddf35923d902fc68c1532",
            "verdicts": "b388ac11a968beaa4202485e5dfcbd2ffb77bb5ee53aab143e70ef11bfaebd01",
            "sandbox": "4fcc9c2e8e8a94beb6114442b556b7edaf036bb279e2cd2e9bbace630ff539d7",
            "stats": "5e31ca347c0d50434f657a1dbc88382480d8b8e98d8f36c5b46008d7353320d4",
        }),
    "http_attack": Case(
        gen=("--scenario", "http_attack", "--seed", "7"), lines=_WAF_LINES, corner=_waf_corner, pins={
            "gen": "45aa42c22d3af6eb2ed7211be736625603743ab8d047e093a74750b744374613",
            "manifest": "baba392cc7f865e3b668145e2a3f6c97d1a47560f836e978e82cfa6ada98fb03",
            "trace": "ca2fd9bd2126855f01b811f80191344e6a564eb78579edd95d2929f0aa2d07f8",
            "verdicts": "36bc66a683d9fe7b996eef4c3916395c355c140d1ea359f6b2d2eb5952187680",
            "sandbox": "0f88f6c991a1a64473e8eb6cac3300589f0e87522bc398d5fc8fcdd073d2a230",
            "stats": "aadc18e2c30a49ef880ef417712f2fd9d29e76c24d7109953eb12702b6ba5499",
        }),
    "blacklist_mix": Case(
        gen=("--scenario", "blacklist_mix", "--param", "feed=feed.txt", "--param", "sources=12", "--seed", "7",
             "--duration", "60"),
        feed="203.0.113.7/32\n198.18.4.0/24\n192.0.2.9\nnot-an-address\n",
        overrides=("blacklist.path=feed.txt", "rate.rps=1", "rate.burst=2", "rate.drop_to_sandbox=true"),
        corner=_feed_corner, pins={
            "manifest": "58c56bcbc7036b7435bb48c82469f31bececcbf50ec7ffa60535e82bdbc8301c",
            "trace": "adae0b53a7706df190278c996dd4d103cc2dd168d3f00bba9b563ae54144dbb6",
            "verdicts": "485872e79fa3c938620852cc5d42b8b6aa89ef1d15ede8f45bbd9ba7ae2d423f",
            "sandbox": "c2ed7dbc2e8357194930c2edbef27e3e6f6bb2118d5cb3aff73c76df6c4b57c3",
            "stats": "b9ee3b7b6b85ee3314403a18ed1fb5d673865721a1f57f0eb06ac9e82ae6413b",
        }),
    "syn_flood_cookie": Case(
        gen=("--scenario", "syn_flood", "--seed", "7"),
        overrides=("tcp.syn_half_open_global=50", *_OPEN_L1),
        corner=_cookie_corner, pins={
            "manifest": "c2ebb3a1e529de1b64596fa7445f19f89aaaf783b9dec02008e34ed049993761",
            "trace": "817f9415726a92434867520b93a25d73a60a114e83eb2d7104dca0d3134d8a17",
            "verdicts": "31bcadc29ac58e47556dbfcc4dd3999a3a888de550dcae9c006da99a086374c5",
            "sandbox": "c19f4ae27da4ec3506583d5adb4394cf8a208954c34f2dfdb9f1fdb17e90c9f0",
            "stats": "067e0517f1d1d8e7b87e8900648b4851e47dfb2ad91b361fd82262108a33f809",
        }),
    "ack_flood_rings": Case(
        gen=("--scenario", "ack_flood", "--seed", "7"),
        overrides=(*_OPEN_L1, "tcp.window_secs=0.5", "tcp.bucket_count=5", "tcp.ack_flood_per_source=20",
                   "tcp.handshake_timeout_secs=0.05"),
        corner=_rings_corner, pins={
            "manifest": "3be63855b402f9fcec48e1faa95a4315831f213050f7ed72676e9f7dae4cdaf1",
            "trace": "4651c1d50b5befaea16c131730da38d2bf33de488387be069c1d8d13e32e6d8d",
            "verdicts": "cf8e4f6130c8c91e8906f6d32e28fc40161a6c64ffdaa345c6fe777723499a2f",
            "sandbox": "c3664b52e5030e6e4a26c97f8adde61eddc6e2c2a99d1c41549a13e32fb1bee0",
            "stats": "662b0b8522907620e0da0f06df9a644fa8e01537d3862dea92e334250488a7b0",
        }),
}


def run_case(name: str) -> dict:
    """Build row ``name``'s inputs in the working directory, run them,
    assert its corner and return the sha256 of each file it pins."""
    case = CASES[name]
    if case.feed:
        Path("feed.txt").write_text(case.feed, encoding="utf-8")
    assert cli.main(["gen", *case.gen, "--out", "trace.jsonl"]) == 0
    sums = {"manifest": _sha256("trace.jsonl.manifest.json")}
    if case.lines:
        sums["gen"] = _sha256("trace.jsonl")
        with open("trace.jsonl", "ab") as fh:
            fh.write("".join(case.lines).encode("utf-8"))
    sums["trace"] = _sha256("trace.jsonl")
    traces = ["trace"]
    if case.blank:
        lines = Path("trace.jsonl").read_bytes().splitlines(keepends=True)
        Path("blank.jsonl").write_bytes(b"".join(lines[:100]) + b"\n \t\r\n" + b"".join(lines[100:]) + b"\n")
        sums["blank"] = _sha256("blank.jsonl")
        traces.append("blank")
    outputs = []
    for trace in traces:
        out = {"verdicts": f"verdicts-{trace}.jsonl", "sandbox": f"sandbox-{trace}.jsonl",
               "stats": f"stats-{trace}.json"}
        argv = ["run", "--trace", f"{trace}.jsonl", "--out", out["verdicts"], "--stats", out["stats"],
                "--set", f"sandbox.log_path={out['sandbox']}", *(["--lenient"] if case.lenient else [])]
        for item in case.overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        outputs.append({key: _sha256(path) for key, path in out.items()})
    assert outputs[-1] == outputs[0]  # the blank-line copy, where there is one
    with open("verdicts-trace.jsonl", encoding="utf-8") as fh:
        verdicts = [json.loads(line) for line in fh]
    stats = json.loads(Path("stats-trace.json").read_text(encoding="utf-8"))
    case.corner(verdicts, stats, Path("sandbox-trace.jsonl").read_bytes())
    return {**sums, **outputs[0]}


@pytest.mark.parametrize("name", CASES)
def test_case_outputs_match_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name) == CASES[name].pins
