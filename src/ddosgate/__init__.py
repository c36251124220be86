"""Trace-driven, four-layer DDoS mitigation pipeline.

Layers, in fixed order: per-source token-bucket rate limiting, CIDR
blacklist rejection, TCP/UDP header analysis (half-open tracking, SYN
cookies, checksum validation), and a rule-based HTTP WAF. Everything a
layer blocks is dropped, rejected, or diverted to a sandbox capture
sink; every event gets exactly one verdict. A seeded traffic generator
produces labeled benign and attack traces for end-to-end evaluation.
"""

from .events import TraceEvent, Verdict, parse_trace_event, serialize_trace_event
from .pipeline import Engine, EngineConfig, SandboxSink
from .trafficgen import Scenario, generate

__version__ = "0.1.0"

__all__ = [
    "TraceEvent",
    "Verdict",
    "parse_trace_event",
    "serialize_trace_event",
    "Engine",
    "EngineConfig",
    "SandboxSink",
    "Scenario",
    "generate",
    "__version__",
]
