"""The names ``benchmarks/spine/`` reaches for in ``src/`` must exist.

Tier-1 does not collect ``benchmarks/spine`` and the spine's files may not
change with the code they measure, so a rename under ``src/repro`` would
otherwise break the benchmark silently.  Parsed, not imported: the spine
modules import each other through their own ``sys.path`` set-up.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from repro.metrics.leadership import analyze_leadership
from repro.metrics.trace import TraceEvent
from repro.metrics.usage import UsageMeter
from repro.net.message import Message
from repro.runtime.realtime import TransportStats, UdpTransport

SPINE = Path(__file__).resolve().parents[1] / "benchmarks" / "spine"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SPINE.glob("*.py"))}
IMPORTS = sorted({
    (node.module, alias.name)
    for tree in TREES.values()
    for node in ast.walk(tree)
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
    for alias in node.names
})


def test_every_name_the_spine_imports_from_repro_resolves():
    assert len(IMPORTS) > 10  # the parse found the import lines at all
    missing = [
        f"{module}.{name}"
        for module, name in IMPORTS
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_keyword_the_spine_passes_to_a_repro_callable_is_a_parameter():
    """``ExperimentConfig(fd_plane=...)``, ``ServiceConfig(default_qos=...)``
    and the rest: a renamed field would only fail when the spine runs."""
    imported = {name: getattr(importlib.import_module(module), name) for module, name in IMPORTS}
    calls = [
        (node.func.id, keyword.arg)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in imported
        for keyword in node.keywords
        if keyword.arg is not None
    ]
    assert {"ExperimentConfig", "ServiceConfig", "FDQoS"} <= {name for name, _ in calls}
    unknown = [
        f"{name}({keyword}=...)"
        for name, keyword in calls
        if keyword not in inspect.signature(imported[name]).parameters
    ]
    assert unknown == []


def test_stat_fields_are_transport_stats_fields():
    (stat_fields,) = [
        ast.literal_eval(node.value)
        for node in TREES["liveload.py"].body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["STAT_FIELDS"]
    ]
    assert stat_fields
    assert set(stat_fields) <= {f.name for f in dataclasses.fields(TransportStats)}


def test_udp_transport_keeps_send_batch():
    # The spine's CountingTransport forwards send_batch unconditionally.
    assert callable(UdpTransport.send_batch)


def _attributes_read_through(name: str) -> set:
    """Attribute names the spine reads off ``name`` or ``<anything>.name``."""
    return {
        node.attr
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and name in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    }


def test_what_the_spine_reads_off_a_usage_meter_exists():
    """``node.meter.reset_counters()``, ``.report(span)``, ``.bytes_sent``,
    ``.messages_received``: read at run time, so a renamed meter field
    would only fail when the benchmark runs."""
    read = _attributes_read_through("meter")
    assert {"reset_counters", "report", "bytes_sent", "messages_received"} <= read
    meter = UsageMeter()
    assert [name for name in sorted(read) if not hasattr(meter, name)] == []


def test_the_spine_splits_frame_bytes_by_wire_shares():
    # tracing.CountingTransport reads message.wire_shares() per frame with cells.
    assert "wire_shares" in _attributes_read_through("message")
    assert callable(Message.wire_shares)


def test_what_the_spine_reads_off_the_leadership_fold_exists():
    """``simload`` reads T_r, censoring, availability, disruptions and λu
    off ``analyze_leadership``'s result, and each recovery sample's
    ``.duration`` (``tracing.fold_episodes`` its times and crashed leader):
    a refactor of the fold must keep every one of them."""
    read = _attributes_read_through("leadership")
    assert {
        "recovery_samples", "censored_recoveries", "availability", "disruptions",
        "mistake_rate",
    } <= read
    sample_read = _attributes_read_through("sample")
    assert "duration" in sample_read
    trace = [
        TraceEvent(time=0.0, kind="join", group=1, pid=0, node=0),
        TraceEvent(time=0.0, kind="join", group=1, pid=1, node=1),
        TraceEvent(time=1.0, kind="view", group=1, pid=0, leader=0),
        TraceEvent(time=1.0, kind="view", group=1, pid=1, leader=0),
        TraceEvent(time=2.0, kind="crash", node=0),
        TraceEvent(time=3.0, kind="view", group=1, pid=1, leader=1),
    ]
    leadership = analyze_leadership(trace, group=1, end_time=4.0)
    assert [name for name in sorted(read) if not hasattr(leadership, name)] == []
    (sample,) = leadership.recovery_samples
    assert [name for name in sorted(sample_read) if not hasattr(sample, name)] == []
    assert sample.duration == 1.0 and leadership.availability == 0.5
