"""Trace exporters: Chrome/Perfetto JSON, JSONL spans, text rollups.

The Chrome ``trace_event`` export opens directly in
https://ui.perfetto.dev or ``chrome://tracing``: each machine/shard
track becomes a process row, each coroutine a thread row, spans render
as nested slices, per-op device events as slices with byte/class/
amplification/interference args, and bandwidth/DRAM/queue-depth
samples as counter tracks.  Timestamps are *simulated* microseconds.

All exports are deterministic: ids are per-tracer sequence numbers,
pids/tids are assigned by first appearance, and JSON is dumped with
sorted keys and fixed separators -- two runs of the same seed produce
byte-identical files (this is CI-gated).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.trace.tracer import Tracer
from repro.units import fmt_bytes, fmt_seconds

_JSON_KW = {"sort_keys": True, "separators": (",", ":")}


def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds (float; sub-us ops are
    common at PMEM speeds and Perfetto accepts fractional timestamps)."""
    return t * 1e6


class _TrackIds:
    """Deterministic pid/tid assignment by first appearance."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}

    def pid(self, track: str) -> int:
        pid = self._pids.get(track)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[track] = pid
        return pid

    def tid(self, pid: int, proc: str) -> int:
        key = (pid, proc)
        tid = self._tids.get(key)
        if tid is None:
            # tid 0 is reserved for counter tracks on every process row.
            tid = sum(1 for (p, _), _t in self._tids.items() if p == pid) + 1
            self._tids[key] = tid
        return tid

    def metadata_events(self) -> List[dict]:
        events: List[dict] = []
        for track, pid in self._pids.items():
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": track},
                }
            )
        for (pid, proc), tid in self._tids.items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": proc},
                }
            )
        return events


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """The ``traceEvents`` list for one tracer, in deterministic order."""
    ids = _TrackIds()
    end = tracer.end_time()
    body: List[dict] = []

    for span in tracer.spans:
        pid = ids.pid(span.track)
        tid = ids.tid(pid, span.proc)
        t1 = span.t1 if span.t1 is not None else end
        args = dict(span.args) if span.args else {}
        if span.t1 is None:
            args["unclosed"] = True
        event = {
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "pid": pid,
            "tid": tid,
            "ts": _us(span.t0),
            "dur": _us(t1 - span.t0),
            "id": span.sid,
        }
        if args:
            event["args"] = args
        body.append(event)

    for rec in tracer.ops:
        pid = ids.pid(rec["track"])
        tid = ids.tid(pid, rec["proc"])
        t1 = rec["t1"] if rec["t1"] is not None else end
        if rec["kind"] == "io":
            args = {
                "class": f"{rec['direction']}/{rec['pattern']}",
                "bytes": rec["bytes"],
                "work": rec["work"],
                "amplification": rec["amplification"],
                "threads": rec["threads"],
            }
            if "interference" in rec:
                args["interference"] = rec["interference"]
        else:
            args = {
                "class": f"cpu/{rec.get('mode', 'compute')}",
                "work": rec["work"],
            }
        if rec["phase"] is not None:
            args["phase"] = rec["phase"]
        body.append(
            {
                "ph": "X",
                "name": rec["tag"] or rec["kind"],
                "cat": f"op.{rec['kind']}",
                "pid": pid,
                "tid": tid,
                "ts": _us(rec["t0"]),
                "dur": _us(t1 - rec["t0"]),
                "id": rec["oid"],
                "args": args,
            }
        )

    for t, track, series, value in tracer.counters:
        pid = ids.pid(track)
        body.append(
            {
                "ph": "C",
                "name": series,
                "pid": pid,
                "tid": 0,
                "ts": _us(t),
                "args": {"value": value},
            }
        )

    for ev in tracer.instants:
        pid = ids.pid(ev["track"])
        tid = ids.tid(pid, ev["proc"])
        event = {
            "ph": "i",
            "s": "t",
            "name": ev["name"],
            "cat": ev["cat"],
            "pid": pid,
            "tid": tid,
            "ts": _us(ev["t"]),
        }
        if ev["args"]:
            event["args"] = ev["args"]
        body.append(event)

    return ids.metadata_events() + body


def dumps_chrome_trace(tracer: Tracer) -> str:
    """Serialize to a byte-deterministic Chrome trace JSON string."""
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "source": "repro.trace"},
        "traceEvents": chrome_trace_events(tracer),
    }
    return json.dumps(doc, **_JSON_KW)


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_chrome_trace(tracer))
        fh.write("\n")


def write_report_json(doc, path: str) -> None:
    """Write a schema-stamped report as canonical byte-deterministic JSON.

    ``doc`` may be a plain dict or anything with an ``as_dict()`` (an
    :class:`~repro.trace.analyze.AnalysisReport`, a
    :class:`~repro.cluster.service.ServiceReport`).  The canonical form
    -- sorted keys, no whitespace, trailing newline -- is what the CI
    byte-identity gates ``cmp`` against.
    """
    if hasattr(doc, "as_dict"):
        doc = doc.as_dict()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, **_JSON_KW))
        fh.write("\n")


def load_report_json(path: str) -> dict:
    """Load a report JSON document (for :func:`repro.trace.diff_reports`)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object report document")
    return doc


def spans_jsonl(tracer: Tracer) -> str:
    """One JSON object per span, issue order, sorted keys per line."""
    return "\n".join(
        json.dumps(span.as_dict(), **_JSON_KW) for span in tracer.spans
    )


def write_spans_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        text = spans_jsonl(tracer)
        if text:
            fh.write(text)
            fh.write("\n")


# ----------------------------------------------------------------------
# Text phase rollup (flamegraph-style)
# ----------------------------------------------------------------------
def render_phase_rollup(tracer: Tracer) -> str:
    """Indented span tree with inclusive times plus a traffic table
    grouped by phase x device class x track."""
    end = tracer.end_time()
    lines: List[str] = ["phase rollup (simulated time)"]
    children: Dict[Optional[int], List] = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)

    # Direct per-span op aggregates.
    direct: Dict[Optional[int], List[float]] = {}
    for rec in tracer.ops:
        slot = direct.setdefault(rec["span"], [0.0, 0.0, 0])
        if rec["kind"] == "io":
            if rec["direction"] == "read":
                slot[0] += rec["bytes"]
            else:
                slot[1] += rec["bytes"]
        slot[2] += 1

    def walk(span, depth: int) -> None:
        t1 = span.t1 if span.t1 is not None else end
        agg = [0.0, 0.0, 0]

        def fold(s) -> None:
            d = direct.get(s.sid)
            if d is not None:
                agg[0] += d[0]
                agg[1] += d[1]
                agg[2] += d[2]
            for child in children.get(s.sid, ()):
                fold(child)

        fold(span)
        label = f"{'  ' * depth}{span.name}"
        detail = f"{fmt_seconds(t1 - span.t0)}"
        if agg[2]:
            detail += (
                f"  r {fmt_bytes(agg[0])}  w {fmt_bytes(agg[1])}"
                f"  ops {agg[2]}"
            )
        if span.t1 is None:
            detail += "  (unclosed)"
        lines.append(f"  {label:<34s} {detail}")
        for child in children.get(span.sid, ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    if len(lines) == 1:
        lines.append("  (no spans recorded)")

    rows = tracer.rollup_rows()
    if rows:
        lines.append("")
        lines.append("traffic by phase x class x track")
        header = (
            f"  {'phase':<24s} {'tag':<18s} {'class':<14s} "
            f"{'track':<10s} {'user':>10s} {'work':>10s} {'ops':>6s}"
        )
        lines.append(header)
        for phase, tag, klass, track, user, work, n_ops in rows:
            lines.append(
                f"  {phase:<24s} {tag:<18s} {klass:<14s} {track:<10s} "
                f"{fmt_bytes(user):>10s} {fmt_bytes(work):>10s} {n_ops:>6d}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace-report: summarize an exported Chrome trace JSON file
# ----------------------------------------------------------------------
_NUMBER = (int, float)
_TIMES = {"ts": (_NUMBER, 0.0), "dur": (_NUMBER, 0.0)}
#: What :func:`render_trace_report` reads from an event, by kind: dotted
#: path -> (types, default if absent); a ``None`` default is required.
_EVENT_FIELDS = {
    "M": {"name": (str, None)},
    "process_name": {"pid": ((int, str), None), "args.name": (str, None)},
    "op": {**_TIMES, "args": (dict, {}), "args.class": (str, ""),
           "args.bytes": (_NUMBER, 0.0), "args.work": (_NUMBER, 0.0)},
    "X": {**_TIMES, "cat": (str, ""), "name": (str, None)},
    "C": {**_TIMES, "pid": ((int, str), None), "name": (str, None),
          "args.value": (_NUMBER, None)},
}


def load_chrome_trace(path: str) -> dict:
    """Load an exported trace; ``ValueError`` names the first event
    :func:`render_trace_report` could not read."""
    with open(path) as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents list)")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"{path}: event #{i} is {ev!r}, not an object")
        kind = ev.get("ph")
        if kind == "X" and str(ev.get("cat", "")).startswith("op."):
            kind = "op"
        elif kind == "M" and ev.get("name") == "process_name":
            kind = "process_name"
        for field, (types, default) in _EVENT_FIELDS.get(kind, _TIMES).items():
            value = ev
            for key in field.split("."):
                value = value.get(key, default) if isinstance(value, dict) else default
            if not isinstance(value, types):
                raise ValueError(f"{path}: event #{i} {field} is {value!r}")
    return doc


def render_trace_report(doc: dict, source: str = "trace") -> str:
    """Offline summary of an exported trace file: span aggregates by
    name, device traffic by class, counter maxima."""
    events = doc["traceEvents"]
    pids: Dict[int, str] = {}
    spans: Dict[str, List[float]] = {}
    klasses: Dict[str, List[float]] = {}
    counters: Dict[Tuple[str, str], float] = {}
    t_lo: Optional[float] = None
    t_hi = 0.0
    n_spans = 0
    n_ops = 0
    n_instants = 0
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            if ev["name"] == "process_name":
                pids[ev["pid"]] = ev["args"]["name"]
            continue
        ts = ev.get("ts", 0.0)
        t_end = ts + ev.get("dur", 0.0)
        t_lo = ts if t_lo is None or ts < t_lo else t_lo
        t_hi = t_end if t_end > t_hi else t_hi
        if ph == "X":
            cat = ev.get("cat", "")
            if cat.startswith("op."):
                n_ops += 1
                args = ev.get("args", {})
                slot = klasses.setdefault(
                    args.get("class", cat), [0.0, 0.0, 0]
                )
                slot[0] += args.get("bytes", 0.0)
                slot[1] += args.get("work", 0.0)
                slot[2] += 1
            else:
                n_spans += 1
                slot = spans.setdefault(ev["name"], [0.0, 0])
                slot[0] += ev.get("dur", 0.0)
                slot[1] += 1
        elif ph == "C":
            track = pids.get(ev["pid"], str(ev["pid"]))
            key = (track, ev["name"])
            value = ev["args"]["value"]
            if value > counters.get(key, float("-inf")):
                counters[key] = value
        elif ph == "i":
            n_instants += 1

    lines = [f"trace report: {source}"]
    if t_lo is not None:
        lines.append(
            f"  window : {fmt_seconds(t_lo / 1e6)} .. "
            f"{fmt_seconds(t_hi / 1e6)} (simulated)"
        )
    lines.append(
        f"  events : {len(events)} total, {n_spans} spans, "
        f"{n_ops} ops, {n_instants} instants"
    )
    if spans:
        width = max(28, max(len(n) for n in spans))
        lines.append("")
        lines.append(f"  {'span':<{width}s} {'count':>6s} {'total':>12s}")
        for name in sorted(spans, key=lambda n: -spans[n][0]):
            dur, count = spans[name]
            lines.append(
                f"  {name:<{width}s} {count:>6d} "
                f"{fmt_seconds(dur / 1e6):>12s}"
            )
    if klasses:
        lines.append("")
        lines.append(
            f"  {'device class':<20s} {'ops':>6s} {'user':>10s} {'work':>10s}"
        )
        for klass in sorted(klasses, key=lambda k: -klasses[k][1]):
            user, work, count = klasses[klass]
            lines.append(
                f"  {klass:<20s} {count:>6d} "
                f"{fmt_bytes(user):>10s} {fmt_bytes(work):>10s}"
            )
    if counters:
        lines.append("")
        lines.append(f"  {'counter':<28s} {'max':>14s}")
        for (track, series), peak in sorted(counters.items()):
            lines.append(f"  {track + '/' + series:<28s} {peak:>14g}")
    return "\n".join(lines)
