"""Offline trace analytics: where did the simulated time go?

Consumes a :class:`~repro.trace.Tracer` armed with ``analyze=True``
(blocked-reason wait records, see :mod:`repro.trace.critical_path`) and
produces:

* a **phase decomposition** -- every ``sort``/``phase`` span split into
  device-busy / queueing / DRAM-stall / net / cpu components that sum
  exactly to the span duration, plus a per-device blame table;
* **what-if projections** -- Amdahl-style re-walks of the attributed
  segments under a hypothetical change (``braid.write_bw*2``,
  ``dram+4GiB``): only the affected segments shrink, everything else is
  assumed invariant;
* **regression diffing** -- :func:`diff_reports` compares two
  schema-stamped JSON documents (analysis or service reports) with
  relative thresholds, the engine behind ``python -m repro trace-diff``.

All outputs are byte-deterministic: same seed, same report bytes.

What-if limits (also in DESIGN.md): the estimator scales the critical
path's *attributed* segments and nothing else.  It cannot see second-
order effects -- rebalanced thread pools, interference multipliers
changing with rates, a different merge fan-in chosen under a bigger
DRAM budget -- so projections are upper bounds on phases dominated by
the scaled resource and looser elsewhere.  The acceptance bar (and the
validation test) is agreement within 15% against an actual re-run for
a write-bandwidth change on a write-dominated BRAID workload.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError, SchemaMismatchError
from repro.trace.critical_path import (
    CATEGORIES,
    CriticalPath,
    Segment,
    blame_table,
)
from repro.trace.tracer import Tracer

#: Version stamp shared with :class:`repro.cluster.service.ServiceReport`;
#: ``trace-diff`` refuses to compare documents whose stamps disagree.
REPORT_SCHEMA = 1

#: Canonical JSON rendering for byte-deterministic reports.
_JSON_KW = {"sort_keys": True, "separators": (",", ":")}

_BW_RE = re.compile(
    r"^(?:(?P<scope>[A-Za-z0-9_.-]+)\.)?"
    r"(?P<metric>write_bw|read_bw|net_bw|link_bw)"
    r"\*(?P<factor>[0-9.eE+-]+)$"
)
_DRAM_RE = re.compile(
    r"^dram\+(?P<amount>[0-9.]+)\s*(?P<unit>[KMGT]i?B|B)?$", re.IGNORECASE
)


@dataclass(frozen=True)
class WhatIf:
    """One parsed hypothesis.

    ``kind`` is ``"bw"`` (scale segments of one direction/class by
    ``factor``) or ``"dram"`` (added DRAM; stalls drop to zero).
    ``scope`` optionally names a device track to narrow a ``bw``
    hypothesis; a scope matching no track applies everywhere (it names
    the profile, not the track).
    """

    expr: str
    kind: str
    metric: str = ""
    factor: float = 1.0
    scope: Optional[str] = None
    extra_bytes: int = 0


_UNIT_BYTES = {
    "b": 1,
    "kb": 10**3, "kib": 2**10,
    "mb": 10**6, "mib": 2**20,
    "gb": 10**9, "gib": 2**30,
    "tb": 10**12, "tib": 2**40,
}


def parse_what_if(expr: str) -> WhatIf:
    """Parse ``braid.write_bw*2`` / ``net_bw*4`` / ``dram+4GiB``."""
    text = expr.strip()
    m = _BW_RE.match(text)
    if m is not None:
        try:
            factor = float(m.group("factor"))
        except ValueError:
            raise ConfigError(f"bad what-if factor in {expr!r}") from None
        if factor <= 0:
            raise ConfigError(f"what-if factor must be > 0 in {expr!r}")
        return WhatIf(
            expr=text,
            kind="bw",
            metric=m.group("metric"),
            factor=factor,
            scope=m.group("scope"),
        )
    m = _DRAM_RE.match(text)
    if m is not None:
        unit = (m.group("unit") or "GiB").lower()
        nbytes = int(float(m.group("amount")) * _UNIT_BYTES[unit])
        if nbytes <= 0:
            raise ConfigError(f"what-if DRAM amount must be > 0 in {expr!r}")
        return WhatIf(expr=text, kind="dram", extra_bytes=nbytes)
    raise ConfigError(
        f"bad what-if expression {expr!r}; expected e.g. "
        f"'braid.write_bw*2', 'read_bw*1.5', 'net_bw*4' or 'dram+4GiB'"
    )


@dataclass
class PhaseBreakdown:
    """One decomposed span: components sum exactly to ``duration``."""

    name: str
    sid: int
    track: str
    t0: float
    t1: float
    duration: float
    components: Dict[str, float]
    blame: List[Tuple[str, str, float]]
    segments: List[Segment] = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "sid": self.sid,
            "track": self.track,
            "t0": self.t0,
            "t1": self.t1,
            "duration": self.duration,
            "components": {c: self.components[c] for c in CATEGORIES},
            "blame": [
                {"category": cat, "blame": blame, "seconds": secs}
                for cat, blame, secs in self.blame
            ],
        }


@dataclass
class AnalysisReport:
    """Phase decomposition of one analyze-mode traced run."""

    phases: List[PhaseBreakdown]
    n_waits: int = 0
    n_procs: int = 0

    def phase(self, name: str) -> PhaseBreakdown:
        for ph in self.phases:
            if ph.name == name:
                return ph
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "analysis",
            "n_waits": self.n_waits,
            "n_procs": self.n_procs,
            "phases": [ph.as_dict() for ph in self.phases],
        }

    def to_json(self) -> str:
        """Canonical byte-deterministic JSON."""
        return json.dumps(self.as_dict(), **_JSON_KW)

    # ------------------------------------------------------------------
    def render(self, blame_rows: int = 6) -> str:
        """Deterministic plain-text decomposition + blame tables."""
        head = (
            f"{'phase':<28} {'duration':>12} "
            + " ".join(f"{c:>12}" for c in CATEGORIES)
        )
        lines = ["critical-path decomposition (simulated seconds)", head]
        for ph in self.phases:
            lines.append(
                f"{ph.name:<28} {ph.duration:>12.6g} "
                + " ".join(f"{ph.components[c]:>12.6g}" for c in CATEGORIES)
            )
        lines.append("")
        lines.append("blame (top contributors per phase)")
        for ph in self.phases:
            if not ph.blame:
                continue
            lines.append(f"  {ph.name}")
            for cat, blame, secs in ph.blame[:blame_rows]:
                share = secs / ph.duration if ph.duration > 0 else 0.0
                lines.append(
                    f"    {cat:<12} {blame:<24} {secs:>12.6g}  "
                    f"{share:>6.1%}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def what_if(self, hypothesis: Union[str, WhatIf]) -> dict:
        """Project each phase (and the total) under ``hypothesis``.

        Affected segments are re-timed (``duration / factor`` for a
        bandwidth change, zero for added DRAM); everything else on the
        critical path is held fixed.  Returns a JSON-safe dict with
        per-phase projected durations and speedups.
        """
        wi = parse_what_if(hypothesis) if isinstance(hypothesis, str) else hypothesis
        tracks = {
            seg.track
            for ph in self.phases
            for seg in ph.segments
            if seg.track is not None
        }
        scoped = wi.scope if wi.scope in tracks else None
        rows = []
        for ph in self.phases:
            affected = 0.0
            scaled = 0.0
            for seg in ph.segments:
                if not self._segment_affected(seg, wi, scoped):
                    continue
                affected += seg.duration
                if wi.kind == "bw":
                    scaled += seg.duration / wi.factor
                # dram: stalls vanish entirely (scaled += 0)
            projected = ph.duration - affected + scaled
            rows.append({
                "name": ph.name,
                "duration": ph.duration,
                "affected": affected,
                "projected": projected,
                "speedup": ph.duration / projected if projected > 0 else 0.0,
            })
        return {
            "schema": REPORT_SCHEMA,
            "kind": "what_if",
            "expr": wi.expr,
            "phases": rows,
        }

    @staticmethod
    def _segment_affected(seg: Segment, wi: WhatIf, scope: Optional[str]) -> bool:
        if wi.kind == "dram":
            return seg.category == "dram_stall"
        if wi.metric in ("net_bw", "link_bw"):
            return seg.category == "net"
        if seg.category != "device_busy":
            return False
        if scope is not None and seg.track != scope:
            return False
        direction = "write" if wi.metric == "write_bw" else "read"
        return seg.direction == direction

    @staticmethod
    def render_what_if(projection: dict) -> str:
        lines = [
            f"what-if {projection['expr']}: projected phase times",
            f"{'phase':<28} {'now':>12} {'projected':>12} {'speedup':>9}",
        ]
        for row in projection["phases"]:
            lines.append(
                f"{row['name']:<28} {row['duration']:>12.6g} "
                f"{row['projected']:>12.6g} {row['speedup']:>8.3g}x"
            )
        return "\n".join(lines)


def analyze_tracer(tracer: Tracer) -> AnalysisReport:
    """Build the phase decomposition from an analyze-armed tracer."""
    if not tracer.analyze:
        raise ConfigError(
            "tracer was not armed for analysis; construct it with "
            "Tracer(analyze=True) (or run `repro analyze`)"
        )
    cp = CriticalPath(tracer)
    phases: List[PhaseBreakdown] = []
    for span in tracer.spans:
        if span.cat not in ("sort", "phase"):
            continue
        t1 = span.t1 if span.t1 is not None else tracer.end_time()
        comp, segments = cp.decompose(span)
        phases.append(
            PhaseBreakdown(
                name=span.name,
                sid=span.sid,
                track=span.track,
                t0=span.t0,
                t1=t1,
                duration=t1 - span.t0,
                components=comp,
                blame=blame_table(segments),
                segments=segments,
            )
        )
    return AnalysisReport(
        phases=phases, n_waits=len(tracer.waits), n_procs=len(tracer.procs)
    )


# ----------------------------------------------------------------------
# Regression diffing (``python -m repro trace-diff A B``)
# ----------------------------------------------------------------------
def _require_schema(doc: dict, label: str) -> int:
    schema = doc.get("schema")
    if schema is None:
        raise SchemaMismatchError(
            f"{label} has no 'schema' field; re-generate it with this "
            f"version of repro"
        )
    return schema


def _doc_kind(doc: dict) -> str:
    if "phases" in doc:
        return "analysis"
    if "percentiles" in doc:
        return "service"
    raise SchemaMismatchError(
        "unrecognised report document (expected an analysis report or a "
        "service report)"
    )


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaMismatchError(f"{where} is {value!r}, not an object")
    return value


def _field(obj, key: str, where: str):
    if key not in _mapping(obj, where):
        raise SchemaMismatchError(f"{where} has no {key!r} field")
    return obj[key]


def _analysis_rows(doc: dict, label: str) -> Dict[str, float]:
    phases = doc["phases"]
    if not isinstance(phases, list):
        raise SchemaMismatchError(f"{label} 'phases' is not a list")
    rows = {}
    for i, ph in enumerate(phases):
        name = _field(ph, "name", f"{label} phase #{i}")
        if not isinstance(name, str):
            raise SchemaMismatchError(f"{label} phase #{i} name is {name!r}")
        rows[name] = _field(ph, "duration", f"{label} phase {name!r}")
    return rows


def _service_rows(doc: dict, label: str) -> Dict[str, float]:
    rows = {"makespan": _field(doc, "makespan", label)}
    percentiles = _mapping(doc["percentiles"], f"{label} 'percentiles'")
    for metric, pcts in percentiles.items():
        where = f"{label} percentiles {metric!r}"
        for p, value in _mapping(pcts, where).items():
            rows[f"{metric}:{p}"] = value
    return rows


def _rows(extract, doc: dict, label: str) -> Dict[str, float]:
    """One document's ``{row: number}``; anything else in a row's place
    is a typed error naming the document and the row."""
    rows = extract(doc, label)
    for name, value in rows.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaMismatchError(
                f"{label} row {name!r} is {value!r}, not a number"
            )
    return rows


def diff_reports(
    doc_a: dict, doc_b: dict, threshold: float = 0.05
) -> dict:
    """Compare two schema-stamped report documents.

    A *regression* is a row (phase duration, service makespan or
    percentile) whose value grew by more than ``threshold``
    relative; shrinking rows are reported as improvements.  Raises
    :class:`~repro.errors.SchemaMismatchError` on schema or kind
    disagreements and on a malformed row, instead of a ``KeyError`` or
    ``TypeError`` deep in a comparison.
    """
    schema_a = _require_schema(doc_a, "document A")
    schema_b = _require_schema(doc_b, "document B")
    if schema_a != schema_b:
        raise SchemaMismatchError(
            f"schema mismatch: document A is v{schema_a}, document B is "
            f"v{schema_b}"
        )
    kind = _doc_kind(doc_a)
    kind_b = _doc_kind(doc_b)
    if kind != kind_b:
        raise SchemaMismatchError(
            f"document kinds differ: {kind} vs {kind_b}"
        )
    extract = {
        "analysis": _analysis_rows,
        "service": _service_rows,
    }[kind]
    rows_a = _rows(extract, doc_a, "document A")
    rows_b = _rows(extract, doc_b, "document B")
    regressions: List[dict] = []
    improvements: List[dict] = []
    missing: List[str] = sorted(
        set(rows_a).symmetric_difference(rows_b)
    )
    for name in sorted(set(rows_a) & set(rows_b)):
        old, new = rows_a[name], rows_b[name]
        if old == new:
            continue
        rel = (new - old) / old if old != 0 else float(new != old)
        row = {"name": name, "old": old, "new": new, "rel": rel}
        if rel > threshold:
            regressions.append(row)
        elif rel < -threshold:
            improvements.append(row)
    return {
        "schema": REPORT_SCHEMA,
        "kind": f"diff:{kind}",
        "threshold": threshold,
        "regressions": regressions,
        "improvements": improvements,
        "missing": missing,
    }


def render_diff(diff: dict) -> str:
    lines = [
        f"trace-diff ({diff['kind']}, threshold "
        f"{diff['threshold']:.1%}): "
        f"{len(diff['regressions'])} regression(s), "
        f"{len(diff['improvements'])} improvement(s)"
    ]
    for label, rows in (
        ("REGRESSION", diff["regressions"]),
        ("improvement", diff["improvements"]),
    ):
        for row in rows:
            lines.append(
                f"  {label} {row['name']}: {row['old']:.6g} -> "
                f"{row['new']:.6g} ({row['rel']:+.1%})"
            )
    for name in diff["missing"]:
        lines.append(f"  missing-in-one: {name}")
    return "\n".join(lines)
