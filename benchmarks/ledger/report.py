"""Plain-text and markdown rendering of ledger results."""

from __future__ import annotations

from typing import List, Sequence

from benchmarks.ledger.spec import EXTRA_E2E, LEDGER_DIR

README_PATH = LEDGER_DIR / "README.md"
BEGIN_MARK = "<!-- results:begin (generated by `python -m benchmarks.ledger`; do not edit) -->"
END_MARK = "<!-- results:end -->"

#: Per-layer metrics worth a column in the README's attribution table:
#: host self-seconds of the layers the issue's predictions are about.
ENGINE_SIDE = (
    "sim.engine.run_self_s", "sim.fluid.add_self_s", "sim.fluid.settle_self_s",
    "sim.fluid.rerate_self_s", "sim.fluid.completion_self_s",
    "device.assign_self_s", "device.observe_self_s", "sim.domains.assign_self_s",
    "core.kway.frontier_self_s",
)
DATA_SIDE = ("storage.io_self_s", "records.generate_self_s", "records.validate_self_s")


def fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.6g}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    line = lambda row: "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()  # noqa: E731
    return "\n".join([line(headers), line(["-" * w for w in widths])] + [line(r) for r in cells])


def render_markdown(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    out += ["| " + " | ".join(fmt(c) for c in row) + " |" for row in rows]
    return "\n".join(out)


def render_run(result: dict, line: dict, contract: dict) -> str:
    """Every metric of one run, by name, with its unit."""
    head = (
        f"{result['workload']}  seed={result['seed']}  trace={result['trace']}  "
        f"iterations={result['iterations']}  checks={result['attempted']} "
        f"(failed {result['failed']})"
    )
    rows = [(name, m["value"], m["unit"]) for name, m in line["metrics"].items()]
    if not result["trace"]:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        rows += [
            (name, value, EXTRA_E2E[name].unit + "  (not in BENCHMARK.json)")
            for name, value in result["extra"].items()
        ]
        rows += [
            (name, value, units[name] + "  (informational)")
            for name, value in result["info"].items()
        ]
    return head + "\n" + render_table(["metric", "value", "unit"], rows)


def _e2e_rows(results: dict, contract: dict) -> List[list]:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    units.update({name: spec.unit for name, spec in EXTRA_E2E.items()})
    workloads = list(results["workloads"])
    rows = []
    for metric in units:
        row = [metric, units[metric]]
        for name in workloads:
            entry = results["workloads"][name]
            if metric in entry["e2e"]:
                row.append(entry["e2e"][metric])
            elif name in EXTRA_E2E[metric].workloads:
                row.append(entry["extra"][metric])
            else:
                row.append("")  # not an end-to-end metric of this workload
        rows.append(row)
    rows.append(["iterations pooled", "count"] + [
        results["workloads"][n]["iterations"] for n in workloads
    ])
    rows.append(["raw user CPU per iteration, quartiles", "s"] + [
        " / ".join(f"{q:.3g}" for q in results["workloads"][n]["host_user_s_quartiles"])
        for n in workloads
    ])
    return rows


def _attribution_rows(results: dict) -> List[list]:
    rows = []
    for name, entry in results["workloads"].items():
        layers = entry.get("layers")
        if layers is None:
            continue
        total = sum(v for k, v in layers.items() if k.endswith("_self_s"))
        engine = sum(layers[k] for k in ENGINE_SIDE)
        data = sum(layers[k] for k in DATA_SIDE)
        rows.append([
            name, total, f"{engine / total:.0%}", f"{data / total:.0%}",
            f"{1 - (engine + data) / total:.0%}",
            layers["sim.engine.steps"], layers["sim.engine.host_us_per_step"],
            layers["bench.trace_overhead"],
        ])
    return rows


ATTRIBUTION_HEADERS = [
    "workload", "traced iteration s", "engine+fluid+device+kway", "storage+records",
    "other layers", "engine steps", "host us/step", "trace overhead",
]


def render_set(results: dict, contract: dict) -> str:
    workloads = list(results["workloads"])
    parts = [
        f"ledger set  seed={results['seed']}  seconds/run={results['seconds']}",
        render_table(["metric", "unit"] + workloads, _e2e_rows(results, contract)),
        "",
        render_table(ATTRIBUTION_HEADERS, _attribution_rows(results)),
    ]
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name in workloads:
        layers = results["workloads"][name].get("layers")
        if layers:
            parts += ["", f"per-layer metrics: {name}", render_table(
                ["metric", "value", "unit"],
                [(k, v, units.get(k, "")) for k, v in sorted(layers.items())],
            )]
    return "\n".join(parts)


def update_readme(results: dict, contract: dict) -> None:
    """Regenerate the results section of the README from ``results``."""
    workloads = list(results["workloads"])
    body = "\n\n".join([
        BEGIN_MARK,
        f"Last set: seed {results['seed']}, {results['seconds']:g} timed seconds per run, "
        "two runs per workload pooled (host metrics: mean of the two runs; `sim_*` and "
        "`paper_err`: exact).",
        render_markdown(["metric", "unit"] + workloads, _e2e_rows(results, contract)),
        "Where the traced iteration's host time went (self seconds, shares of the root span):",
        render_markdown(ATTRIBUTION_HEADERS, _attribution_rows(results)),
        END_MARK,
    ])
    text = README_PATH.read_text(encoding="utf-8")
    begin, end = text.index(BEGIN_MARK), text.index(END_MARK) + len(END_MARK)
    README_PATH.write_text(text[:begin] + body + text[end:], encoding="utf-8")
