"""Benchmark entry point for the VStoTO stack.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
separate traced run and prints every per-layer metric, writing its
spans to ``perfbench/out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sim-steady", "sim-churn", "live-paced")

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "cpu_us_per_delivery": "us",
    "cost_growth": "ratio",
    "rss_kb_per_delivery": "KB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "delivered_per_s": "1/s",
    "verify_us_per_delivery": "us",
}

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER: dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.compactions": "count",
    "net.packets": "count",
    "net.send_s": "s",
    "net.drops": "count",
    "net.delivered_ratio": "ratio",
    "ring.self_s": "s",
    "ring.tokens": "count",
    "ring.token_entries_per_forward": "ratio",
    "ring.trail_mean": "count",
    "ring.trail_max": "count",
    "ring.formations": "count",
    "ring.views": "count",
    "ring.retransmissions": "count",
    "ring.resyncs": "count",
    "ring.outage_max_ms": "ms",
    "ring.append_entries_per_batch": "ratio",
    "vstoto.self_s": "s",
    "vstoto.upcalls": "count",
    "vstoto.downcalls": "count",
    "vstoto.summaries": "count",
    "ioa.steps": "count",
    "ioa.step_s": "s",
    "ioa.enumerate_s": "s",
    "ioa.enumerations_per_step": "ratio",
    "ioa.preconditions_per_step": "ratio",
    "quorum.calls_per_delivery": "ratio",
    "wire.frames": "count",
    "wire.bytes_per_delivery": "B",
    "wire.entries_per_frame": "ratio",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "transport.send_s": "s",
    "transport.flushes": "count",
    "transport.entries_per_flush": "ratio",
    "transport.loop_errors": "count",
    "loop.lag_p50_ms": "ms",
    "loop.lag_p99_ms": "ms",
    "loop.busy_frac": "ratio",
    "gen.late_p99_ms": "ms",
    "log.records": "count",
    "log.record_s": "s",
    "log.bytes_per_delivery": "B",
    "verify.vs_s": "s",
    "verify.to_s": "s",
    "verify.events": "count",
    "mem.sim_kb_per_delivery": "KB",
    "mem.net_kb_per_delivery": "KB",
    "mem.ring_kb_per_delivery": "KB",
    "mem.vstoto_kb_per_delivery": "KB",
    "mem.ioa_kb_per_delivery": "KB",
    "mem.wire_kb_per_delivery": "KB",
    "mem.transport_kb_per_delivery": "KB",
    "mem.log_kb_per_delivery": "KB",
    "trace.overhead_frac": "ratio",
    "other.self_s": "s",
}

#: Throwaway set-ups before the first simulator episode; the reported
#: set-up time is the median over these and every episode's own.
SIM_EXTRA_SETUPS = 6
#: Simulator episodes per run, at least: distinct inputs drawn from the
#: seed, then the first one again, which must deliver the same content.
MIN_EPISODES = 4


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result(
    correct: bool,
    attempted: int,
    failed: int,
    values: dict[str, float],
    units: dict[str, str],
) -> dict[str, Any]:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def report_problems(problems: list[str]) -> None:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)


def report_raw(values: dict[str, float]) -> None:
    """The CPU metrics again from raw thread CPU, not normalised to the
    reference host, for comparing the two."""
    print(f"raw thread CPU: {json.dumps(values)}", file=sys.stderr)


# ----------------------------------------------------------------------
# Untraced runs: end-to-end metrics
# ----------------------------------------------------------------------
def sim_cpu_metrics(episodes: list[Any], raw: bool) -> dict[str, float]:
    """CPU metrics over the episodes: per chunk, the median over
    episodes, summed; normalised unless ``raw``."""
    from perfbench.sim import CHUNKS
    from perfbench.stats import median

    cpu = [median((e.raw_cpu if raw else e.cpu)[c] for e in episodes) for c in range(CHUNKS)]
    brcv = [median(e.brcv[c] for e in episodes) for c in range(CHUNKS)]
    half = CHUNKS // 2
    return {
        "cpu_us_per_delivery": 1e6 * sum(cpu) / sum(brcv),
        "cost_growth": (sum(cpu[half:]) / sum(brcv[half:]))
        / (sum(cpu[:half]) / sum(brcv[:half])),
        "delivered_per_s": sum(brcv) / sum(cpu),
        "verify_us_per_delivery": median(
            1e6 * (e.verify_s if raw else e.verify_norm_s) / e.verified for e in episodes
        ),
    }


def sim_end_to_end(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    from perfbench.gen import sim_inputs
    from perfbench.host import normalised_once
    from perfbench.sim import build, run_episode
    from perfbench.stats import median

    churn = workload == "sim-churn"
    first = sim_inputs(seed, 0, churn=churn)
    setups = [normalised_once(build, first)[1] for _ in range(SIM_EXTRA_SETUPS)]
    episodes = [run_episode(first)]
    while len(episodes) < MIN_EPISODES - 1 or sum(sum(e.wall) for e in episodes) < seconds:
        episodes.append(run_episode(sim_inputs(seed, len(episodes), churn=churn)))
    episodes.append(run_episode(first))
    setups += [e.setup_s for e in episodes]
    problems = [p for e in episodes for p in e.problems]
    if episodes[-1].digest != episodes[0].digest:
        problems.append("two episodes with the same inputs delivered different TO content")
    report_problems(problems)
    values = {
        "setup_s": median(setups),
        "rss_kb_per_delivery": episodes[0].rss_kb / episodes[0].deliveries,
        "latency_p50_ms": median(e.latency_p50 for e in episodes),
        "latency_p90_ms": median(e.latency_p90 for e in episodes),
        **sim_cpu_metrics(episodes, raw=False),
    }
    report_raw(sim_cpu_metrics(episodes, raw=True))
    attempted = sum(e.attempted for e in episodes)
    failed = attempted if problems else 0
    return result(not problems, attempted, failed, values, END_TO_END)


def live_end_to_end(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    from perfbench.live import run_live
    from perfbench.stats import median

    run = run_live(seed, seconds, OUT / f"{workload}-{seed}")
    report_problems(run.problems)
    cpu, raw, brcv = run.chunk_cpu, run.chunk_raw_cpu, run.chunk_brcv
    half = len(cpu) // 2
    values = {
        "setup_s": median(run.setup_s),
        "cpu_us_per_delivery": 1e6 * median(c / b for c, b in zip(cpu, brcv)),
        # From raw CPU: a ratio within one run, and a live chunk holds
        # too few slices for their reference samples to average out.
        "cost_growth": (sum(raw[half:]) / sum(brcv[half:]))
        / (sum(raw[:half]) / sum(brcv[:half])),
        "rss_kb_per_delivery": (run.samples[-1].rss_kb - run.samples[0].rss_kb)
        / sum(brcv),
        "latency_p50_ms": 1e3 * median(p50 for p50, _ in run.chunk_latency),
        "latency_p90_ms": 1e3 * median(p90 for _, p90 in run.chunk_latency),
        "delivered_per_s": median(b / w for b, w in zip(brcv, run.chunk_wall)),
        "verify_us_per_delivery": 1e6 * run.verify_norm_s / run.deliveries,
    }
    report_raw(
        {
            "cpu_us_per_delivery": 1e6 * median(c / b for c, b in zip(raw, brcv)),
            "verify_us_per_delivery": 1e6 * run.verify_s / run.deliveries,
        }
    )
    return result(not run.problems, run.attempted, run.failed, values, END_TO_END)


# ----------------------------------------------------------------------
# Traced runs: per-layer metrics
# ----------------------------------------------------------------------
def span_metrics(rec: Any, thread_cpu: float, deliveries: int) -> dict[str, float]:
    """Self times and the counts taken at the wrapped boundaries."""
    from perfbench.stats import ratio

    own = rec.self_seconds()
    counts = rec.counts
    steps = counts.get("ioa.step", 0)
    trails = list(rec.trails)
    return {
        "sim.self_s": own["sim"],
        "net.send_s": own["net"],
        "ring.self_s": own["ring"],
        "ring.tokens": len(trails),
        "ring.trail_mean": ratio(sum(trails), len(trails)),
        "ring.trail_max": max(trails, default=0),
        "ring.views": counts.get("vstoto.newview", 0),
        "vstoto.self_s": own["vstoto"],
        "vstoto.upcalls": sum(
            counts.get(k, 0) for k in ("vstoto.gprcv", "vstoto.safe", "vstoto.newview")
        ),
        "vstoto.downcalls": counts.get("ring.gpsnd", 0),
        "vstoto.summaries": counts.get("vstoto.summaries", 0),
        "ioa.steps": steps,
        "ioa.step_s": own["ioa.step"],
        "ioa.enumerate_s": own["ioa.enumerate"],
        "ioa.enumerations_per_step": ratio(counts.get("ioa.enumerate", 0), steps),
        "ioa.preconditions_per_step": ratio(counts.get("ioa.preconditions", 0), steps),
        "quorum.calls_per_delivery": ratio(counts.get("quorum.calls", 0), deliveries),
        "wire.encode_s": own["wire.encode"],
        "wire.decode_s": own["wire.decode"],
        "transport.send_s": own["transport"],
        "log.records": counts.get("log.record", 0),
        "log.record_s": own["log"],
        "other.self_s": thread_cpu - sum(own.values()),
    }


def memory_metrics(mem_kb: dict[str, float], deliveries: int) -> dict[str, float]:
    from perfbench.memory import LAYERS
    from perfbench.stats import ratio

    return {
        f"mem.{layer}_kb_per_delivery": ratio(mem_kb.get(layer, 0.0), deliveries)
        for layer in LAYERS
    }


def sim_per_layer(workload: str, seed: int) -> tuple[dict[str, Any], Any]:
    from perfbench.gen import sim_inputs
    from perfbench.memory import MemoryPass
    from perfbench.sim import layer_counts, run_episode
    from perfbench.tracer import Recorder

    inputs = sim_inputs(seed, 0, churn=workload == "sim-churn")
    base = run_episode(inputs)
    rec = Recorder()
    traced = run_episode(inputs, keep=True, rec=rec)
    mem = run_episode(inputs, memory=MemoryPass())
    episodes = (base, traced, mem)
    problems = [p for e in episodes for p in e.problems]
    if len({e.digest for e in episodes}) != 1:
        problems.append("repeated episodes of one seed delivered different TO content")
    report_problems(problems)
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    values.update(layer_counts(traced.stack))
    values.update(span_metrics(rec, traced.thread_cpu_s, traced.deliveries))
    values.update(memory_metrics(mem.mem_kb, mem.deliveries))
    values.update(
        {
            "ring.outage_max_ms": traced.outage_max,
            "verify.vs_s": traced.vs_s,
            "verify.to_s": traced.to_s,
            "verify.events": traced.verify_events,
            "trace.overhead_frac": (traced.thread_cpu_s / traced.deliveries)
            / (base.thread_cpu_s / base.deliveries)
            - 1,
        }
    )
    attempted = sum(e.attempted for e in episodes)
    failed = attempted if problems else 0
    return result(not problems, attempted, failed, values, PER_LAYER), rec


def live_per_layer(workload: str, seed: int, seconds: float) -> tuple[dict[str, Any], Any]:
    from perfbench.live import run_live
    from perfbench.stats import percentile, ratio
    from perfbench.tracer import Recorder

    out = OUT / f"{workload}-{seed}"
    base = run_live(seed, seconds, out, setups=1)
    rec = Recorder()
    traced = run_live(seed, seconds, out, setups=1, rec=rec)
    runs = (base, traced)
    problems = [p for r in runs for p in r.problems]
    report_problems(problems)
    brcv = sum(traced.chunk_brcv)
    thread_cpu = sum(traced.chunk_raw_cpu)
    base_cost = sum(base.chunk_raw_cpu) / sum(base.chunk_brcv)
    s0, s2 = traced.samples[0], traced.samples[-1]
    wire = {k: s2.wire[k] - s0.wire[k] for k in s0.wire}
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    values.update(traced.layer)
    values.update(span_metrics(rec, thread_cpu, brcv))
    values.update(
        {
            "ring.outage_max_ms": 1e3 * traced.outage_max,
            "wire.frames": wire["frames"],
            "wire.bytes_per_delivery": ratio(wire["bytes"], brcv),
            "wire.entries_per_frame": ratio(wire["entries"], wire["frames"]),
            "transport.flushes": wire["flushes"],
            "transport.entries_per_flush": ratio(wire["entries"], wire["flushes"]),
            "transport.loop_errors": traced.loop_errors,
            "loop.lag_p50_ms": 1e3 * percentile(traced.lag, 0.50) if traced.lag else 0.0,
            "loop.lag_p99_ms": 1e3 * percentile(traced.lag, 0.99) if traced.lag else 0.0,
            "loop.busy_frac": thread_cpu / sum(traced.chunk_wall),
            "gen.late_p99_ms": 1e3 * percentile(traced.late, 0.99) if traced.late else 0.0,
            "log.bytes_per_delivery": ratio(s2.log_bytes - s0.log_bytes, brcv),
            "verify.vs_s": traced.verify_s - traced.to_s,
            "verify.to_s": traced.to_s,
            "verify.events": traced.verify_events,
            "trace.overhead_frac": (thread_cpu / brcv) / base_cost - 1,
        }
    )
    attempted = sum(r.attempted for r in runs)
    failed = attempted if problems else 0
    return result(not problems, attempted, failed, values, PER_LAYER), rec


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # the program under test, built from this checkout
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    live = args.workload.startswith("live-")
    if args.trace:
        if live:
            doc, rec = live_per_layer(args.workload, args.seed, args.seconds)
        else:
            doc, rec = sim_per_layer(args.workload, args.seed)
        spans = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        rec.write(spans)
        print(f"wrote {rec.spans} spans to {spans}", file=sys.stderr)
    elif live:
        doc = live_end_to_end(args.workload, args.seed, args.seconds)
    else:
        doc = sim_end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
