"""E25 — the binary wire and batching: live throughput and bytes.

Runs live ``repro.rt`` clusters under the E24 open-loop Poisson load
generator on the one live wire (the binary codec with interning and
same-turn batching) at two operating points:

- **rated** — the E22 reference load (100 sends/s).  The run must be
  fully healthy: spec-conformant, delivery-complete, every p50/p99
  latency SLO holding and the Section 8 bounds satisfied at the
  measured δ*.
- **saturated** — 10x the rated offered load (1000 sends/s).  The run
  must stay spec-conformant and delivery-complete; SLOs are not
  asserted at overload.

The tagged-JSON wire these numbers were first compared with is gone
from the runtime; its figures are read from the committed baseline
(``BENCH_live_wire_baseline.json``, runs ``rated/json``), which also
showed that at equal offered load the two codecs delivered the same
(254.8 vs 255.7 deliveries/s at n=3) and differed only in bytes.  The
headline numbers per cluster size:

- ``speedup`` — saturated deliveries/sec over rated deliveries/sec:
  how far the wire scales with offered load (>= 5x at n=3).
- ``bytes_ratio`` — the baseline's rated-json bytes/delivery over this
  run's rated bytes/delivery (matched traffic, content-for-content):
  rated bytes/delivery must be at most a third of the json figure at
  n=3.

A codec microbench (encode+decode wall time and frame bytes for a
representative interned ``Sequenced`` stream) rides along so codec
regressions are visible without a live cluster; its bytes/message must
be at most half the baseline's json figure.

Usage::

    python benchmarks/bench_live_wire.py --profile smoke \\
        --json BENCH_live_wire.json \\
        --check benchmarks/BENCH_live_wire_baseline.json

The regression gate compares the speedup ratio and bytes/delivery
against the ``--check`` baseline; both are stable across host speeds,
unlike absolute wall-clock numbers.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

from repro.core.types import Label
from repro.membership.messages import Sequenced
from repro.rt.cluster import run_cluster
from repro.rt.wire import BinaryWire

#: The committed baseline; its ``rated/json`` runs and codec ``json``
#: entry are the reference figures of the retired tagged-JSON wire.
REFERENCE = Path(__file__).with_name("BENCH_live_wire_baseline.json")

#: Per-profile workload.  Rated is always the E22 reference point
#: (send_interval 0.01); saturated offers 10x that.  The full profile
#: doubles the saturated sample count for steadier ratios.
PROFILES = {
    "smoke": {
        "sizes": (3, 5),
        "delta": 0.05,
        "rated": {"sends": 40, "send_interval": 0.01},
        "saturated": {"sends": 400, "send_interval": 0.001},
    },
    "full": {
        "sizes": (3, 5),
        "delta": 0.05,
        "rated": {"sends": 60, "send_interval": 0.01},
        "saturated": {"sends": 800, "send_interval": 0.001},
    },
}


def run_case(
    *,
    nodes: int,
    sends: int,
    send_interval: float,
    delta: float,
) -> dict:
    """One live episode; returns the judged wire/throughput numbers."""
    report = asyncio.run(
        run_cluster(
            nodes=nodes,
            sends=sends,
            delta=delta,
            send_interval=send_interval,
            arrivals="poisson",
            seed=0,
        )
    )
    obs = report["obs"]
    node_tx = report["wire"]["nodes"].get("tx/binary", {})
    deliveries = report["deliveries"]
    token = report["wire"]["token"]
    return {
        "nodes": nodes,
        "wire": "binary",
        "sends": report["sends"],
        "deliveries": deliveries,
        "deliveries_per_sec": round(report["throughput"], 1),
        "span_s": round(report["span_seconds"], 3),
        "node_tx_frames": node_tx.get("frames", 0.0),
        "node_tx_entries": node_tx.get("entries", 0.0),
        "node_tx_bytes": node_tx.get("bytes_on_wire", 0.0),
        "bytes_per_delivery": round(
            node_tx.get("bytes_on_wire", 0.0) / max(1, deliveries), 1
        ),
        "driver_entries_per_frame": round(
            report["wire"]["driver_tx"]["entries"]
            / max(1.0, report["wire"]["driver_tx"]["frames"]),
            3,
        ),
        "token_entries_per_forward": round(
            token["entries_sent"] / max(1, token["forwards"]), 3
        ),
        "ok": report["ok"],
        "delivered_complete": report["delivered_complete"],
        "violations": len(report["violations"]),
        "slo_ok": obs.get("slo_ok", False),
        "bounds_ok": obs.get("bounds_ok", False),
        "wall_s": round(report["wall_seconds"], 2),
    }


def codec_microbench(json_bytes_per_msg: float, rounds: int = 2000) -> dict:
    """Encode+decode wall time and frame bytes for a representative
    interned stream: the same ``Sequenced(Label)`` shape the ring
    re-sends, with repeated member ids and labels (so the interning
    table is exercised exactly as on a live connection).
    ``json_bytes_per_msg`` is the reference json figure."""
    messages = [
        Sequenced(i, Label(id=(2, "p1"), seqno=i, origin=f"p{(i % 3) + 1}"))
        for i in range(50)
    ]
    encoder, decoder = BinaryWire(), BinaryWire()
    total_bytes = 0
    t0 = time.perf_counter()
    for _ in range(rounds):
        for message in messages:
            payload = encoder.encode(message)
            total_bytes += len(payload)
            decoder.decode(payload)
    wall = time.perf_counter() - t0
    count = rounds * len(messages)
    binary = {
        "roundtrip_ns": round(wall / count * 1e9),
        "bytes_per_msg": round(total_bytes / count, 1),
    }
    return {
        "binary": binary,
        "bytes_ratio": round(json_bytes_per_msg / binary["bytes_per_msg"], 2),
    }


def json_reference(baseline: dict) -> dict:
    """The tagged-JSON figures a baseline holds: rated bytes/delivery
    per size, and codec bytes/message."""
    return {
        "rated_bytes_per_delivery": {
            size: entry["runs"]["rated/json"]["bytes_per_delivery"]
            for size, entry in baseline["sizes"].items()
            if "rated/json" in entry.get("runs", {})
        },
        "codec_bytes_per_msg": baseline["codec"]["json"]["bytes_per_msg"],
    }


def collect(profile: str, reference: dict) -> dict:
    spec = PROFILES[profile]
    json_bpd = reference["rated_bytes_per_delivery"]
    sizes: dict[str, dict] = {}
    for nodes in spec["sizes"]:
        runs = {
            f"{point}/binary": run_case(
                nodes=nodes, delta=spec["delta"], **spec[point]
            )
            for point in ("rated", "saturated")
        }
        rated = runs["rated/binary"]
        entry: dict = {
            "runs": runs,
            "speedup": round(
                runs["saturated/binary"]["deliveries_per_sec"]
                / max(1.0, rated["deliveries_per_sec"]),
                2,
            ),
        }
        size = f"n{nodes}"
        if size in json_bpd:
            # Matched traffic (same rated load, same scenario): the
            # saturated runs are not compared byte-for-byte because
            # their token batching levels differ with timing.
            entry["bytes_ratio"] = round(
                json_bpd[size] / max(1.0, rated["bytes_per_delivery"]), 2
            )
        sizes[size] = entry
    results = {
        "experiment": "E25",
        "profile": profile,
        "delta": spec["delta"],
        "json_reference": reference,
        "sizes": sizes,
        "codec": codec_microbench(reference["codec_bytes_per_msg"]),
    }
    results["failures"] = gate(results)
    results["ok"] = not results["failures"]
    return results


def gate(results: dict) -> list[str]:
    """Every way an E25 sweep can fail, as human-readable reasons."""
    failures = []
    reference = results["json_reference"]
    for size, entry in results["sizes"].items():
        for tag, run in entry["runs"].items():
            label = f"{size}/{tag}"
            if run["violations"] or not run["ok"]:
                failures.append(f"{label}: capture is not spec-conformant")
            if not run["delivered_complete"]:
                failures.append(f"{label}: delivery did not complete")
            if tag.startswith("rated") and not (
                run["slo_ok"] and run["bounds_ok"]
            ):
                failures.append(
                    f"{label}: rated run violated an SLO or Section 8 bound"
                )
        sat = entry["runs"]["saturated/binary"]
        if sat["token_entries_per_forward"] < 1.2:
            failures.append(
                f"{size}: token carried no batch at saturation "
                f"({sat['token_entries_per_forward']} entries/forward)"
            )
    n3 = results["sizes"].get("n3")
    if n3 is not None:
        if n3["speedup"] < 5.0:
            failures.append(
                f"n3: saturated deliveries/sec only {n3['speedup']}x "
                "the rated deliveries/sec (need >= 5x)"
            )
        ceiling = reference["rated_bytes_per_delivery"]["n3"] / 3
        bpd = n3["runs"]["rated/binary"]["bytes_per_delivery"]
        if bpd > ceiling:
            failures.append(
                f"n3: rated bytes/delivery {bpd} above a third of the "
                f"json reference ({ceiling:.1f})"
            )
    ceiling = reference["codec_bytes_per_msg"] / 2
    per_msg = results["codec"]["binary"]["bytes_per_msg"]
    if per_msg > ceiling:
        failures.append(
            f"codec microbench: {per_msg} bytes/message, above half the "
            f"json reference ({ceiling:.1f})"
        )
    return failures


#: Regression tolerances against the ``--check`` baseline.  Live
#: speedups are timing-noisy, hence the generous tolerance; the
#: absolute floors in ``gate`` still apply on every run.
SPEEDUP_TOLERANCE = 0.35
BYTES_RATIO_TOLERANCE = 0.20
CODEC_RATIO_TOLERANCE = 0.15


def check_against(current: dict, baseline: dict) -> list[str]:
    """``current``'s gate failures plus its regressions against
    ``baseline``: the n=3 speedup may fall by at most 35%, and each
    byte figure may exceed the baseline's json figure divided by the
    baseline's json/binary ratio (less its tolerance)."""
    failures = list(current["failures"])
    base_n3 = baseline.get("sizes", {}).get("n3", {})
    cur_n3 = current["sizes"].get("n3")
    if "speedup" in base_n3 and cur_n3 is not None:
        floor = base_n3["speedup"] * (1 - SPEEDUP_TOLERANCE)
        if cur_n3["speedup"] < floor:
            failures.append(
                f"sizes/n3/speedup regressed: {cur_n3['speedup']} < "
                f"{floor:.3f} (baseline {base_n3['speedup']}, tolerance "
                f"{SPEEDUP_TOLERANCE:.0%})"
            )
    base_json = json_reference(baseline)
    for size, entry in current["sizes"].items():
        base = baseline.get("sizes", {}).get(size, {})
        json_bpd = base_json["rated_bytes_per_delivery"].get(size)
        if json_bpd is None or "bytes_ratio" not in base:
            continue
        ceiling = json_bpd / (base["bytes_ratio"] * (1 - BYTES_RATIO_TOLERANCE))
        bpd = entry["runs"]["rated/binary"]["bytes_per_delivery"]
        if bpd > ceiling:
            failures.append(
                f"sizes/{size}: rated bytes/delivery regressed: {bpd} > "
                f"{ceiling:.1f} (baseline json {json_bpd} / "
                f"({base['bytes_ratio']} x {1 - BYTES_RATIO_TOLERANCE:.2f}))"
            )
    base_ratio = baseline["codec"]["bytes_ratio"]
    ceiling = base_json["codec_bytes_per_msg"] / (
        base_ratio * (1 - CODEC_RATIO_TOLERANCE)
    )
    per_msg = current["codec"]["binary"]["bytes_per_msg"]
    if per_msg > ceiling:
        failures.append(
            f"codec bytes/message regressed: {per_msg} > {ceiling:.2f} "
            f"(baseline json {base_json['codec_bytes_per_msg']} / "
            f"({base_ratio} x {1 - CODEC_RATIO_TOLERANCE:.2f}))"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=PROFILES, default="smoke")
    parser.add_argument("--json", help="write results to this path")
    parser.add_argument(
        "--check", help="baseline JSON to gate regressions against"
    )
    args = parser.parse_args(argv)
    with open(REFERENCE) as fh:
        reference = json_reference(json.load(fh))
    results = collect(args.profile, reference)
    print(json.dumps(results, indent=2))
    failures = results["failures"]
    if args.check:
        if os.path.exists(args.check):
            with open(args.check) as fh:
                baseline = json.load(fh)
            failures = check_against(results, baseline)
        else:
            print(f"no baseline at {args.check}; skipping gate")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    if failures:
        for reason in failures:
            print(f"E25 FAIL: {reason}", file=sys.stderr)
        return 1
    n3 = results["sizes"]["n3"]
    print(
        "E25 OK: saturated load sustained {thr}x the rated deliveries/sec "
        "at n=3 ({sat} vs {rated} deliv/s), {bytes}x fewer bytes/delivery "
        "than the json reference, codec frames {micro}x smaller".format(
            thr=n3["speedup"],
            sat=n3["runs"]["saturated/binary"]["deliveries_per_sec"],
            rated=n3["runs"]["rated/binary"]["deliveries_per_sec"],
            bytes=n3["bytes_ratio"],
            micro=results["codec"]["bytes_ratio"],
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
