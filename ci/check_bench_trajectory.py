#!/usr/bin/env python3
"""Bench-trajectory gate: fail CI when a freshly produced bench JSON regresses
its headline metrics by more than the allowed fraction against the committed
baseline.

Usage:
  ci/check_bench_trajectory.py \
      --baseline BENCH_shield_verify.json --fresh fresh/BENCH_shield_verify.json \
      --baseline BENCH_batching.json      --fresh fresh/BENCH_batching.json \
      [--max-regression 0.25]

--baseline/--fresh are paired positionally (first baseline vs first fresh,
and so on). Each file's "bench" field selects its headline-metric extractor.
Improvements and noise up to the threshold pass; a >threshold drop on ANY
headline metric fails with a table of every metric. Baseline metrics missing
from the fresh file fail too (a silently dropped metric is a regression).

Injecting a synthetic regression to prove the gate bites:
  python3 - <<'EOF'
  import json; d = json.load(open('BENCH_batching.json'))
  for row in d['seam']: row['msgs_per_sec'] = int(row['msgs_per_sec'] * 0.5)
  json.dump(d, open('fresh/BENCH_batching.json', 'w'))
  EOF
  ci/check_bench_trajectory.py --baseline BENCH_batching.json \
      --fresh fresh/BENCH_batching.json  # exits 1
"""

import argparse
import json
import sys


def shield_verify_headline(doc):
    """Headline: the fast-vs-pre_pr speedup per config. Ratios are
    machine-relative, so the gate survives CI runners slower or faster than
    the box that produced the committed baseline; absolute pairs/sec would
    flag every hardware change as a regression."""
    out = {}
    for row in doc.get("speedup_fast_over_pre_pr", []):
        key = f"speedup {row['mode']} {row['payload_bytes']}B fast/pre_pr"
        out[key] = float(row["ratio"])
    return out


def batching_headline(doc):
    """Headline: batched-vs-unbatched seam speedups (machine-relative) plus
    the protocol testbed ops/sec — the latter run on the deterministic
    simulator, so they are machine-independent and gate tightly. The 2x
    acceptance flag must stay true."""
    out = {}
    for row in doc.get("seam_speedup_vs_unbatched", []):
        key = (f"seam speedup {row['mode']} {row['payload_bytes']}B "
               f"batch{row['batch_size']}")
        out[key] = float(row["ratio"])
    for row in doc.get("protocols", []):
        mode = "batched" if row.get("batched") else "unbatched"
        out[f"protocol {row['protocol']} {mode} ops/sec"] = float(
            row["ops_per_sec"])
    out["acceptance_2x_at_batch16_small"] = (
        1.0 if doc.get("acceptance_2x_at_batch16_small") else 0.0)
    return out


def transport_headline(doc):
    """Headline: the acceptance boolean (every loopback config completed its
    full op count with zero failed ops) plus a HARD floor on the staged
    egress pipeline's batching speedup. batched_over_unbatched_shielded is a
    same-machine, same-run ratio (best-of-N trials of each config), so
    unlike the absolute throughput/latency numbers — which stay in the JSON
    as telemetry, ungated — it is robust to whatever runner CI lands on and
    must never fall below 1.5x. The floor is encoded as a boolean metric so
    the generic regression threshold cannot soften it.

    The shard-scaling sweep contributes ONLY its acceptance boolean: the
    bench already compares the 8-shard/1-shard speedup against a floor
    derived from the cores of the machine that ran it, so re-gating the raw
    speedup here would double-judge a machine-dependent number with a
    machine-independent threshold. (Absent on pre-sweep baselines: gated
    once the committed baseline carries the section.)

    The obs_overhead section likewise contributes only its acceptance
    boolean: the bench already compares metrics-on vs metrics-off throughput
    of the same config in the same run against the 3% ceiling, a
    same-machine ratio. (Absent on pre-observability baselines.)"""
    out = {
        "acceptance_all_configs_ok": (
            1.0 if doc.get("acceptance_all_configs_ok") else 0.0),
        "hard_floor_batched_over_unbatched_shielded_1.5": (
            1.0
            if float(doc.get("batched_over_unbatched_shielded", 0.0)) >= 1.5
            else 0.0),
    }
    scaling = doc.get("scaling")
    if scaling is not None:
        out["acceptance_shard_scaling_ok"] = (
            1.0 if scaling.get("acceptance_shard_scaling_ok") else 0.0)
    obs = doc.get("obs_overhead")
    if obs is not None:
        out["acceptance_obs_overhead_ok"] = (
            1.0 if obs.get("acceptance_obs_overhead_ok") else 0.0)
    return out


def durability_headline(doc):
    """Headline: recovery-time-vs-write-volume and group-commit
    amortization, both same-run machine-relative ratios (absolute
    entries/sec stay in the JSON as ungated telemetry). The acceptance
    booleans — exact idempotent warm replay, the 1.2x amortization floor,
    the linear-restart-cost floor and the 1.5 ceiling on compaction's
    resealed-per-logged bytes (an exact byte count, not a timing) — are
    hard: encoded as 0/1 metrics so the generic regression threshold cannot
    soften them."""
    return {
        "group-commit amortization 16/1": float(
            doc.get("group16_over_group1", 0.0)),
        "replay throughput 40k/10k": float(
            doc.get("replay_tput_40k_over_10k", 0.0)),
        "acceptance_warm_replay_exact": (
            1.0 if doc.get("acceptance_warm_replay_exact") else 0.0),
        "hard_floor_group_commit_amortizes_1.2": (
            1.0 if doc.get("acceptance_group_commit_amortizes") else 0.0),
        "hard_floor_replay_scales_linearly": (
            1.0 if doc.get("acceptance_replay_scales_linearly") else 0.0),
        "hard_ceiling_compaction_amortized_1.5": (
            1.0 if doc.get("acceptance_compaction_amortized") else 0.0),
    }


EXTRACTORS = {
    "shield_verify": shield_verify_headline,
    "batching": batching_headline,
    "transport": transport_headline,
    "durability": durability_headline,
}


def report_chaos(doc):
    """Chaos-run telemetry is printed for trend-watching but NEVER gated:
    fault injection makes throughput a weather report, not a capability
    claim, so a drop here must not fail CI. The seed is echoed so a curious
    reader can replay the exact run with RECIPE_TEST_SEED=<seed>."""
    chaos = doc.get("chaos")
    if not chaos:
        return
    print(f"info  chaos (ungated): seed={chaos.get('seed')} "
          f"ops={chaos.get('ops')} ops/sec={chaos.get('ops_per_sec', 0):.0f} "
          f"failed={chaos.get('failed')} dropped={chaos.get('dropped')} "
          f"duplicated={chaos.get('duplicated')} "
          f"reordered={chaos.get('reordered')} delayed={chaos.get('delayed')}")


def load(path):
    with open(path) as f:
        return json.load(f)


def check_pair(baseline_path, fresh_path, max_regression):
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    bench = baseline.get("bench")
    if bench != fresh.get("bench"):
        print(f"FAIL  {fresh_path}: bench kind {fresh.get('bench')!r} != "
              f"baseline {bench!r}")
        return False
    extractor = EXTRACTORS.get(bench)
    if extractor is None:
        print(f"FAIL  {baseline_path}: no headline extractor for {bench!r}")
        return False

    base_metrics = extractor(baseline)
    fresh_metrics = extractor(fresh)
    ok = True
    print(f"== {bench}: {fresh_path} vs baseline {baseline_path} "
          f"(allowed regression {max_regression:.0%})")
    for name, base_value in sorted(base_metrics.items()):
        fresh_value = fresh_metrics.get(name)
        if fresh_value is None:
            print(f"FAIL  {name}: missing from fresh results")
            ok = False
            continue
        if base_value <= 0:
            continue  # nothing to gate against
        ratio = fresh_value / base_value
        verdict = "ok  " if ratio >= 1.0 - max_regression else "FAIL"
        if verdict == "FAIL":
            ok = False
        print(f"{verdict}  {name}: {fresh_value:.0f} vs {base_value:.0f} "
              f"({ratio:.2f}x)")
    report_chaos(fresh)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", action="append", required=True)
    parser.add_argument("--fresh", action="append", required=True)
    parser.add_argument("--max-regression", type=float, default=0.25)
    args = parser.parse_args()
    if len(args.baseline) != len(args.fresh):
        parser.error("--baseline and --fresh must be paired")

    ok = True
    for baseline_path, fresh_path in zip(args.baseline, args.fresh):
        ok = check_pair(baseline_path, fresh_path, args.max_regression) and ok
    if not ok:
        print("bench-trajectory gate: REGRESSION over threshold")
        return 1
    print("bench-trajectory gate: all headline metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
