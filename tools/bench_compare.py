#!/usr/bin/env python3
"""Comparison of a bench JSON run against a baseline, with an optional gate.

Usage:
    bench_compare.py --baseline bench/baseline.json \
        --current BENCH_kernels.json [--threshold 0.25] \
        [--fail-below 0.85] [--out report.md]
    bench_compare.py --baseline bench/baseline.json \
        --current BENCH_serve.json [--out report.md]
    bench_compare.py --selftest

Sections are matched by key: a bench_kernels run carries "kernels",
"quant" and "score_all", a bench_serve run carries "serve" and
"warm_cache", a bench_update run carries "update"; only the sections
present in --current are reported. Prints a markdown delta table
(suitable for $GITHUB_STEP_SUMMARY) showing the current timing versus the
committed baseline.

Gating: with --fail-below R the *ratio* sections — kernels
(active_ns_per_op), quant sweeps (quant_ns_per_op) and the warm-cache
speedup — fail the run (exit 1) when current performance drops below R x
baseline. Those numbers compare two code paths measured in the same
process on the same machine, so runner noise largely cancels and they are
stable enough to gate on. Wall-clock sections (serve round-trips,
score_all, update, fig5) stay report-only under any flag: absolute
timings on shared runners are too noisy to gate merges on
(EXPERIMENTS.md, "perf-smoke").
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        return None


def fmt_delta(current, base):
    """Relative change as a signed percentage; positive = slower."""
    if base <= 0:
        return "n/a", 0.0
    rel = (current - base) / base
    return f"{rel:+.1%}", rel


class Gate:
    """Collects gated rows whose performance fell below the floor.

    `ratio` is current performance relative to baseline (1.0 = parity,
    smaller = slower). With fail_below=None the gate is inert and the
    script behaves report-only.
    """

    def __init__(self, fail_below):
        self.fail_below = fail_below
        self.failures = []

    def check(self, label, ratio):
        if self.fail_below is None:
            return False
        if ratio < self.fail_below:
            self.failures.append((label, ratio))
            return True
        return False


def kernel_rows(baseline, current, threshold, gate):
    base_by_key = {
        (k["name"], k["dim"]): k for k in baseline.get("kernels", [])
    }
    rows = []
    for k in current.get("kernels", []):
        key = (k["name"], k["dim"])
        base = base_by_key.get(key)
        if base is None:
            rows.append((f"{k['name']}/{k['dim']}",
                         f"{k['active_ns_per_op']:.1f}", "-", "new", ""))
            continue
        delta, rel = fmt_delta(k["active_ns_per_op"],
                               base["active_ns_per_op"])
        label = f"kernels:{k['name']}/{k['dim']}"
        gated = gate.check(label, base["active_ns_per_op"] /
                           k["active_ns_per_op"]
                           if k["active_ns_per_op"] > 0 else 0.0)
        flag = ":x:" if gated else (":warning:" if rel > threshold else "")
        rows.append((f"{k['name']}/{k['dim']}",
                     f"{k['active_ns_per_op']:.1f}",
                     f"{base['active_ns_per_op']:.1f}", delta, flag))
    return rows


def score_all_rows(baseline, current, threshold):
    base_by_model = {
        s["model"]: s for s in baseline.get("score_all", [])
    }
    rows = []
    for s in current.get("score_all", []):
        base = base_by_model.get(s["model"])
        if base is None:
            rows.append((s["model"], f"{s['ns_per_call']:.0f}", "-", "new",
                         ""))
            continue
        delta, rel = fmt_delta(s["ns_per_call"], base["ns_per_call"])
        flag = ":warning:" if rel > threshold else ""
        rows.append((s["model"], f"{s['ns_per_call']:.0f}",
                     f"{base['ns_per_call']:.0f}", delta, flag))
    return rows


def quant_rows(baseline, current, threshold, gate):
    base_by_key = {
        (q["name"], q["dim"]): q for q in baseline.get("quant", [])
    }
    rows = []
    for q in current.get("quant", []):
        key = (q["name"], q["dim"])
        label = f"{q['name']}/{q['dim']}"
        speedup = f"{q['speedup']:.2f}x"
        base = base_by_key.get(key)
        if base is None:
            rows.append((label, f"{q['quant_ns_per_op']:.0f}", "-", "new",
                         speedup, ""))
            continue
        delta, rel = fmt_delta(q["quant_ns_per_op"],
                               base["quant_ns_per_op"])
        gated = gate.check(f"quant:{label}",
                           base["quant_ns_per_op"] / q["quant_ns_per_op"]
                           if q["quant_ns_per_op"] > 0 else 0.0)
        # The sweep exists to beat the exact kernel; losing 2x is worth a
        # flag even when the absolute timing did not regress.
        flag = (":x:" if gated else
                ":warning:" if rel > threshold or q["speedup"] < 2.0
                else "")
        rows.append((label, f"{q['quant_ns_per_op']:.0f}",
                     f"{base['quant_ns_per_op']:.0f}", delta, speedup,
                     flag))
    return rows


def serve_rows(baseline, current, threshold):
    base_by_key = {
        (s["name"], s["pool"]): s for s in baseline.get("serve", [])
    }
    rows = []
    for s in current.get("serve", []):
        key = (s["name"], s["pool"])
        label = f"{s['name']}/pool{s['pool']}"
        base = base_by_key.get(key)
        if base is None:
            rows.append((label, f"{s['ns_per_request']:.0f}", "-", "new",
                         ""))
            continue
        delta, rel = fmt_delta(s["ns_per_request"], base["ns_per_request"])
        flag = ":warning:" if rel > threshold else ""
        rows.append((label, f"{s['ns_per_request']:.0f}",
                     f"{base['ns_per_request']:.0f}", delta, flag))
    return rows


def update_rows(baseline, current, threshold):
    def key(row):
        return (row["name"], row.get("model", ""))

    base_by_key = {key(r): r for r in baseline.get("update", [])}
    rows = []
    for r in current.get("update", []):
        label = "/".join(p for p in (r["name"], r.get("model")) if p)
        speedup = f"{r.get('speedup_vs_retrain', 0):.1f}x"
        base = base_by_key.get(key(r))
        if base is None:
            rows.append((label, f"{r['ms']:.1f}", "-", "new", speedup, ""))
            continue
        delta, rel = fmt_delta(r["ms"], base["ms"])
        flag = ":warning:" if rel > threshold else ""
        rows.append((label, f"{r['ms']:.1f}", f"{base['ms']:.1f}", delta,
                     speedup, flag))
    return rows


def markdown_table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def compare(baseline, current, threshold, fail_below, out_path=None):
    """Renders the report; returns the process exit code."""
    gate = Gate(fail_below)
    if "serve" in current and "kernels" not in current:
        out = ["## Serve bench vs baseline", ""]
    elif "update" in current and "kernels" not in current:
        out = ["## Update bench vs baseline", ""]
    else:
        out = ["## Kernel bench vs baseline", ""]
    if "kernels" in current:
        cur_backend = current.get("backend", "?")
        base_backend = baseline.get("backend", "?")
        out.append(f"Backend: `{cur_backend}` (baseline: `{base_backend}`)")
        if cur_backend != base_backend:
            out.append("")
            out.append("Backends differ — deltas reflect the backend "
                       "change, not a regression.")
        out.append("")
        out.append(markdown_table(
            ("Kernel/dim", "ns/op", "baseline", "delta", ""),
            kernel_rows(baseline, current, threshold, gate)))
        out.append("")
    if "quant" in current:
        out.append("### Quantized shortlist sweep")
        out.append("")
        out.append(markdown_table(
            ("Sweep/dim", "quant ns/op", "baseline", "delta", "vs exact",
             ""),
            quant_rows(baseline, current, threshold, gate)))
        out.append("")
    if "score_all" in current:
        out.append("### ScoreAllTails")
        out.append("")
        out.append(markdown_table(
            ("Model", "ns/call", "baseline", "delta", ""),
            score_all_rows(baseline, current, threshold)))
        out.append("")
    if "serve" in current:
        out.append("### Serve round-trips")
        out.append("")
        out.append(markdown_table(
            ("Bench/pool", "ns/req", "baseline", "delta", ""),
            serve_rows(baseline, current, threshold)))
        out.append("")
    if "warm_cache" in current:
        w = current["warm_cache"]
        base_w = baseline.get("warm_cache")
        base_speedup = (f"{base_w['speedup']:.1f}x"
                        if base_w is not None else "-")
        gated = False
        if base_w is not None and base_w.get("speedup", 0) > 0:
            gated = gate.check("warm_cache:speedup",
                               w["speedup"] / base_w["speedup"])
        out.append("### Warm relevance cache (repeated explains)")
        out.append("")
        out.append(markdown_table(
            ("cold ns/req", "warm ns/req", "speedup", "baseline speedup",
             ""),
            [(f"{w['cold_ns_per_request']:.0f}",
              f"{w['warm_ns_per_request']:.0f}",
              f"{w['speedup']:.1f}x", base_speedup,
              ":x:" if gated else "")]))
        out.append("")
    if "update" in current:
        out.append("### Incremental update vs full retrain")
        out.append("")
        out.append(markdown_table(
            ("Bench", "ms", "baseline", "delta", "vs retrain", ""),
            update_rows(baseline, current, threshold)))
        out.append("")
    out.append(f"Rows slower than baseline by more than "
               f"{threshold:.0%} are flagged :warning:.")
    if fail_below is not None:
        out.append(f"Gated sections (kernels, quant sweeps, warm-cache "
                   f"speedup) fail the job below {fail_below:.0%} of "
                   f"baseline performance; wall-clock sections stay "
                   f"report-only.")
        if gate.failures:
            out.append("")
            out.append("**Perf gate failed:**")
            for label, ratio in gate.failures:
                out.append(f"- `{label}` at {ratio:.0%} of baseline "
                           f"(floor {fail_below:.0%})")
    else:
        out.append("Report-only: this step never fails the build.")
    report = "\n".join(out)

    print(report)
    if out_path:
        with open(out_path, "a") as f:
            f.write(report + "\n")
    if gate.failures:
        print(f"bench_compare: perf gate failed for "
              f"{len(gate.failures)} row(s)", file=sys.stderr)
        return 1
    return 0


def selftest():
    """Proves the --fail-below gate produces a nonzero exit on a synthetic
    regression and stays green at parity. Run by ctest
    (bench_compare_selftest) so the gating path itself is covered by
    tier-1."""
    baseline = {
        "backend": "avx2",
        "kernels": [
            {"name": "dot", "dim": 64, "active_ns_per_op": 10.0,
             "scalar_ns_per_op": 50.0, "speedup": 5.0},
        ],
        "quant": [
            {"name": "quant_dot_sweep", "rows": 100, "dim": 128,
             "exact_ns_per_op": 400.0, "quant_ns_per_op": 100.0,
             "speedup": 4.0},
        ],
        "warm_cache": {"cold_ns_per_request": 1000.0,
                       "warm_ns_per_request": 100.0, "speedup": 10.0},
    }

    def run(current, fail_below):
        return compare(baseline, current, threshold=0.25,
                       fail_below=fail_below)

    failures = []

    # Parity: identical numbers pass under the gate.
    if run(baseline, 0.85) != 0:
        failures.append("parity run failed the gate")

    # A 30% kernel slowdown (performance 77% of baseline) must fail.
    slow_kernel = json.loads(json.dumps(baseline))
    slow_kernel["kernels"][0]["active_ns_per_op"] = 13.0
    if run(slow_kernel, 0.85) == 0:
        failures.append("kernel regression passed the gate")
    # ...but stays report-only without --fail-below.
    if run(slow_kernel, None) != 0:
        failures.append("report-only run exited nonzero")

    # A quant-sweep regression must fail.
    slow_quant = json.loads(json.dumps(baseline))
    slow_quant["quant"][0]["quant_ns_per_op"] = 150.0
    if run(slow_quant, 0.85) == 0:
        failures.append("quant regression passed the gate")

    # A collapsed warm-cache speedup must fail.
    cold_cache = json.loads(json.dumps(baseline))
    cold_cache["warm_cache"]["speedup"] = 2.0
    if run(cold_cache, 0.85) == 0:
        failures.append("warm-cache collapse passed the gate")

    # Wall-clock sections never gate: a serve regression under the flag
    # still exits 0.
    slow_serve = {
        "serve": [{"name": "score_roundtrip", "pool": 1,
                   "ns_per_request": 99999.0,
                   "requests_per_second": 10}],
    }
    serve_base = {"serve": [{"name": "score_roundtrip", "pool": 1,
                             "ns_per_request": 700.0,
                             "requests_per_second": 1400000}]}
    if compare(serve_base, slow_serve, 0.25, 0.85) != 0:
        failures.append("wall-clock serve section was gated")

    # Nor does the update section: a slower incremental update under the
    # flag exits 0, and its row is still reported against the baseline.
    update_base = {"update": [
        {"name": "incremental_update", "model": "ComplEx", "affected": 12,
         "ms": 40.0, "speedup_vs_retrain": 50.0},
        {"name": "full_retrain", "model": "ComplEx", "affected": 373,
         "ms": 2000.0, "speedup_vs_retrain": 1.0}]}
    slow_update = json.loads(json.dumps(update_base))
    slow_update["update"][0]["ms"] = 400.0
    slow_update["update"][0]["speedup_vs_retrain"] = 5.0
    if compare(update_base, slow_update, 0.25, 0.85) != 0:
        failures.append("wall-clock update section was gated")
    rows = update_rows(update_base, slow_update, 0.25)
    if [r[0] for r in rows] != ["incremental_update/ComplEx",
                                "full_retrain/ComplEx"] or \
            rows[0][-1] != ":warning:" or rows[1][-1] != "":
        failures.append("update rows not matched against the baseline")

    for f in failures:
        print(f"selftest: FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print("selftest: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown that earns a warning flag")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="RATIO",
                        help="exit 1 when a gated section's performance "
                             "drops below RATIO x baseline (CI passes "
                             "0.85); omit for report-only")
    parser.add_argument("--out", default=None,
                        help="also append the report to this file")
    parser.add_argument("--selftest", action="store_true",
                        help="exercise the gate logic on synthetic data "
                             "and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(or use --selftest)")

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline is None or current is None:
        # Missing or malformed inputs must not fail the job: report and
        # exit clean. (An absent bench output means the bench step itself
        # failed, which is already red.)
        print("bench_compare: skipping comparison (see stderr)")
        return 0

    return compare(baseline, current, args.threshold, args.fail_below,
                   args.out)


if __name__ == "__main__":
    sys.exit(main())
