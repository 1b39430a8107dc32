#!/usr/bin/env python3
"""Bench regression gate: compare a fresh google-benchmark JSON run against
the committed baseline and fail on slowdowns.

Usage:
  tools/compare_bench.py BASELINE.json CURRENT.json [--threshold 1.25]
      [--gate-counter SUFFIX ...] [--pair NAME BASE MAXRATIO ...]
      [--floor NAME MIN ...]

Rules:
  - benchmarks present in BOTH files are compared by real_time (after
    normalizing to nanoseconds);
  - any benchmark slower than threshold x baseline fails the gate;
  - user counters are addressable as "BENCH#counter" (e.g.
    "BM_LoadSkewedTenants/iterations:5/real_time#ca_p99_ms"). Each
    --gate-counter SUFFIX (repeatable) also applies the
    baseline-vs-current threshold to every counter whose name ends in
    SUFFIX and is present in both files — this is how latency percentiles
    are regression-gated, not just wall time;
  - benchmarks only in one file are reported but never fail the gate (new
    benches land before their baseline regenerates; retired ones linger in
    old baselines);
  - each --pair NAME BASE MAXRATIO (repeatable) gates WITHIN the current
    run: NAME must not be slower than MAXRATIO x BASE, where either side
    may be a "BENCH#counter" entry. This pins a feature's overhead — or a
    scheduler's tail-latency win — against its own baseline variant in the
    same run, independent of machine speed; a pair whose members are
    missing from the current run is a hard error — a silently skipped gate
    is worse than a failing one;
  - each --floor NAME MIN (repeatable) fails when the CURRENT run's NAME
    (typically a "BENCH#counter" rate, e.g. a queries/s counter) is below
    MIN — an absolute performance floor for throughput-style acceptance
    targets; a missing NAME is a hard error, same as --pair;
  - each file's host shape (context.num_cpus, context.mhz_per_cpu) is
    printed first; when num_cpus differs, a warning naming both shapes
    goes to stderr, since wall-time ratios across host shapes mix the code
    change with per-core speed (the gates themselves are unchanged);
  - exit code 0 = pass, 1 = regression, 2 = usage/parse error.

CI runners are noisy; the default 25% threshold is deliberately loose — it
catches "accidentally quadratic", not micro-jitter.
"""

import argparse
import json
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# google-benchmark's JSON reporter flattens user counters into the benchmark
# object itself; anything numeric that is not one of these bookkeeping fields
# is a counter.
STANDARD_FIELDS = {
    "real_time", "cpu_time", "iterations", "repetitions",
    "repetition_index", "threads", "family_index",
    "per_family_instance_index",
}


def load_benchmarks(path):
    """Returns ({name or name#counter: value}, the file's context dict)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue  # compare raw iterations, not mean/median/stddev rows
        unit = TIME_UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None:
            print(f"error: unknown time unit in {path}: {bench}",
                  file=sys.stderr)
            sys.exit(2)
        out[bench["name"]] = float(bench["real_time"]) * unit
        # Counters keep their native unit; they are only ever compared to
        # the same counter (threshold gate) or ratioed (pair gate), so a
        # common unit across entries is unnecessary.
        for key, value in bench.items():
            if key in STANDARD_FIELDS or isinstance(value, (str, bool)):
                continue
            if isinstance(value, (int, float)):
                out[f"{bench['name']}#{key}"] = float(value)
    if not out:
        print(f"error: no benchmarks found in {path}", file=sys.stderr)
        sys.exit(2)
    return out, doc.get("context", {})


def host_shape(context):
    return (f"num_cpus={context.get('num_cpus', '?')} "
            f"mhz_per_cpu={context.get('mhz_per_cpu', '?')}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="fail when current > threshold * baseline "
                             "(default 1.25 = 25%% slowdown)")
    parser.add_argument("--gate-counter", action="append", default=[],
                        metavar="SUFFIX",
                        help="also threshold-gate '#SUFFIX' counters "
                             "present in both files, e.g. p99_ms "
                             "(repeatable)")
    parser.add_argument("--pair", nargs=3, action="append", default=[],
                        metavar=("NAME", "BASE", "MAXRATIO"),
                        help="within the CURRENT run, fail when "
                             "NAME > MAXRATIO * BASE; either side may be "
                             "a 'BENCH#counter' entry (repeatable)")
    parser.add_argument("--floor", nargs=2, action="append", default=[],
                        metavar=("NAME", "MIN"),
                        help="fail when the current run's NAME (often a "
                             "'BENCH#counter' rate) is below MIN "
                             "(repeatable)")
    args = parser.parse_args()

    baseline, baseline_context = load_benchmarks(args.baseline)
    current, current_context = load_benchmarks(args.current)

    print(f"host baseline: {host_shape(baseline_context)}")
    print(f"host current:  {host_shape(current_context)}")
    if baseline_context.get("num_cpus") != current_context.get("num_cpus"):
        print(f"warning: host shape mismatch: baseline "
              f"{host_shape(baseline_context)}, current "
              f"{host_shape(current_context)}; wall-time ratios include the "
              f"host difference, not only the code change", file=sys.stderr)

    gated_suffixes = set(args.gate_counter)

    def in_gate(name):
        """real_time rows always; counter rows only when their name ends in
        a gated suffix (most counters — steal counts, throughput — are
        informational, not budgets). Suffix matching lets one flag cover a
        family: --gate-counter p99_ms gates rr_p99_ms and ca_p99_ms."""
        if "#" not in name:
            return True
        counter = name.rsplit("#", 1)[1]
        return any(counter.endswith(s) for s in gated_suffixes)

    shared = sorted(n for n in set(baseline) & set(current) if in_gate(n))
    only_baseline = sorted(
        n for n in set(baseline) - set(current) if in_gate(n))
    only_current = sorted(
        n for n in set(current) - set(baseline) if in_gate(n))

    regressions = []
    print(f"{'benchmark':44s} {'baseline':>12s} {'current':>12s} "
          f"{'ratio':>7s}")
    def fmt(name, value):
        # Counters keep their native unit (the suffix names it: p99_ms).
        return f"{value:10.0f}ns" if "#" not in name else f"{value:12.2f}"

    for name in shared:
        ratio = current[name] / baseline[name] if baseline[name] > 0 else 1.0
        flag = ""
        if ratio > args.threshold:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        elif ratio < 1.0 / args.threshold:
            flag = "  (faster)"
        print(f"{name:44s} {fmt(name, baseline[name])} "
              f"{fmt(name, current[name])} {ratio:6.2f}x{flag}")

    for name in only_current:
        print(f"{name:44s} {'--':>12s} {fmt(name, current[name])}    new")
    for name in only_baseline:
        print(f"{name:44s} {fmt(name, baseline[name])} {'--':>12s}    "
              f"retired")

    pair_failures = []
    for name, base, max_ratio_str in args.pair:
        try:
            max_ratio = float(max_ratio_str)
        except ValueError:
            print(f"error: --pair ratio is not a number: {max_ratio_str}",
                  file=sys.stderr)
            sys.exit(2)
        missing = [n for n in (name, base) if n not in current]
        if missing:
            print(f"error: --pair benchmark(s) missing from current run: "
                  f"{', '.join(missing)}", file=sys.stderr)
            sys.exit(2)
        ratio = current[name] / current[base] if current[base] > 0 else 1.0
        flag = ""
        if ratio > max_ratio:
            pair_failures.append((name, base, ratio, max_ratio))
            flag = "  << OVER BUDGET"
        print(f"pair {name} / {base}: {ratio:.3f}x "
              f"(budget {max_ratio:.2f}x){flag}")

    floor_failures = []
    for name, min_str in args.floor:
        try:
            floor = float(min_str)
        except ValueError:
            print(f"error: --floor minimum is not a number: {min_str}",
                  file=sys.stderr)
            sys.exit(2)
        if name not in current:
            print(f"error: --floor benchmark missing from current run: "
                  f"{name}", file=sys.stderr)
            sys.exit(2)
        flag = ""
        if current[name] < floor:
            floor_failures.append((name, current[name], floor))
            flag = "  << BELOW FLOOR"
        print(f"floor {name}: {current[name]:.0f} "
              f"(minimum {floor:.0f}){flag}")

    print(f"\ncompared {len(shared)} benchmarks "
          f"({len(only_current)} new, {len(only_baseline)} retired), "
          f"threshold {args.threshold:.2f}x, {len(args.pair)} pair gate(s), "
          f"{len(args.floor)} floor gate(s)")
    for name, base, ratio, max_ratio in pair_failures:
        print(f"FAIL: {name} is {ratio:.3f}x of {base} "
              f"(budget {max_ratio:.2f}x)", file=sys.stderr)
    for name, value, floor in floor_failures:
        print(f"FAIL: {name} is {value:.0f}, below the {floor:.0f} floor",
              file=sys.stderr)
    if regressions:
        print(f"FAIL: {len(regressions)} regression(s) over "
              f"{args.threshold:.2f}x:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x slower", file=sys.stderr)
        sys.exit(1)
    if pair_failures or floor_failures:
        sys.exit(1)
    print("PASS: no benchmark regressed past the threshold")


if __name__ == "__main__":
    main()
