#!/usr/bin/env python3
"""Gate a bench_ablation_zerocopy run: zero-copy must not lose to staging.

Usage:
    check_zerocopy.py CURRENT [--min-speedup 1.0]

CURRENT holds one JSON object per line (the `sed -n 's/^json://p'`
extraction of the bench output; a leading schema line is tolerated).
The gate is within-run, so machine speed cancels out:

  * every dense- and interleaved-workload zerocopy=auto row must reach
    at least --min-speedup x its own staged (zerocopy=off) baseline, and
  * those auto rows must actually have taken the descriptor path
    (zerocopy_windows > 0, staging_bytes_saved > 0) — a silently
    disengaged fast path would otherwise pass at 1.0x forever.  The
    interleaved workload (4 KiB blocks over 3 ranks) never takes the
    dense bypass; its gain comes from the IOP's direct windows.

Holey rows are reported but not gated.

Exit status: 0 when the gate holds, 1 otherwise.
"""

import argparse
import json
import sys


def load_rows(path):
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or not line.startswith("{"):
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"error: {path}:{lineno}: invalid JSON record: {e.msg}",
                      file=sys.stderr)
                raise SystemExit(1)
            if not isinstance(row, dict) or row.get("bench") != "ablation_zerocopy":
                continue
            for field in ("backend", "workload", "zerocopy",
                          "speedup_vs_staged", "zerocopy_windows",
                          "staging_bytes_saved"):
                if field not in row:
                    print(f"error: {path}:{lineno}: row missing required "
                          f"field {field!r}", file=sys.stderr)
                    raise SystemExit(1)
            rows.append(row)
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("--min-speedup", type=float, default=1.0,
                    help="floor for gated auto vs staged (default 1.0)")
    args = ap.parse_args()

    rows = load_rows(args.current)
    auto_rows = [r for r in rows if r["zerocopy"] == "auto"]
    if not auto_rows:
        print(f"error: no zerocopy=auto rows in {args.current}")
        return 1

    if not any(r["workload"] == "interleaved" for r in auto_rows):
        print(f"error: no interleaved zerocopy=auto rows in {args.current}")
        return 1

    failed = False
    for r in auto_rows:
        gated = r["workload"] in ("dense", "interleaved")
        speedup = r["speedup_vs_staged"]
        problems = []
        if gated and speedup < args.min_speedup:
            problems.append(f"speedup {speedup:.2f} < floor {args.min_speedup:.2f}")
        if gated and r["zerocopy_windows"] <= 0:
            problems.append("descriptor path never engaged")
        if gated and r["staging_bytes_saved"] <= 0:
            problems.append("no staging bytes saved")
        verdict = "FAILED: " + "; ".join(problems) if problems else (
            "ok" if gated else "ok (not gated)")
        print(f"{r['backend']:>10} {r['workload']:<11} "
              f"speedup {speedup:5.2f}x  zc_windows {r['zerocopy_windows']:>4}  "
              f"{verdict}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
