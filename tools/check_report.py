#!/usr/bin/env python3
"""Validate an llio_report/v1 JSON file (File::close job-level report).

Usage:
    check_report.py REPORT [--min-attributed 0.9] [--expect-straggler R]
                           [--require-phase NAME ...]

Checks, in order:

  * schema: the document is one JSON object tagged "llio_report/v1" with
    the required sections (ranks, phases, counters, counters_per_rank,
    straggler; critical_path when the run was traced).
  * internal consistency: every phase's per_rank_s has nranks entries
    and its min/max/sum agree with them; counters are non-negative, and
    counters_per_rank holds nranks values for every counter that sum to
    its total.
  * required phases (--require-phase NAME, repeatable): the phase is
    present and some rank spent time in it (e.g. list_build on a
    list-based run).
  * critical path (only when --min-attributed is given and the report
    has a critical_path section): attributed_frac must reach the floor.
    Use this gate only on serial (pipeline_depth=0) runs.  A pipelined
    write retires written-back windows outside any window span (in
    run_window_pipeline, when no window is pending and in the final
    drain); each such io_wait carries the index of an earlier window,
    so critical_path adds it to that window and clamps it to the
    window's own short span, and most of the writeback wait is lost.

Exit status: 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    return False


def check_phases(report):
    ok = True
    nranks = report["nranks"]
    for p in report["phases"]:
        name = p.get("name", "?")
        per_rank = p.get("per_rank_s")
        if not isinstance(per_rank, list) or len(per_rank) != nranks:
            ok = fail(f"phase {name}: per_rank_s has "
                      f"{len(per_rank or [])} entries, want {nranks}")
            continue
        # The scalars are printed with %.6f, so compare at that grain.
        eps = 2e-6
        if abs(min(per_rank) - p["min_s"]) > eps:
            ok = fail(f"phase {name}: min_s {p['min_s']} != "
                      f"min(per_rank_s) {min(per_rank)}")
        if abs(max(per_rank) - p["max_s"]) > eps:
            ok = fail(f"phase {name}: max_s {p['max_s']} != "
                      f"max(per_rank_s) {max(per_rank)}")
        if abs(sum(per_rank) - p["sum_s"]) > eps * nranks:
            ok = fail(f"phase {name}: sum_s {p['sum_s']} != "
                      f"sum(per_rank_s) {sum(per_rank)}")
    return ok


def check_counters(report):
    ok = True
    totals = report["counters"]
    per_rank = report["counters_per_rank"]
    if set(per_rank) != set(totals):
        ok = fail(f"counters_per_rank names {sorted(per_rank)} != "
                  f"counters names {sorted(totals)}")
    for name, values in per_rank.items():
        if not isinstance(values, list) or \
                len(values) != report["nranks"] or \
                not all(isinstance(v, int) and v >= 0 for v in values):
            ok = fail(f"counter {name}: per-rank values {values!r}, want "
                      f"{report['nranks']} non-negative integers")
        elif name in totals and sum(values) != totals[name]:
            ok = fail(f"counter {name}: per-rank sum {sum(values)} != "
                      f"total {totals[name]}")
    return ok


def file_bytes_imbalance(report):
    """max/mean of the ranks' file bytes (read + write): 1.0 when every
    IOP moved the same share, nranks when one rank did all the I/O."""
    per_rank = report["counters_per_rank"]
    zeros = [0] * report["nranks"]
    moved = [r + w for r, w in zip(per_rank.get("file_read_bytes", zeros),
                                   per_rank.get("file_write_bytes", zeros))]
    mean = sum(moved) / len(moved) if moved else 0
    return max(moved) / mean if mean > 0 else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("report")
    ap.add_argument("--min-attributed", type=float, default=None,
                    help="floor for critical_path.attributed_frac "
                         "(serial runs only; see module docstring)")
    ap.add_argument("--expect-straggler", type=int, default=None,
                    help="required straggler rank (for injected-slow-rank "
                         "scenarios)")
    ap.add_argument("--require-phase", action="append", default=[],
                    metavar="NAME",
                    help="require phase NAME with a non-zero sum_s "
                         "(repeatable)")
    args = ap.parse_args()

    with open(args.report) as f:
        try:
            report = json.load(f)
        except json.JSONDecodeError as e:
            print(f"error: {args.report}: invalid JSON: {e.msg}",
                  file=sys.stderr)
            return 1

    ok = True
    if report.get("schema") != "llio_report/v1":
        return int(not fail(f"schema is {report.get('schema')!r}, "
                            f"want 'llio_report/v1'"))
    for section, typ in (("nranks", int), ("ranks", list), ("phases", list),
                         ("counters", dict), ("counters_per_rank", dict),
                         ("straggler", dict)):
        if not isinstance(report.get(section), typ):
            ok = fail(f"missing or mistyped section {section!r}")
    if not ok:
        return 1
    if len(report["ranks"]) != report["nranks"]:
        ok = fail(f"{len(report['ranks'])} ranks listed, "
                  f"nranks={report['nranks']}")

    ok = check_phases(report) and ok
    sums = {p["name"]: p["sum_s"] for p in report["phases"]}
    for name in args.require_phase:
        if sums.get(name, 0) <= 0:
            ok = fail(f"phase {name} missing or never timed")
    ok = check_counters(report) and ok

    for k, v in report["counters"].items():
        if not isinstance(v, int) or v < 0:
            ok = fail(f"counter {k} is {v!r}, want a non-negative integer")

    straggler = report["straggler"]
    if args.expect_straggler is not None:
        if straggler.get("rank") != args.expect_straggler:
            ok = fail(f"straggler rank {straggler.get('rank')} != "
                      f"expected {args.expect_straggler}")

    cp = report.get("critical_path")
    if args.min_attributed is not None:
        if cp is None:
            ok = fail("--min-attributed given but the report has no "
                      "critical_path section (was the run traced?)")
        elif cp.get("windows", 0) <= 0:
            ok = fail("critical_path has no windows")
        elif cp["attributed_frac"] < args.min_attributed:
            ok = fail(f"attributed_frac {cp['attributed_frac']:.4f} < "
                      f"floor {args.min_attributed}")

    if ok:
        phases = {p["name"] for p in report["phases"]}
        cp_note = (f", critical path {cp['attributed_frac'] * 100:.1f}% "
                   f"attributed over {cp['windows']} windows "
                   f"(limiter {cp['limiter']})" if cp else "")
        print(f"ok: {report['nranks']} ranks, phases {sorted(phases)}, "
              f"straggler rank {straggler.get('rank')}"
              f" (imbalance {straggler.get('imbalance')}), file bytes "
              f"imbalance {file_bytes_imbalance(report):.3f}{cp_note}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
