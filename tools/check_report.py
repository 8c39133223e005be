#!/usr/bin/env python3
"""Validate an llio_report/v1 JSON file (File::close job-level report).

Usage:
    check_report.py REPORT [--min-attributed 0.9] [--expect-straggler R]
                           [--require-phase NAME ...]

Checks, in order:

  * schema: the document is one JSON object tagged "llio_report/v1" with
    the required sections (ranks, phases, counters, counters_per_rank,
    histograms, straggler, sampling; critical_path when the run was
    traced).
  * internal consistency: every phase's per_rank_s has nranks entries
    and its min/max/sum agree with them; counters are non-negative, and
    counters_per_rank holds nranks values for every counter that sum to
    its total.
  * histogram reconciliation: for every merged histogram, the merged
    count equals the sum of the per-rank counts, and each merged
    quantile (p50/p95/p99) lands within one log-linear bucket of the
    per-rank envelope for that quantile.  The bucket formula below is a
    reimplementation of obs::histogram_bucket_index (values < 16 exact,
    then 4 sub-buckets per power-of-two octave) — the two must agree
    bucket for bucket, which tests/test_obs_agg.cpp pins on the C++
    side.
  * required phases (--require-phase NAME, repeatable): the phase is
    present and some rank spent time in it (e.g. list_build on a
    list-based run).
  * critical path (only when --min-attributed is given and the report
    has a critical_path section): attributed_frac must reach the floor.
    Use this gate only on serial (pipeline_depth=0) runs — pipelined
    windows on starved CI runners contain descheduled time that no span
    can attribute, so their fraction is scheduling noise, not coverage.
  * adapt decision trail (only when the report has an adapt section,
    i.e. the run used llio_adaptive): the policy name is known, the
    decisions/probes/switches counters are coherent, and every trail
    entry's op/backend/net index resolves to an interned dim in
    adapt.dims.  --expect-adapt additionally requires the section to be
    present (for CI jobs that assert the adaptive path actually ran),
    and --min-switches N requires at least N switches with the trail
    recording a switched entry (flip-scenario jobs).

Exit status: 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import sys


def bucket_index(v):
    """obs::histogram_bucket_index, verbatim."""
    v = int(v)
    if v < 0:
        v = 0
    if v < 16:
        return v
    msb = v.bit_length() - 1
    sub = (v >> (msb - 2)) & 0x3
    return min(16 + (msb - 4) * 4 + sub, 255)


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


def check_histograms(report):
    ok = True
    for h in report["histograms"]:
        name = h.get("name", "?")
        merged = h["merged"]
        per_rank = h["per_rank"]
        if len(per_rank) != report["nranks"]:
            ok = fail(f"histogram {name}: {len(per_rank)} per-rank "
                      f"summaries, want {report['nranks']}")
            continue
        if merged["count"] != sum(r["count"] for r in per_rank):
            ok = fail(f"histogram {name}: merged count {merged['count']} "
                      f"!= sum of per-rank counts")
        for q in ("p50", "p95", "p99"):
            occupied = [r for r in per_rank if r["count"] > 0]
            if not occupied or merged["count"] == 0:
                continue
            lo = min(bucket_index(r[q]) for r in occupied)
            hi = max(bucket_index(r[q]) for r in occupied)
            mb = bucket_index(merged[q])
            if not (lo - 1 <= mb <= hi + 1):
                ok = fail(f"histogram {name}: merged {q} {merged[q]} "
                          f"(bucket {mb}) outside per-rank envelope "
                          f"buckets [{lo}, {hi}] +/- 1")
    return ok


def check_adapt(report):
    """Validate the optional adapt section (decision trail).

    The trail indices are Sampler dim-table ids re-interned into
    adapt.dims at report time, so every op/backend/net in every entry
    must name an existing dim — a dangling index means the interning in
    obs::aggregate and the advisor's trail ring disagree.
    """
    adapt = report.get("adapt")
    if adapt is None:
        return True
    ok = True
    if adapt.get("policy") not in ("static", "greedy", "hysteresis"):
        ok = fail(f"adapt policy {adapt.get('policy')!r} unknown "
                  f"(want static|greedy|hysteresis)")
    for k in ("decisions", "probes", "switches"):
        v = adapt.get(k)
        if not isinstance(v, int) or v < 0:
            ok = fail(f"adapt.{k} is {v!r}, want a non-negative integer")
    if not ok:
        return ok
    if adapt["probes"] > adapt["decisions"]:
        ok = fail(f"adapt: {adapt['probes']} probes out of only "
                  f"{adapt['decisions']} decisions")
    if adapt["switches"] > adapt["decisions"]:
        ok = fail(f"adapt: {adapt['switches']} switches out of only "
                  f"{adapt['decisions']} decisions")
    dims = adapt.get("dims")
    trail = adapt.get("trail")
    if not isinstance(dims, list) or not all(
            isinstance(d, str) for d in dims):
        return fail("adapt.dims missing or not a list of strings")
    if not isinstance(trail, list):
        return fail("adapt.trail missing or not a list")
    if len(trail) > adapt["decisions"]:
        ok = fail(f"adapt: trail holds {len(trail)} entries but only "
                  f"{adapt['decisions']} decisions were made")
    prev_seq = 0
    for i, d in enumerate(trail):
        where = f"adapt.trail[{i}]"
        for k, typ in (("seq", int), ("op", int), ("backend", int),
                       ("net", int), ("view_sig", int),
                       ("size_class", int), ("arm", str),
                       ("probe", bool), ("switched", bool),
                       ("cost_ns_per_byte", (int, float)),
                       ("incumbent_ns_per_byte", (int, float))):
            if not isinstance(d.get(k), typ):
                ok = fail(f"{where}: field {k} is {d.get(k)!r}")
        if not ok:
            return ok
        if d["seq"] <= prev_seq:
            ok = fail(f"{where}: seq {d['seq']} not increasing "
                      f"(previous {prev_seq})")
        prev_seq = d["seq"]
        # The interned-dim referential check the trail exists to keep.
        for k in ("op", "backend", "net"):
            if not 0 <= d[k] < len(dims):
                ok = fail(f"{where}: {k} index {d[k]} does not resolve "
                          f"in adapt.dims (size {len(dims)})")
        if not d["arm"]:
            ok = fail(f"{where}: empty arm label")
        if d["cost_ns_per_byte"] < 0:
            ok = fail(f"{where}: negative cost_ns_per_byte")
    return ok


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
    ap.add_argument("--expect-adapt", action="store_true",
                    help="require the adapt decision-trail section "
                         "(llio_adaptive runs)")
    ap.add_argument("--min-switches", type=int, default=None,
                    help="require at least N adapt switches, with the "
                         "trail actually recording a switched entry "
                         "(implies --expect-adapt)")
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
                         ("histograms", list),
                         ("straggler", dict), ("global_histograms", dict),
                         ("sampling", dict)):
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
    ok = check_histograms(report) and ok
    ok = check_adapt(report) and ok
    if (args.expect_adapt or args.min_switches is not None) \
            and "adapt" not in report:
        ok = fail("--expect-adapt given but the report has no adapt "
                  "section (was llio_adaptive set?)")
    if args.min_switches is not None and "adapt" in report:
        adapt = report["adapt"]
        if adapt.get("switches", 0) < args.min_switches:
            ok = fail(f"adapt.switches {adapt.get('switches')} < required "
                      f"{args.min_switches}")
        trail_switches = sum(
            1 for d in adapt.get("trail", []) if d.get("switched"))
        if args.min_switches > 0 and trail_switches < 1:
            ok = fail("adapt trail records no switched entry (the switch "
                      "fell outside the trail ring?)")

    for k, v in report["counters"].items():
        if not isinstance(v, int) or v < 0:
            ok = fail(f"counter {k} is {v!r}, want a non-negative integer")

    sampling = report["sampling"]
    if sampling.get("produced", -1) < 0 or sampling.get("dropped", -1) < 0:
        ok = fail(f"sampling section malformed: {sampling}")
    if sampling.get("dropped", 0) > sampling.get("produced", 0):
        ok = fail("sampling dropped more records than it produced")

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
        adapt = report.get("adapt")
        if adapt:
            cp_note += (f", adapt {adapt['policy']}: "
                        f"{adapt['decisions']} decisions "
                        f"({adapt['probes']} probes, "
                        f"{adapt['switches']} switches)")
        print(f"ok: {report['nranks']} ranks, phases {sorted(phases)}, "
              f"{len(report['histograms'])} merged histograms, straggler "
              f"rank {straggler.get('rank')}"
              f" (imbalance {straggler.get('imbalance')}), file bytes "
              f"imbalance {file_bytes_imbalance(report):.3f}{cp_note}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
