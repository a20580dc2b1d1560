#!/usr/bin/env python3
"""Asserts two JSONL result streams agree on every fact column.

    python3 scripts/ci_compare_facts.py REFERENCE.jsonl CANDIDATE.jsonl

Telemetry columns (timings, rates, RSS probes — the set the collector's
divergence auditor exempts, see src/fleet/collector.cpp) are stripped;
everything else must match as an unordered multiset of rows.
Used by the fleet-smoke CI job to pin `disp_fleet run` merges against an
unsharded single-process run at tolerance 0.
"""
import json
import sys

TELEMETRY = {"ms", "Mact/s", "Mmoves/s", "load_ms", "peak_rss_mb",
             "rss_lb_mb", "rss_ratio"}


def facts(path):
    rows = []
    for lineno, line in enumerate(open(path), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"{path}:{lineno}: invalid JSON: {e}")
        rows.append(tuple(sorted((k, v) for k, v in rec.items()
                                 if k not in TELEMETRY)))
    if not rows:
        sys.exit(f"{path}: no rows")
    return sorted(rows)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    ref, cand = facts(sys.argv[1]), facts(sys.argv[2])
    if ref != cand:
        only_ref = [r for r in ref if r not in cand]
        only_cand = [r for r in cand if r not in ref]
        for r in only_ref[:5]:
            print(f"only in {sys.argv[1]}: {dict(r)}", file=sys.stderr)
        for r in only_cand[:5]:
            print(f"only in {sys.argv[2]}: {dict(r)}", file=sys.stderr)
        sys.exit(f"fact divergence: {len(ref)} reference rows vs "
                 f"{len(cand)} candidate rows, "
                 f"{len(only_ref)}+{len(only_cand)} differ")
    print(f"{len(ref)} rows fact-identical")


if __name__ == "__main__":
    main()
