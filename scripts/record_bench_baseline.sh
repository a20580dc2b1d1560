#!/usr/bin/env bash
# Snapshots the Table 1 sweeps into BENCH_table1.json so future PRs have a
# perf trajectory to compare against.  Shells the unified disp_bench driver
# once with a JSON-lines sink and repackages the records into the snapshot
# layout (rows keyed by table column, fit lines).  Run from the repo root
# after a Release build in ./build; pass a build dir to override.
#
# Also runs the `scale_real` campaign (E19: web-scale ingest + peak RSS) into
# BENCH_scale_real.json.  Its memory/wallclock columns are telemetry that
# documents the recording machine; run scripts/make_scale_data.sh first so
# the 10^7-node file cells are included (they are skipped with a note
# otherwise).
#
# And the `faults` campaign (E20: fault loads vs protocols) into
# BENCH_faults.json — the self-stabilization scorecard, with per-cell
# recovered / recovered_at verdict columns.  Its rows are seed-deterministic
# facts (like Table 1), so re-recording on any machine reproduces them
# byte-identically.
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${REPO_ROOT}/BENCH_table1.json"
SCALE_REAL_OUT="${REPO_ROOT}/BENCH_scale_real.json"
FAULTS_OUT="${REPO_ROOT}/BENCH_faults.json"

SWEEPS=(table1_sync_rooted table1_sync_general table1_async_rooted
        table1_async_general table1_memory)

cd "${REPO_ROOT}"
if [ ! -x "${BUILD_DIR}/disp_bench" ]; then
  echo "error: ${BUILD_DIR}/disp_bench not found — build first" \
       "(cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi

JSONL="$(mktemp)"
trap 'rm -f "${JSONL}"' EXIT
"${BUILD_DIR}/disp_bench" "${SWEEPS[@]}" --jsonl="${JSONL}" > /dev/null

python3 - "${JSONL}" "${OUT}" "${SWEEPS[@]}" <<'EOF'
import json, sys

jsonl_path, out_path, sweeps = sys.argv[1], sys.argv[2], sys.argv[3:]
benches = {f"bench_{name}": {"rows": [], "fits": []} for name in sweeps}
with open(jsonl_path) as f:
    for line in f:
        rec = json.loads(line)
        key = f"bench_{rec.pop('sweep')}"
        if "fit" in rec:
            benches[key]["fits"].append(rec["fit"])
        else:
            rec.pop("table", None)
            benches[key]["rows"].append(rec)

snapshot = {"scale": 1.0, "benches": benches}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=1)
    f.write("\n")
for name, bench in benches.items():
    print(f"{name}: {len(bench['rows'])} rows")
print(f"wrote {out_path}")
EOF

# Web-scale memory campaign (E19).  All of its columns are telemetry
# (peak RSS, ingest wallclock) or already guarded by the engine's own
# invariants; the snapshot documents the machine + datasets it came from.
#
# One disp_bench process per graph: a k = 2^20 campaign leaves the heap too
# fragmented for the probe's malloc_trim to compact (a million freed fiber
# frames), so in a shared process the first graph's slack floors every later
# graph's watermark.  Keep the list in sync with the benches_scale.cpp
# defaults.
SCALE_REAL_JSONL="$(mktemp)"
SCALE_REAL_PART="$(mktemp)"
FAULTS_JSONL="$(mktemp)"
trap 'rm -f "${JSONL}" "${SCALE_REAL_JSONL}" "${SCALE_REAL_PART}" "${FAULTS_JSONL}"' EXIT
for spec in "er:fast=1,n=1048576" "ba:n=1048576" "rmat:n=1048576" \
            "file:bench/data/ba_1e7.e"; do
  "${BUILD_DIR}/disp_bench" scale_real --graphs="${spec}" --threads=1 \
      --jsonl="${SCALE_REAL_PART}" > /dev/null
  cat "${SCALE_REAL_PART}" >> "${SCALE_REAL_JSONL}"
done

python3 - "${SCALE_REAL_JSONL}" "${SCALE_REAL_OUT}" scale_real <<'EOF'
import json, sys

jsonl_path, out_path, sweeps = sys.argv[1], sys.argv[2], sys.argv[3:]
benches = {f"bench_{name}": {"rows": [], "notes": []} for name in sweeps}
with open(jsonl_path) as f:
    for line in f:
        rec = json.loads(line)
        key = f"bench_{rec.pop('sweep')}"
        if "note" in rec:
            # Skipped datasets (missing bench/data files) — keep the note so
            # the snapshot says what was absent when it was recorded.
            benches[key]["notes"].append(rec["note"])
            continue
        table = rec.pop("table", None)
        # Keep the per-cell telemetry rows plus the ingest-timing rows
        # (mirrored by emitTable under "ingest: PATH" titles); drop the
        # markdown mirrors of the per-graph cell tables.
        if table == "cell":
            benches[key]["rows"].append(rec)
        elif isinstance(table, str) and table.startswith("ingest:"):
            rec["table"] = table
            benches[key]["rows"].append(rec)

snapshot = {"scale": 1.0, "benches": benches}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=1)
    f.write("\n")
for name, bench in benches.items():
    print(f"{name}: {len(bench['rows'])} rows, {len(bench['notes'])} notes")
print(f"wrote {out_path}")
EOF

# Fault campaign (E20): the self-stabilization scorecard.  Every column is
# a seed-deterministic fact (verdicts, fault counts, recovery times), so
# the snapshot is reproducible byte-for-byte like the Table 1 sweeps.
"${BUILD_DIR}/disp_bench" faults --jsonl="${FAULTS_JSONL}" > /dev/null

python3 - "${FAULTS_JSONL}" "${FAULTS_OUT}" faults <<'EOF'
import json, sys

jsonl_path, out_path, sweeps = sys.argv[1], sys.argv[2], sys.argv[3:]
benches = {f"bench_{name}": {"rows": [], "fits": []} for name in sweeps}
with open(jsonl_path) as f:
    for line in f:
        rec = json.loads(line)
        key = f"bench_{rec.pop('sweep')}"
        rec.pop("table", None)
        benches[key]["rows"].append(rec)

snapshot = {"scale": 1.0, "benches": benches}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=1)
    f.write("\n")
for name, bench in benches.items():
    rows = bench["rows"]
    recovered = sum(1 for r in rows if r.get("recovered") == "yes")
    print(f"{name}: {len(rows)} rows ({recovered} recovered)")
print(f"wrote {out_path}")
EOF
