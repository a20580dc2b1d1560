#!/usr/bin/env bash
# Records the `scale_real` campaign (E19: web-scale ingest + peak RSS) into
# BENCH_scale_real.json from a Release build in ./build (pass a build dir
# to override).  Its memory and wallclock columns are telemetry that
# documents the recording machine, so nothing gates them; a run takes
# minutes and several GB.  Run scripts/make_scale_data.sh first so the
# 10^7-node file cells are included (they are skipped with a note
# otherwise).
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SCALE_REAL_OUT="${REPO_ROOT}/BENCH_scale_real.json"

cd "${REPO_ROOT}"
if [ ! -x "${BUILD_DIR}/disp_bench" ]; then
  echo "error: ${BUILD_DIR}/disp_bench not found — build first" \
       "(cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi
# scale_real folds DISP_BENCH_SCALE into its literal ks.
if [ -n "${DISP_BENCH_SCALE:-}" ] && [ "${DISP_BENCH_SCALE}" != "1" ]; then
  echo "error: DISP_BENCH_SCALE=${DISP_BENCH_SCALE}, but the snapshot is" \
       "recorded at scale 1 — unset it" >&2
  exit 1
fi

# One disp_bench process per graph: a k = 2^20 campaign leaves the heap too
# fragmented for the probe's malloc_trim to compact (a million freed fiber
# frames), so in a shared process the first graph's slack floors every later
# graph's watermark.  Keep the list in sync with the benches_scale.cpp
# defaults.
SCALE_REAL_JSONL="$(mktemp)"
SCALE_REAL_PART="$(mktemp)"
trap 'rm -f "${SCALE_REAL_JSONL}" "${SCALE_REAL_PART}"' EXIT
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
