#!/usr/bin/env bash
# Re-records the two fact snapshots from a Release build in ./build (pass a
# build dir to override), run from anywhere in the repo:
#
#   BENCH_table1.json  the Table 1 sweeps (E1-E5): rows keyed by table
#                      column, plus the growth-fit lines
#   BENCH_faults.json  the fault campaign (E20): the self-stabilization
#                      scorecard
#
# Every column of both is a seed-deterministic simulation count, so a
# re-record reproduces the committed files byte for byte on any machine.
# That is the fact gate:
#
#   scripts/record_bench_baseline.sh build &&
#     git diff --exit-code -- BENCH_table1.json BENCH_faults.json
#
# A change that sets out to move a fact commits the diff.  The E19
# telemetry snapshot (BENCH_scale_real.json) has its own recorder,
# scripts/record_scale_real.sh.
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cd "${REPO_ROOT}"
if [ ! -x "${BUILD_DIR}/disp_bench" ]; then
  echo "error: ${BUILD_DIR}/disp_bench not found — build first" \
       "(cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi
if [ -n "${DISP_BENCH_SCALE:-}" ] && [ "${DISP_BENCH_SCALE}" != "1" ]; then
  echo "error: DISP_BENCH_SCALE=${DISP_BENCH_SCALE}, but the snapshots are" \
       "recorded at scale 1 — unset it" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

# record OUT SWEEP...: runs the sweeps once with a JSON-lines sink and
# repackages the rows into OUT: per sweep, its rows without the
# sweep/table coordinates, and its fit lines.
record() {
  local out="$1"
  shift
  "${BUILD_DIR}/disp_bench" "$@" --jsonl="${TMP}/run.jsonl" > /dev/null
  python3 - "${TMP}/run.jsonl" "${out}" "$@" <<'EOF'
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

with open(out_path, "w") as f:
    json.dump({"scale": 1.0, "benches": benches}, f, indent=1)
    f.write("\n")
for name, bench in benches.items():
    print(f"{name}: {len(bench['rows'])} rows, {len(bench['fits'])} fits")
print(f"wrote {out_path}")
EOF
}

record BENCH_table1.json table1_sync_rooted table1_sync_general \
    table1_async_rooted table1_async_general table1_memory
record BENCH_faults.json faults
