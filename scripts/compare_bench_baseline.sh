#!/usr/bin/env bash
# Diffs a fresh JSON-lines run of the Table 1 sweeps against the committed
# BENCH_table1.json and exits nonzero on epoch/round/bits regressions
# beyond a tolerance (DISP_BENCH_TOLERANCE, default 0.10 = +10%).
#
#   scripts/compare_bench_baseline.sh [build_dir] [run.jsonl]
#
# Without a JSONL argument the script runs `disp_bench` itself (at the
# baseline's scale).  Identity columns (k, n, family, sched, ...) must
# match exactly; metric columns may improve freely but may not regress
# past the tolerance; machine-dependent telemetry columns (wallclock,
# peak RSS) and derived ratio columns are ignored.
set -euo pipefail

BUILD_DIR="${1:-build}"
JSONL="${2:-}"
TOL="${DISP_BENCH_TOLERANCE:-0.10}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BASELINE="${REPO_ROOT}/BENCH_table1.json"

SWEEPS=(table1_sync_rooted table1_sync_general table1_async_rooted
        table1_async_general table1_memory)

cd "${REPO_ROOT}"
if [ -z "${JSONL}" ]; then
  if [ ! -x "${BUILD_DIR}/disp_bench" ]; then
    echo "error: ${BUILD_DIR}/disp_bench not found — build first" \
         "(cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
  if [ -n "${DISP_BENCH_SCALE:-}" ] && [ "${DISP_BENCH_SCALE}" != "1" ]; then
    echo "error: DISP_BENCH_SCALE=${DISP_BENCH_SCALE} but the baseline was" \
         "recorded at scale 1 — unset it or pass a JSONL file" >&2
    exit 1
  fi
  JSONL="$(mktemp)"
  trap 'rm -f "${JSONL}"' EXIT
  "${BUILD_DIR}/disp_bench" "${SWEEPS[@]}" --jsonl="${JSONL}" > /dev/null
fi

python3 - "${JSONL}" "${BASELINE}" "${TOL}" <<'EOF'
import json, sys

jsonl_path, baseline_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])

# Lower-is-better metric columns, compared under the tolerance.
METRICS = {"RootedSync(ours)", "Sudo-style", "KS-baseline", "RootedAsync(ours)",
           "KS-async", "rounds", "epochs", "bits"}
# Experiment-identity columns, compared exactly.
IDENTITY = {"k", "n", "m", "Delta", "family", "l", "sched", "algo", "dispersed"}
# Machine-dependent telemetry: never compared, never a failure.  Wallclock
# and memory numbers document the recording machine; the simulation facts
# they ride alongside are covered by IDENTITY/METRICS above.
TELEMETRY = {"ms", "Mact/s", "Mmoves/s", "load_ms", "peak_rss_mb",
             "rss_lb_mb", "rss_ratio"}

fresh = {}
with open(jsonl_path) as f:
    for line in f:
        rec = json.loads(line)
        if "fit" in rec:
            continue
        rec.pop("table", None)
        fresh.setdefault(f"bench_{rec.pop('sweep')}", []).append(rec)

baseline = json.load(open(baseline_path))
failures = regressions = improvements = 0

def fail(msg):
    global failures
    failures += 1
    print(f"FAIL {msg}")

for name, bench in baseline["benches"].items():
    rows = fresh.get(name)
    if rows is None:
        fail(f"{name}: sweep missing from fresh run")
        continue
    if len(rows) != len(bench["rows"]):
        fail(f"{name}: {len(rows)} rows vs {len(bench['rows'])} in baseline")
        continue
    for i, (b, f) in enumerate(zip(bench["rows"], rows)):
        ident = " ".join(f"{k}={b[k]}" for k in ("algo", "family", "k", "l", "sched")
                         if k in b)
        for key, bval in b.items():
            if key in TELEMETRY:
                continue
            if key in IDENTITY:
                if f.get(key) != bval:
                    fail(f"{name} row {i} ({ident}): {key} = {f.get(key)!r}, "
                         f"baseline {bval!r}")
            elif key in METRICS:
                try:
                    bnum, fnum = float(bval), float(f[key])
                except (KeyError, ValueError):
                    fail(f"{name} row {i} ({ident}): unreadable metric {key}")
                    continue
                if fnum > bnum * (1.0 + tol) + 1e-9:
                    regressions += 1
                    fail(f"{name} row {i} ({ident}): {key} regressed "
                         f"{bnum:g} -> {fnum:g} (tolerance +{tol:.0%})")
                elif fnum < bnum * (1.0 - tol):
                    improvements += 1

total = sum(len(b["rows"]) for b in baseline["benches"].values())
print(f"compared {total} baseline rows: {failures} failures "
      f"({regressions} regressions), {improvements} improvements beyond {tol:.0%}")
sys.exit(1 if failures else 0)
EOF
