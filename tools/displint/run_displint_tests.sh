#!/usr/bin/env bash
# displint selftest: drives the built displint binary over the fixture files
# in testdata/, asserting exact rule IDs, finding counts, suppression
# accounting and exit codes.  Registered as the `displint_selftest` ctest
# entry (CMakeLists.txt) and run by the static-analysis CI job.
#
#   run_displint_tests.sh <displint-binary> <testdata-dir>
set -uo pipefail

DISPLINT="${1:?usage: run_displint_tests.sh <displint-binary> <testdata-dir>}"
TD="${2:?usage: run_displint_tests.sh <displint-binary> <testdata-dir>}"

fails=0
note() { printf '%s\n' "$*"; }
fail() {
  note "FAIL: $*"
  fails=$((fails + 1))
}

# run <expected-exit> <args...>  — captures output in $OUT
run() {
  local want="$1"
  shift
  OUT="$("$DISPLINT" "$@" 2>&1)"
  local got=$?
  if [[ "$got" != "$want" ]]; then
    fail "exit $got (want $want) for: $DISPLINT $*"
    note "$OUT"
  fi
}

# count <rule> — occurrences of "[RULE]" in $OUT
count() { grep -cF "[$1]" <<<"$OUT" || true; }

# only_rules <rule...> — no OTHER rule id may appear in $OUT
only_rules() {
  local seen
  seen="$(grep -oE '\[DL[0-9]{3}\]' <<<"$OUT" | sort -u | tr -d '[]' | tr '\n' ' ')"
  local id ok
  for id in $seen; do
    ok=no
    for want in "$@"; do [[ "$id" == "$want" ]] && ok=yes; done
    [[ "$ok" == yes ]] || fail "unexpected rule $id in output: $OUT"
  done
}

# --- clean fixture: zero findings, both suppressions counted as used -------
run 0 --root="$TD" --assume=fact "$TD/clean.cpp"
grep -q '0 findings, 2 suppressed' <<<"$OUT" ||
  fail "clean.cpp: want '0 findings, 2 suppressed', got: $OUT"

# --- one violating fixture per rule, exact IDs and counts ------------------
run 1 --root="$TD" --assume=fact "$TD/viol_dl001.cpp"
[[ "$(count DL001)" == 4 ]] || fail "viol_dl001: want 4 DL001, got: $OUT"
only_rules DL001

run 1 --root="$TD" --assume=fact "$TD/viol_dl002.cpp"
[[ "$(count DL002)" == 5 ]] || fail "viol_dl002: want 5 DL002, got: $OUT"
only_rules DL002

# the same entropy soup is legal in a telemetry-exempt scope
run 0 --root="$TD" --assume=exempt "$TD/viol_dl002.cpp"

run 1 --root="$TD" --assume=fact "$TD/viol_dl003.cpp"
[[ "$(count DL003)" == 5 ]] || fail "viol_dl003: want 5 DL003, got: $OUT"
only_rules DL003

run 1 --root="$TD" --assume=fact "$TD/viol_dl004.cpp"
[[ "$(count DL004)" == 3 ]] || fail "viol_dl004: want 3 DL004, got: $OUT"
only_rules DL004

# DL004 is not scope-gated: same findings outside fact paths
run 1 --root="$TD" --assume=exempt "$TD/viol_dl004.cpp"
[[ "$(count DL004)" == 3 ]] || fail "viol_dl004 (exempt): want 3 DL004, got: $OUT"

run 1 --root="$TD" --assume=fact "$TD/viol_dl005.cpp"
[[ "$(count DL005)" == 3 ]] || fail "viol_dl005: want 3 DL005, got: $OUT"
only_rules DL005

run 1 --root="$TD" --assume=fact "$TD/viol_dl007.cpp"
[[ "$(count DL007)" == 3 ]] || fail "viol_dl007: want 3 DL007, got: $OUT"
only_rules DL007

# DL007 is not scope-gated: the miscompile does not care where the code lives
run 1 --root="$TD" --assume=exempt "$TD/viol_dl007.cpp"
[[ "$(count DL007)" == 3 ]] || fail "viol_dl007 (exempt): want 3 DL007, got: $OUT"

# --- suppression hygiene: defective allows surface as DL000 ----------------
run 1 --root="$TD" --assume=fact "$TD/suppress_partial.cpp"
[[ "$(count DL000)" == 4 ]] || fail "suppress_partial: want 4 DL000, got: $OUT"
[[ "$(count DL005)" == 3 ]] || fail "suppress_partial: want 3 DL005, got: $OUT"
only_rules DL000 DL005
grep -q 'unknown rule' <<<"$OUT" || fail "suppress_partial: missing unknown-rule diagnostic"
grep -q 'justification' <<<"$OUT" || fail "suppress_partial: missing justification diagnostic"
grep -q 'unused suppression' <<<"$OUT" || fail "suppress_partial: missing unused diagnostic"

# --- catalog & usage surface ----------------------------------------------
run 0 --list-rules
for id in DL000 DL001 DL002 DL003 DL004 DL005 DL007; do
  grep -q "^$id" <<<"$OUT" || fail "--list-rules missing $id"
done

run 2 --no-such-flag

if [[ "$fails" -gt 0 ]]; then
  note "displint selftest: $fails failure(s)"
  exit 1
fi
note "displint selftest: all checks passed"
