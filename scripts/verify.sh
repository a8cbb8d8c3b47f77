#!/usr/bin/env bash
# Full verification: release build, the whole test suite, the static
# quality gate, and the end-to-end lint goldens over the bundled models.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test --workspace -q

echo "== static quality gate =="
./scripts/lint.sh

echo "== experiments report (the EXPERIMENTS.md tables) =="
out=$(cargo run -q --release -p smc-bench --bin experiments) || { echo "experiments failed"; exit 1; }
grep -Eq 'counterexample replays on model +- +true$' <<<"$out" \
    || { echo "experiments: the arbiter counterexample no longer replays: $out"; exit 1; }

echo "== bench observatory smoke (1 rep, gates off) =="
./target/release/smc bench --reps 1 --no-gate --baseline BENCH_kernel.json >/dev/null

echo "== batch smoke (pool + warm-start cache) =="
m="$(mktemp)"
printf 'models/counter8.smv\nmodels/mutex.smv\nmodels/counter8.smv\n' > "$m"
out=$(./target/release/smc batch --jobs 2 "$m") || { echo "batch smoke failed"; exit 1; }
grep -q "3 jobs, 3 passed" <<<"$out" || { echo "batch smoke: unexpected summary: $out"; exit 1; }
# Serially the duplicate counter8 job must warm-start from the cache.
out=$(./target/release/smc batch --jobs 1 "$m") || { echo "batch smoke failed"; exit 1; }
grep -q "1 cache hits" <<<"$out" || { echo "batch smoke: warm start missing: $out"; exit 1; }
rm -f "$m"

echo "== serve smoke (NDJSON over stdin, graceful drain) =="
out=$(printf '%s\n' \
    '{"op":"check","id":"a","path":"models/counter8.smv"}' \
    '{"op":"check","id":"b","path":"models/mutex.smv"}' \
    '{"op":"shutdown"}' \
    | ./target/release/smc serve --jobs 2) || { echo "serve smoke failed"; exit 1; }
[ "$(grep -c '"outcome":"pass"' <<<"$out")" -eq 2 ] \
    || { echo "serve smoke: expected 2 passes: $out"; exit 1; }
grep -q '"op":"drained","served":2,"rejected":0,"worst_exit":0' <<<"$out" \
    || { echo "serve smoke: bad drained summary: $out"; exit 1; }

echo "== serve black-box drill (watchdog trip must leave a dump) =="
dumps="$(mktemp -d)"
# A 3s drill hold against a 1s watchdog: the sentinel cancels the job,
# the request answers exhausted, and the flight recorder's ring lands
# on disk as a schema-versioned dump referenced by the response.
out=$(printf '%s\n' \
    '{"op":"check","id":"hung","trace_id":"verify-drill","path":"models/counter8.smv","hold_ms":3000}' \
    | ./target/release/smc serve --jobs 1 --watchdog 1 --dump-dir "$dumps") && rc=0 || rc=$?
[ "$rc" -eq 3 ] || { echo "dump drill: expected exit 3, got $rc: $out"; exit 1; }
grep -q '"outcome":"exhausted"' <<<"$out" || { echo "dump drill: no exhausted response: $out"; exit 1; }
grep -q '"dump":"' <<<"$out" || { echo "dump drill: response references no dump: $out"; exit 1; }
dump="$dumps/verify-drill.dump.jsonl"
[ -f "$dump" ] || { echo "dump drill: $dump missing"; exit 1; }
head -1 "$dump" | grep -q '"dump_schema":1' || { echo "dump drill: bad header: $(head -1 "$dump")"; exit 1; }
head -1 "$dump" | grep -q '"trace_id":"verify-drill"' || { echo "dump drill: header lost the trace id"; exit 1; }
# The header carries the job's last heap sample (it lives outside the
# ring, so overwrites cannot evict it) and the renderer shows it.
head -1 "$dump" | grep -q '"heap":{' || { echo "dump drill: header lost the heap brief"; exit 1; }
out=$(./target/release/smc debug dump "$dump") \
    || { echo "dump drill: smc debug dump cannot read its own format"; exit 1; }
grep -q 'heap        : ' <<<"$out" || { echo "dump drill: rendered dump lost the heap line"; exit 1; }
# The same renderer reads stdin, and a truncated header is a rendered
# diagnostic with the input-error exit class, not a panic.
./target/release/smc debug dump - < "$dump" >/dev/null \
    || { echo "dump drill: stdin path failed"; exit 1; }
head -c 40 "$dump" | ./target/release/smc debug dump - >/dev/null 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 2 ] || { echo "dump drill: truncated header should exit 2, got $rc"; exit 1; }
rm -rf "$dumps"

echo "== hostile-depth drill (a 2,000-deep SPEC is a parse error, not an abort) =="
deep="$(mktemp --suffix=.smv)"
{
    printf 'MODULE main\nVAR x : boolean;\nSPEC '
    printf '(%.0s' $(seq 2000); printf 'x'; printf ')%.0s' $(seq 2000); printf '\n'
} > "$deep"
# One worker: the deep job runs first on the thread that must then
# answer counter8.
out=$(printf '%s\n' \
    "{\"op\":\"check\",\"id\":\"deep\",\"path\":\"$deep\"}" \
    '{"op":"check","id":"after","path":"models/counter8.smv"}' \
    | ./target/release/smc serve --jobs 1) && rc=0 || rc=$?
[ "$rc" -eq 2 ] || { echo "depth drill: expected exit 2, got $rc: $out"; exit 1; }
grep -q '"id":"deep".*"outcome":"input_error"' <<<"$out" \
    || { echo "depth drill: deep SPEC not an input error: $out"; exit 1; }
grep -q '"id":"after".*"outcome":"pass"' <<<"$out" \
    || { echo "depth drill: the next request went unanswered: $out"; exit 1; }
grep -q '"op":"drained","served":2,"rejected":0,"worst_exit":2' <<<"$out" \
    || { echo "depth drill: bad drained summary: $out"; exit 1; }
./target/release/smc check "$deep" >/dev/null 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 2 ] || { echo "depth drill: smc check should exit 2, got $rc"; exit 1; }
rm -f "$deep"

echo "== deep-expression drill (a 100-conjunct TRANS checks) =="
# Every operand of `&` adds a level of expression height; 100 conjuncts
# are well inside the parser's 512 and must compile and check.
deep="$(mktemp --suffix=.smv)"
{
    printf 'MODULE main\nVAR x : boolean;\nASSIGN init(x) := FALSE;\nTRANS '
    for _ in $(seq 99); do printf 'next(x) != x & '; done
    printf 'next(x) != x\nSPEC AG (x -> AX !x)\n'
} > "$deep"
./target/release/smc check "$deep" >/dev/null || { echo "deep TRANS: expected exit 0, got $?"; exit 1; }
rm -f "$deep"

echo "== chained-reachability drill (the exported arbiter(3) in 64 sweeps) =="
# Every Netlist::to_smv export has a free scheduler input, so its
# reachable set is chained over one event per `sel` value: 40 sweeps on
# arbiter(3). Breadth-first search needs 96 iterations, so a silent
# fallback to it trips the iteration cap and exits 3.
cargo build -q --release --example export_smv
arb="$(mktemp --suffix=.smv)"
./target/release/examples/export_smv 3 > "$arb"
out=$(./target/release/smc reach --max-iters 64 "$arb") && rc=0 || rc=$?
[ "$rc" -eq 0 ] || { echo "chained drill: expected exit 0, got $rc: $out"; exit 1; }
grep -q '^reachable states: 11010048$' <<<"$out" \
    || { echo "chained drill: wrong reachable count: $out"; exit 1; }
rm -f "$arb"

echo "== computed-table smoke (a fresh manager starts at 4,096 entries) =="
out=$(./target/release/smc check --stats models/mutex.smv) || { echo "check --stats failed"; exit 1; }
grep -q '^cache capacity  : 4096 entries$' <<<"$out" \
    || { echo "check --stats: expected a 4096-entry table: $out"; exit 1; }

echo "== heap inspection smoke =="
# The JSON report is one schema-versioned object; spot-check the stamp
# and that the structural sections are present.
out=$(./target/release/smc inspect models/pipeline.smv --json) || { echo "inspect smoke failed"; exit 1; }
grep -q '"heap_schema":1' <<<"$out" || { echo "inspect smoke: schema stamp missing: $out"; exit 1; }
grep -q '"levels":\[' <<<"$out" || { echo "inspect smoke: per-level section missing"; exit 1; }
grep -q '"sift":\[' <<<"$out" || { echo "inspect smoke: sift section missing"; exit 1; }
out=$(./target/release/smc inspect models/pipeline.smv --at check --spec 0) \
    || { echo "inspect smoke: --at check failed"; exit 1; }
grep -q 'inspected at    : check' <<<"$out" || { echo "inspect smoke: wrong point: $out"; exit 1; }
# --heap appends the same snapshot to a plain check without moving the
# verdict lines.
out=$(./target/release/smc check --heap models/counter8.smv) || { echo "check --heap failed"; exit 1; }
grep -q -- '-- heap snapshot --' <<<"$out" || { echo "check --heap: snapshot missing"; exit 1; }

echo "== lint goldens over bundled models =="
# lint_demo.smv seeds one trigger per warning: exit 1, every code shown.
out=$(./target/release/smc lint models/lint_demo.smv) && rc=0 || rc=$?
[ "$rc" -eq 1 ] || { echo "lint_demo: expected exit 1, got $rc"; exit 1; }
for code in W001 W002 W003 W005 W010 W011 W020 W021 W022; do
    grep -q "warning\[$code\]" <<<"$out" || { echo "lint_demo: $code missing"; exit 1; }
done
# pipeline.smv seeds the dataflow demos: exactly one W022 (the heartbeat
# bit no spec can observe) and nothing else.
out=$(./target/release/smc lint models/pipeline.smv) && rc=0 || rc=$?
[ "$rc" -eq 1 ] || { echo "pipeline: expected exit 1, got $rc"; exit 1; }
[ "$(grep -c 'warning\[' <<<"$out")" -eq 1 ] || { echo "pipeline: expected exactly one warning"; exit 1; }
grep -q "warning\[W022\]" <<<"$out" || { echo "pipeline: W022 missing"; exit 1; }
# The healthy models must stay clean (no false positives) apart from
# arbiter2's genuine fairness-subsumes-liveness vacuity.
./target/release/smc lint models/mutex.smv >/dev/null
out=$(./target/release/smc lint models/arbiter2.smv) && rc=0 || rc=$?
[ "$rc" -eq 1 ] || { echo "arbiter2: expected exit 1, got $rc"; exit 1; }
[ "$(grep -c 'warning\[' <<<"$out")" -eq 1 ] || { echo "arbiter2: expected exactly one warning"; exit 1; }
grep -q "warning\[W020\]" <<<"$out" || { echo "arbiter2: W020 missing"; exit 1; }

echo "== dependency smoke (the spec cones of the pipeline model) =="
out=$(./target/release/smc deps models/pipeline.smv) || { echo "deps smoke failed"; exit 1; }
grep -q '^  spec 3: 1/6 — phase$' <<<"$out" || { echo "deps smoke: spec 3's cone moved: $out"; exit 1; }

echo "== overflow drill (i64::MIN mod -1 is a coded error, not a panic) =="
ovf="$(mktemp --suffix=.smv)"
printf 'MODULE main\nVAR x : 0..3;\nASSIGN init(x) := 0; next(x) := (-9223372036854775807 - 1) mod -1;\nSPEC AG x = 0\n' > "$ovf"
err=$(./target/release/smc check "$ovf" 2>&1 >/dev/null) && rc=0 || rc=$?
[ "$rc" -eq 2 ] || { echo "overflow drill: smc check should exit 2, got $rc: $err"; exit 1; }
grep -q 'error\[E002\]' <<<"$err" || { echo "overflow drill: no E002: $err"; exit 1; }
./target/release/smc deps "$ovf" >/dev/null || { echo "overflow drill: smc deps failed"; exit 1; }
rm -f "$ovf"

echo "verify: OK"
