#!/usr/bin/env bash
# Repo verification: build, test, regenerate a table end-to-end, and check
# formatting.  Run from the repository root:
#
#   ./scripts/verify.sh
#
# The table4 step exercises the full harness path (profile → transform →
# simulate, work-stealing pool, results cache, JSON artifact) and leaves
# its artifact at results/ci_table4.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# A warm run's --json artifact must show that it replayed everything: no
# interpretation and no cache miss.  Equal stdout alone would also pass a
# cache that rejects its own entries and silently recomputes them.
assert_fully_warm() {
    if ! grep -Eq '"interpretations": 0(,|$)' "$1" \
        || ! grep -Eq '"cache_misses": 0(,|$)' "$1"; then
        echo "$1: the warm run interpreted or missed the cache" >&2
        grep -E '"(interpretations|cache_misses)"' "$1" >&2
        exit 1
    fi
}

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q =="
cargo test -q --workspace

echo "== table4 end-to-end (test scale, JSON artifact) =="
cargo run --release -p guardspec-bench --bin table4 -- \
    --scale test --json results/ci_table4.json
test -s results/ci_table4.json

echo "== sampling smoke (table3 --sample: estimates present, CI > 0, warm replay) =="
SMPDIR=$(mktemp -d)
SMPARGS=(--scale test --sample --sample-interval 1000 --sample-detail 50 --sample-warm 50)
(cd "$SMPDIR" && "$OLDPWD/target/release/table3" "${SMPARGS[@]}" \
    --stable-json sampled.json > cold.txt)
grep -q '"sampling"' "$SMPDIR"/sampled.json
# Every cell sampled at this scale yields >= 2 windows, so no cell may
# report the exact-fallback CI of exactly zero.
if grep -q '"ipc_ci95": 0\.0[,}]' "$SMPDIR"/sampled.json; then
    echo "sampling smoke: found a zero-width CI" >&2
    exit 1
fi
# The sampled entries replay: a warm rerun misses nothing and prints the
# same table.
(cd "$SMPDIR" && "$OLDPWD/target/release/table3" "${SMPARGS[@]}" \
    --json warm.json > warm.txt)
cmp "$SMPDIR"/cold.txt "$SMPDIR"/warm.txt
assert_fully_warm "$SMPDIR"/warm.json
rm -rf "$SMPDIR"

echo "== blockcomp (compiled >= 1.5x, sampled >= 5x the reference engine) =="
# Times the interpreted reference engine, the compiled engine and sampling
# directly over prebuilt three-schemes cells.  Asserts internally: reference
# and compiled stats equal on every cell, every sampled CI covers the exact
# IPC, and the speedup floors hold on the fastest rep per path.  Overwrites
# the engines' evidence artifact.
cargo run --release -p guardspec-bench --bin blockcomp -- --scale small --jobs 1
test -s results/BENCH_8.json

echo "== trace cache cold/warm (table3 in a scratch dir) =="
# Cold run records binary trace blobs; the warm rerun in the same scratch
# dir must replay them (no interpretation, no miss) and print identical
# tables.
TCDIR=$(mktemp -d)
(cd "$TCDIR" && "$OLDPWD/target/release/table3" --scale test --jobs 1 > cold.txt)
# Blobs are sharded: results/cache/<2 hex>/trace-<digest>.bin
find "$TCDIR"/results/cache -name 'trace-*.bin' | grep -q .
(cd "$TCDIR" && "$OLDPWD/target/release/table3" --scale test --jobs 1 \
    --json warm.json > warm.txt)
cmp "$TCDIR"/cold.txt "$TCDIR"/warm.txt
assert_fully_warm "$TCDIR"/warm.json
rm -rf "$TCDIR"

echo "== perf benchmark smoke (warm table3 workload, digests checked) =="
# The perf children compare every stable artifact digest with
# results/perf/expected.json, so drifting science fails here.
PERFOUT=$(cargo run --release --quiet --manifest-path perf/Cargo.toml -- \
    --workload table3_test_warm --seconds 2)
echo "$PERFOUT"
echo "$PERFOUT" | grep -q '"failed":0'
echo "$PERFOUT" | grep -q '"correct":true'

echo "== warm cache at small scale (table3 cold then warm, 60 s cap each) =="
# A warm run re-reads every cached stage, including transform entries of
# hundreds of KB.  If a decoder turns quadratic again, the warm run hits
# the timeout and fails here instead of hanging.
WCDIR=$(mktemp -d)
(cd "$WCDIR" && timeout 60 "$OLDPWD/target/release/table3" --scale small --jobs 1 > cold.txt)
(cd "$WCDIR" && timeout 60 "$OLDPWD/target/release/table3" --scale small --jobs 1 \
    --json warm.json > warm.txt)
cmp "$WCDIR"/cold.txt "$WCDIR"/warm.txt
assert_fully_warm "$WCDIR"/warm.json
# Transform entries hold the printed program text only, no binary copy.
find "$WCDIR"/results/cache -name 'transform-*.json' | grep -q .
if find "$WCDIR"/results/cache -name 'transform-*.json' -exec grep -l '"bin"' {} + | grep .; then
    echo "warm cache: a transform entry carries a bin copy" >&2
    exit 1
fi
rm -rf "$WCDIR"

echo "== observability (plain then observed table3, report bin, trace-out, decision schema) =="
# Observability off must not perturb the science: table3 output with and
# without --observe is byte-identical on stdout.  The observed run follows
# a plain one in a fresh dir, so its unobserved entries already exist: it
# must leave them be, not rewrite them and count lost cache races.
OBSDIR=$(mktemp -d)
(cd "$OBSDIR" && "$OLDPWD/target/release/table3" --scale test > t3_plain.txt \
    && "$OLDPWD/target/release/table3" --scale test --observe --json t3_obs.json > t3_obs.txt)
cmp "$OBSDIR"/t3_plain.txt "$OBSDIR"/t3_obs.txt
if grep -q '"cache.race_lost"' "$OBSDIR"/t3_obs.json; then
    echo "observability: an observed run after a plain one lost cache races" >&2
    grep '"cache.race_lost"' "$OBSDIR"/t3_obs.json >&2
    exit 1
fi
# The report bin runs with cycle accounting forced on: it asserts per cell
# that the eight cycle buckets sum to stats.cycles and that the decision
# log carries a reason/action/behavior per visited branch (plus the cost
# comparison for every gated transform) — the schema check is internal.
(cd "$OBSDIR" && "$OLDPWD/target/release/report" --scale test --jobs 2 \
    --trace-out trace.json > report.txt)
test -s "$OBSDIR"/report.txt
grep -q "mispredict_recovery" "$OBSDIR"/report.txt
# The emitted Chrome trace-event document must load: required fields
# present, spans strictly nested per thread.
"$OLDPWD/target/release/report" --check-trace "$OBSDIR"/trace.json
rm -rf "$OBSDIR"

echo "== server smoke (2 sharded gsd + gsc sweep vs offline artifact) =="
# Two daemons each own half the sweep by cache-key range; gsc fans out,
# merges, and the merged artifact must be byte-identical to the offline
# bench binary's --stable-json output.  SIGTERM must drain and exit 0.
SRVDIR=$(mktemp -d)
target/release/table3 --scale small --stable-json "$SRVDIR/offline.json" > /dev/null
target/release/gsd --port 0 --cache-dir "$SRVDIR/cache0" --shard 0/2 > "$SRVDIR/gsd0.log" &
GSD0=$!
target/release/gsd --port 0 --cache-dir "$SRVDIR/cache1" --shard 1/2 > "$SRVDIR/gsd1.log" &
GSD1=$!
for _ in $(seq 1 100); do
    grep -q listening "$SRVDIR/gsd0.log" 2>/dev/null \
        && grep -q listening "$SRVDIR/gsd1.log" 2>/dev/null && break
    sleep 0.1
done
ADDR0=$(awk '{print $4}' "$SRVDIR/gsd0.log")
ADDR1=$(awk '{print $4}' "$SRVDIR/gsd1.log")
target/release/gsc --servers "$ADDR0,$ADDR1" --healthz
target/release/gsc --servers "$ADDR0,$ADDR1" --spec table3 --scale small \
    --out "$SRVDIR/served.json"
cmp "$SRVDIR/offline.json" "$SRVDIR/served.json"
# Warm replay through the service: still byte-identical.
target/release/gsc --servers "$ADDR0,$ADDR1" --spec table3 --scale small \
    --out "$SRVDIR/served_warm.json"
cmp "$SRVDIR/offline.json" "$SRVDIR/served_warm.json"
target/release/gsc --servers "$ADDR0" --metrics > /dev/null
kill -TERM "$GSD0" "$GSD1"
wait "$GSD0"
wait "$GSD1"
rm -rf "$SRVDIR"

echo "== service telemetry (traced stream + peer pull, Prometheus, logs) =="
# A warm peer W and a stone-cold daemon A peered with it, A slow-logging
# every request at debug level.  The traced streaming sweep must (a) keep
# the artifact byte-identical to the offline reference, (b) emit a Chrome
# trace (gsc validates it before writing) whose one trace id covers queue
# admission and the peer pull, and (c) keep gsd's stdout at exactly the
# one-line banner while structured JSON logs land on stderr.
TELDIR=$(mktemp -d)
target/release/table3 --scale test --stable-json "$TELDIR/offline.json" > /dev/null
target/release/gsd --port 0 --cache-dir "$TELDIR/cachew" > "$TELDIR/gsdw.log" &
GSDW=$!
for _ in $(seq 1 100); do
    grep -q listening "$TELDIR/gsdw.log" 2>/dev/null && break
    sleep 0.1
done
ADDRW=$(awk '{print $4}' "$TELDIR/gsdw.log")
target/release/gsc --servers "$ADDRW" --spec table3 --scale test \
    --out "$TELDIR/warm.json"
cmp "$TELDIR/offline.json" "$TELDIR/warm.json"
target/release/gsd --port 0 --cache-dir "$TELDIR/cachea" --peers "$ADDRW" \
    --slow-ms 0 --log-level debug \
    > "$TELDIR/gsda.log" 2> "$TELDIR/gsda.err" &
GSDA=$!
for _ in $(seq 1 100); do
    grep -q listening "$TELDIR/gsda.log" 2>/dev/null && break
    sleep 0.1
done
ADDRA=$(awk '{print $4}' "$TELDIR/gsda.log")
# Traced streaming run: W is warm, so A's worker pulls the artifact over
# /cache/<key> — the probe rides the request's trace id.
target/release/gsc --servers "$ADDRA" --spec table3 --scale test --stream \
    --trace-out "$TELDIR/trace_peer.json" --out "$TELDIR/traced.json"
cmp "$TELDIR/offline.json" "$TELDIR/traced.json"
grep -q 'peer.pull' "$TELDIR/trace_peer.json"
grep -q 'queue.wait' "$TELDIR/trace_peer.json"
# An ablation sweep misses the peer and executes locally: that trace must
# carry all five runner stages.
target/release/gsc --servers "$ADDRA" --spec ablation --scale test --stream \
    --trace-out "$TELDIR/trace_exec.json" > /dev/null
for stage in profile transform trace simulate collect; do
    grep -q "\"$stage\"" "$TELDIR/trace_exec.json"
done
# Prometheus scrape: gsc parses the exposition (monotone buckets, +Inf ==
# _count) before printing it; the latency histogram must have samples.
target/release/gsc --servers "$ADDRA" --metrics --prom > "$TELDIR/prom.txt"
grep -q 'series' "$TELDIR/prom.txt"
grep -Eq 'gsd_request_latency_seconds_count [1-9]' "$TELDIR/prom.txt"
# Telemetry off vs on: replay the same sweep untraced — still the same
# bytes.
target/release/gsc --servers "$ADDRA" --spec table3 --scale test \
    --out "$TELDIR/untraced.json"
cmp "$TELDIR/traced.json" "$TELDIR/untraced.json"
kill -TERM "$GSDA" "$GSDW"
wait "$GSDA"
wait "$GSDW"
# stdout discipline: the banner is the only stdout line even at debug.
test "$(wc -l < "$TELDIR/gsda.log")" -eq 1
grep -q '"event"' "$TELDIR/gsda.err"
rm -rf "$TELDIR"

echo "== loadgen keep-alive (BENCH_35.json: reuse + latency percentiles) =="
# Four passes against an embedded daemon — cold/close, warm/close,
# warm/keep-alive, warm/pipelined — overwriting the PR evidence artifact.
# The keep-alive and pipelined passes must actually reuse connections, and
# every pass reports histogram-derived p50/p95/p99/max latencies.
cargo run --release -p guardspec-bench --bin loadgen -- \
    --scale test --clients 4 --requests 8
test -s results/BENCH_35.json
grep -Eq '"server_reused": [1-9]' results/BENCH_35.json
grep -q '"p95_ms"' results/BENCH_35.json
grep -q '"max_ms"' results/BENCH_35.json

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== fuzz smoke (200 differential cases, fixed seed) =="
# Deterministic: fails (exit 1) on any transform-equivalence divergence.
cargo run --release -p guardspec-fuzz --bin fuzz -- --cases 200 --seed 7

echo "== cargo fmt --check =="
cargo fmt --check

echo "verify.sh: all checks passed"
