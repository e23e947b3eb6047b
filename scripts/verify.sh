#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build + test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temp file and directory the smokes make, plus the daemon they
# start: one cleanup, registered once, runs on any exit.
ZL_TMP=()
ZOMBIED_PID=""
cleanup() {
    if [ -n "$ZOMBIED_PID" ]; then
        kill "$ZOMBIED_PID" 2>/dev/null || true
    fi
    if [ "${#ZL_TMP[@]}" -gt 0 ]; then
        rm -rf -- "${ZL_TMP[@]}"
    fi
}
trap cleanup EXIT
# `zl_tmp VAR [mktemp args]`: makes a temp path, stores it in VAR and
# adds it to the cleanup list.
zl_tmp() {
    local path
    path=$(mktemp "${@:2}")
    ZL_TMP+=("$path")
    printf -v "$1" '%s' "$path"
}

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings -W clippy::perf"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::perf

echo "==> determinism lint (wall-clock reads only in telemetry/profiling/load modules)"
# The sim-time wall: deterministic code must never read the host clock.
# Instant/SystemTime are allowed only where wall time IS the measurement
# — the profiler, the replay load harness, zlctl's top loop, and the CLI
# artifact stamps / bench timers.
WALL_ALLOW='^crates/(obs/src/profile\.rs|obs/src/telemetry\.rs|daemon/src/replay\.rs|daemon/src/bin/zlctl\.rs|bench/src/bin/zombieland\.rs|bench/benches/)'
if grep -rn --include='*.rs' -E 'Instant::now|SystemTime::now' crates \
    | grep -Ev "$WALL_ALLOW"; then
    echo "verify: FAIL — wall-clock read outside the allowlisted telemetry/profiling modules" >&2
    exit 1
fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> observability smoke (trace export parses and is non-empty)"
zl_tmp ZL_TRACE /tmp/zl-trace.XXXXXX.jsonl
./target/release/zombieland-cli --obs-level full --trace-out "$ZL_TRACE" \
    experiment fig9 > /dev/null
./target/release/zombieland-cli validate-trace "$ZL_TRACE"

echo "==> bench smoke (tiny grid emits a well-formed BENCH json, no bogus regression)"
zl_tmp ZL_BENCH /tmp/zl-bench.XXXXXX.json
./target/release/zombieland-cli bench --quick --servers 24 --scale 0.02 \
    --jobs 2 --out "$ZL_BENCH" > /dev/null
grep -q '"schema": "zombieland-bench-v1"' "$ZL_BENCH"
grep -q '"wall_ns"' "$ZL_BENCH"
grep -q '"regression"' "$ZL_BENCH"
# The REGRESSION flag must only fire when the host could actually run
# the workers concurrently; on capped hosts it stays false by design.
if grep -q '"regression": true' "$ZL_BENCH"; then
    echo "verify: FAIL — bench flagged a parallel scaling regression" >&2
    exit 1
fi

echo "==> scaling regression gate (jobs>1 must not run slower than jobs=1 on parallel hosts)"
# ROADMAP item 4: once the host can actually run workers concurrently,
# fanning out must never lose to the serial loop. Single-core containers
# (host_parallelism 1) cannot express a meaningful speedup, so the gate
# is a no-op there rather than a flaky failure.
ZL_HP=$(grep -m1 -o '"host_parallelism": [0-9]*' "$ZL_BENCH" | awk '{ print $2 }')
if [ "${ZL_HP:-1}" -gt 1 ]; then
    if ! grep -o '"speedup_vs_jobs1": [0-9.]*' "$ZL_BENCH" \
        | awk '{ if ($2 + 0 < 1.0) bad = 1 } END { exit bad }'; then
        echo "verify: FAIL — a jobs>1 grid ran slower than jobs=1 on a parallel host" >&2
        exit 1
    fi
fi

echo "==> scaling smoke (table1 output is byte-identical at jobs=1 and jobs=2)"
zl_tmp ZL_J1 /tmp/zl-jobs1.XXXXXX.txt
zl_tmp ZL_J2 /tmp/zl-jobs2.XXXXXX.txt
./target/release/zombieland-cli experiment table1 --scale 0.02 --jobs 1 > "$ZL_J1"
./target/release/zombieland-cli experiment table1 --scale 0.02 --jobs 2 > "$ZL_J2"
if ! cmp "$ZL_J1" "$ZL_J2"; then
    echo "verify: FAIL — parallel fan-out changed the table1 report" >&2
    exit 1
fi

echo "==> scenario smoke (--scenario file matches the equivalent ZL_* env run)"
zl_tmp ZL_SCEN /tmp/zl-scenario.XXXXXX.txt
zl_tmp ZL_ENV /tmp/zl-env.XXXXXX.txt
./target/release/zombieland-cli --scenario scenarios/smoke.toml \
    experiment table1 > "$ZL_SCEN"
ZL_SCALE=0.02 ZL_JOBS=1 ./target/release/zombieland-cli \
    experiment table1 > "$ZL_ENV"
if ! cmp "$ZL_SCEN" "$ZL_ENV"; then
    echo "verify: FAIL — scenario-file config diverged from the ZL_* env path" >&2
    exit 1
fi
if ./target/release/zombieland-cli --scenario /nonexistent.toml \
    experiment table1 > /dev/null 2>&1; then
    echo "verify: FAIL — unreadable --scenario file must be an error" >&2
    exit 1
fi

echo "==> scan cross-check smoke (release runs re-take every decision pick without the indexes)"
# ZL_VALIDATE=1 arms the invariant sweep (block summaries bit-equal to
# their hosts), the cross-check of every seeking, block-skipping
# admission/migration walk against an unskipped walk from the first
# entry, and of every wake, overcommit and demotion pick against a
# naive walk over the fleet; a mismatch panics.
for policy in neat oasis zombiestack; do
    ZL_VALIDATE=1 ZL_RACKS=6 ./target/release/zombieland-cli simulate \
        --servers 120 --days 1 --policy "$policy" > /dev/null
done
ZL_VALIDATE=1 ZL_RACKS=6 ZL_BACKEND=cxl ./target/release/zombieland-cli simulate \
    --servers 120 --days 1 --policy zombiestack > /dev/null

echo "==> streaming-memory guard (paper-preset bench bounds the resident event queue)"
zl_tmp ZL_PAPER /tmp/zl-paper.XXXXXX.json
# ZL_VALIDATE=1 arms the in-loop assertion that no more than one chunk of
# the trace is ever resident; the JSON check then pins the recorded peak
# to chunk size + 1 (the in-flight consolidation tick).
ZL_VALIDATE=1 ./target/release/zombieland-cli bench --paper --servers 120 \
    --days 1 --jobs 2 --out "$ZL_PAPER" > /dev/null
grep -q '"name": "paper"' "$ZL_PAPER"
grep -q '"events_per_sec"' "$ZL_PAPER"
if ! grep -o '"peak_event_queue_len": [0-9]*' "$ZL_PAPER" \
    | awk '{ n++; if ($2 > 65537) bad = 1 } END { exit (bad || n < 2) }'; then
    echo "verify: FAIL — event queue peak exceeds one streaming chunk" >&2
    exit 1
fi

echo "==> scenario gallery smoke (every scenarios/*.toml runs and matches its golden)"
zl_tmp ZL_GAL /tmp/zl-gallery.XXXXXX.txt
for scen in scenarios/*.toml; do
    name=$(basename "$scen" .toml)
    # The 48x1 grid keeps even paper_full.toml (whose servers/days the
    # explicit flags override) cheap enough for CI; racks/backend/
    # generations still come from the file.
    ./target/release/zombieland-cli --scenario "$scen" simulate \
        --servers 48 --days 1 --policy zombiestack --jobs 1 > "$ZL_GAL"
    golden="tests/golden/scenarios/$name.txt"
    if [ -f "$golden" ]; then
        if ! cmp "$ZL_GAL" "$golden"; then
            echo "verify: FAIL — scenario $name drifted from $golden" >&2
            exit 1
        fi
    else
        echo "    (no golden for $name; ran clean, skipping cmp)"
    fi
done

echo "==> backend smoke (--backend cxl runs, --list-backends names the registry)"
ZL_BK=$(./target/release/zombieland-cli --list-backends)
for key in rdma cxl; do
    if ! grep -q "$key" <<< "$ZL_BK"; then
        echo "verify: FAIL — --list-backends is missing '$key'" >&2
        exit 1
    fi
done
if ./target/release/zombieland-cli --backend nosuchfabric simulate \
    --servers 24 --days 1 > /dev/null 2>&1; then
    echo "verify: FAIL — unknown --backend must be an error" >&2
    exit 1
fi
# A typo must come back with a did-you-mean hint (the CLI exits
# non-zero here by design, so capture rather than pipe under pipefail).
ZL_HINT=$(./target/release/zombieland-cli --backend xcl simulate \
    --servers 24 --days 1 2>&1 || true)
if ! grep -q 'did you mean "cxl"' <<< "$ZL_HINT"; then
    echo "verify: FAIL — near-miss --backend should suggest 'cxl'" >&2
    exit 1
fi
zl_tmp ZL_CXL /tmp/zl-cxl.XXXXXX.txt
./target/release/zombieland-cli --backend cxl simulate --servers 48 --days 1 \
    --policy zombiestack --jobs 1 > "$ZL_CXL"
# The shared tier retires the zombie state entirely.
if ! grep -q 'zombie 0%' "$ZL_CXL"; then
    echo "verify: FAIL — --backend cxl still reports zombie time" >&2
    cat "$ZL_CXL" >&2
    exit 1
fi

echo "==> policy registry smoke (--list-policies names every registered policy)"
ZL_POL=$(./target/release/zombieland-cli --list-policies)
for key in alwayson neat oasis zombiestack noconsolidate; do
    if ! grep -q "$key" <<< "$ZL_POL"; then
        echo "verify: FAIL — --list-policies is missing '$key'" >&2
        exit 1
    fi
done
if ./target/release/zombieland-cli simulate --policy nosuchpolicy \
    > /dev/null 2>&1; then
    echo "verify: FAIL — unknown --policy must be an error" >&2
    exit 1
fi

echo "==> daemon smoke (zombied serves all seven ops; same-seed replays export identical metrics)"
zl_tmp ZL_DIR -d /tmp/zl-daemon.XXXXXX
ZL_EP="unix:$ZL_DIR/zombied.sock"
./target/release/zombied --listen "$ZL_EP" --servers 8 --seed 11 \
    > "$ZL_DIR/zombied.log" 2>&1 &
ZOMBIED_PID=$!
for _ in $(seq 1 50); do
    [ -S "$ZL_DIR/zombied.sock" ] && break
    sleep 0.1
done
if ! [ -S "$ZL_DIR/zombied.sock" ]; then
    echo "verify: FAIL — zombied did not come up" >&2
    cat "$ZL_DIR/zombied.log" >&2
    exit 1
fi
# One request of each of the seven control-plane ops. zlctl exits 0 for
# any well-formed server answer, so a hung or crashed daemon fails here.
./target/release/zlctl --connect "$ZL_EP" alloc-ext 1 128 > /dev/null
./target/release/zlctl --connect "$ZL_EP" alloc-swap 1 64 > /dev/null
./target/release/zlctl --connect "$ZL_EP" goto-zombie 7 2 > /dev/null
./target/release/zlctl --connect "$ZL_EP" free-mem 7 > /dev/null
./target/release/zlctl --connect "$ZL_EP" reclaim 7 1 > /dev/null
./target/release/zlctl --connect "$ZL_EP" lru-zombie > /dev/null
./target/release/zlctl --connect "$ZL_EP" us-reclaim 1 > /dev/null
# Two same-seed replay bursts: the exported metric registries must be
# byte-identical (decisions are modeled, not interleaving-dependent).
./target/release/zombieland-cli --metrics-out "$ZL_DIR/m1.json" replay \
    --connect "$ZL_EP" --requests 2000 --clients 2 --seed 9 --servers 8 \
    --out "$ZL_DIR/r1.json" > /dev/null
./target/release/zombieland-cli --metrics-out "$ZL_DIR/m2.json" replay \
    --connect "$ZL_EP" --requests 2000 --clients 2 --seed 9 --servers 8 \
    --out "$ZL_DIR/r2.json" > /dev/null
if ! cmp "$ZL_DIR/m1.json" "$ZL_DIR/m2.json"; then
    echo "verify: FAIL — same-seed replays diverged in exported metrics" >&2
    exit 1
fi
# The machine-readable replay artifact carries the run's vital signs.
grep -q '"schema": "zombieland-replay-v1"' "$ZL_DIR/r1.json"
grep -q '"requests": 2000' "$ZL_DIR/r1.json"
grep -q '"throughput_rps"' "$ZL_DIR/r1.json"
grep -q '"host_parallelism"' "$ZL_DIR/r1.json"
grep -q '"rtt_p99_us"' "$ZL_DIR/r1.json"
# Telemetry: the per-op counters scraped over the STATS op must equal
# exactly the ops served so far (7 one-shot zlctl ops + 2×2000 replay
# requests; STATS frames themselves are not ops).
./target/release/zlctl --connect "$ZL_EP" stats > "$ZL_DIR/s1.txt"
grep -q '^# TYPE zombied_ops_applied counter' "$ZL_DIR/s1.txt"
grep -q '^# TYPE zombied_decision_ns histogram' "$ZL_DIR/s1.txt"
SUM1=$(awk '/^zombied_op_/ { s += $2 } END { print s + 0 }' "$ZL_DIR/s1.txt")
if [ "$SUM1" -ne 4007 ]; then
    echo "verify: FAIL — scraped op counters sum to $SUM1, expected 4007" >&2
    exit 1
fi
# Scraping again must be monotone and count the scrape itself.
./target/release/zlctl --connect "$ZL_EP" stats > "$ZL_DIR/s2.txt"
SUM2=$(awk '/^zombied_op_/ { s += $2 } END { print s + 0 }' "$ZL_DIR/s2.txt")
if [ "$SUM2" -lt "$SUM1" ]; then
    echo "verify: FAIL — op counters went backwards across scrapes ($SUM1 -> $SUM2)" >&2
    exit 1
fi
SCRAPES=$(awk '$1 == "zombied_stats_scrapes" { print $2 }' "$ZL_DIR/s2.txt")
if [ "${SCRAPES:-0}" -lt 2 ]; then
    echo "verify: FAIL — zombied_stats_scrapes is '${SCRAPES:-}', expected >= 2" >&2
    exit 1
fi
# `top` renders its header plus one delta row per frame.
./target/release/zlctl --connect "$ZL_EP" top --interval-ms 100 --frames 2 \
    > "$ZL_DIR/top.txt"
if [ "$(wc -l < "$ZL_DIR/top.txt")" -ne 3 ]; then
    echo "verify: FAIL — zlctl top did not render 2 delta frames" >&2
    cat "$ZL_DIR/top.txt" >&2
    exit 1
fi
grep -q 'req/s' "$ZL_DIR/top.txt"
# Both ends write on drain. A client with one request in flight must
# still get every answer: a deferred write that never happens would
# hang here, so the run is bounded.
if ! timeout 60 ./target/release/zombieland-cli replay --connect "$ZL_EP" \
    --requests 500 --clients 1 --window 1 --seed 9 --servers 8 \
    --out "$ZL_DIR/r3.json" > /dev/null; then
    echo "verify: FAIL — a window-1 replay did not finish cleanly" >&2
    exit 1
fi
./target/release/zlctl --connect "$ZL_EP" shutdown > /dev/null
wait "$ZOMBIED_PID"
ZOMBIED_PID=""
if [ -S "$ZL_DIR/zombied.sock" ]; then
    echo "verify: FAIL — zombied left its socket file behind" >&2
    exit 1
fi

echo "==> profile smoke (--profile emits a phase table and a PROFILE json covering the run)"
zl_tmp ZL_PROF -d /tmp/zl-profile.XXXXXX
ZL_ROOT=$PWD
(cd "$ZL_PROF" && "$ZL_ROOT/target/release/zombieland-cli" \
    experiment fig8 --scale 0.02 --profile > run.txt)
grep -q 'Profile: wall time by phase' "$ZL_PROF/run.txt"
ZL_PROF_JSON=$(echo "$ZL_PROF"/PROFILE_*.json)
grep -q '"schema": "zombieland-profile-v1"' "$ZL_PROF_JSON"
grep -q '"phase": "fault_batch"' "$ZL_PROF_JSON"
# Self-time spans must partition the run: phase wall times sum to within
# 10% of total wall time (each nanosecond attributed at most once).
ZL_COV=$(grep -o '"coverage_pct": [0-9.]*' "$ZL_PROF_JSON" | awk '{ print $2 }')
if ! awk -v c="${ZL_COV:-0}" 'BEGIN { exit !(c >= 90.0 && c <= 100.5) }'; then
    echo "verify: FAIL — profile coverage is ${ZL_COV:-unset}%, want ~100%" >&2
    exit 1
fi

echo "verify: OK"
