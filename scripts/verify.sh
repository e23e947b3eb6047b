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

echo "==> rustdoc -D warnings (every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> determinism lint (wall-clock reads only in telemetry/profiling/load modules)"
# The sim-time wall: deterministic code must never read the host clock.
# Instant/SystemTime are allowed only where wall time IS the measurement
# — the profiler, the replay load harness, zlctl's top loop, and the CLI
# artifact stamps / bench timers.
WALL_ALLOW='^crates/(obs/src/profile\.rs|obs/src/telemetry\.rs|daemon/src/replay\.rs|daemon/src/bin/zlctl\.rs|bench/src/bin/zombieland\.rs)'
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

echo "==> scaling smoke (table1 output is byte-identical at jobs=1 and jobs=2)"
zl_tmp ZL_J1 /tmp/zl-jobs1.XXXXXX.txt
zl_tmp ZL_J2 /tmp/zl-jobs2.XXXXXX.txt
./target/release/zombieland-cli experiment table1 --scale 0.02 --jobs 1 > "$ZL_J1"
./target/release/zombieland-cli experiment table1 --scale 0.02 --jobs 2 > "$ZL_J2"
if ! cmp "$ZL_J1" "$ZL_J2"; then
    echo "verify: FAIL — parallel fan-out changed the table1 report" >&2
    exit 1
fi

echo "==> fault-path counters smoke (table2 metrics are byte-identical at jobs=1 and jobs=2)"
zl_tmp ZL_M1 /tmp/zl-metrics1.XXXXXX.json
zl_tmp ZL_M2 /tmp/zl-metrics2.XXXXXX.json
ZL_SCALE=0.04 ./target/release/zombieland-cli --obs-level summary --metrics-out "$ZL_M1" \
    experiment table2 --jobs 1 > /dev/null
ZL_SCALE=0.04 ./target/release/zombieland-cli --obs-level summary --metrics-out "$ZL_M2" \
    experiment table2 --jobs 2 > /dev/null
for name in hv.policy.examined hv.demand_batch_pages hv.readahead.evictions; do
    if ! grep -q "\"$name\"" "$ZL_M1"; then
        echo "verify: FAIL — table2 metrics lack $name" >&2
        exit 1
    fi
done
if ! cmp "$ZL_M1" "$ZL_M2"; then
    echo "verify: FAIL — parallel fan-out changed the table2 metrics" >&2
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
# ZL_VALIDATE=1 arms the invariant sweep (block summaries and filed
# loads bit-equal to their hosts), the cross-check of every seeking,
# block-skipping admission/migration walk against an unskipped walk from
# the first entry on live loads, of every cached rack pool against a
# fresh sum, and of every wake, overcommit and demotion pick against a
# naive walk over the fleet; a mismatch panics.
for policy in neat oasis zombiestack; do
    ZL_VALIDATE=1 ZL_RACKS=6 ./target/release/zombieland-cli simulate \
        --servers 120 --days 1 --policy "$policy" > /dev/null
done
ZL_VALIDATE=1 ZL_RACKS=6 ZL_BACKEND=cxl ./target/release/zombieland-cli simulate \
    --servers 120 --days 1 --policy zombiestack > /dev/null
# Per-host capacities flow through the filed stacking-order loads and the
# cached rack pools under the same checks.
ZL_VALIDATE=1 ./target/release/zombieland-cli simulate \
    --scenario scenarios/hetero.toml --servers 120 --days 1 \
    --policy zombiestack > /dev/null

echo "==> streaming-memory guard (the paper-scale bench bounds the resident event queue)"
zl_tmp ZL_PAPER /tmp/zl-paper.XXXXXX.json
# ZL_VALIDATE=1 arms the in-loop assertion that no more than one chunk of
# the trace is ever resident; the JSON check then pins the recorded peak
# to chunk size + 1 (the in-flight consolidation tick).
ZL_VALIDATE=1 ./target/release/zombieland-cli bench --servers 120 \
    --days 1 --out "$ZL_PAPER" > /dev/null
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
# Each connection folds its tally before it writes answers, so the
# response tags and decision samples count the same 4007 requests.
RESP1=$(awk '/^zombied_resp_/ { s += $2 } END { print s + 0 }' "$ZL_DIR/s1.txt")
DECIDED1=$(awk '$1 == "zombied_decision_ns_count" { print $2 }' "$ZL_DIR/s1.txt")
if [ "$RESP1" -ne 4007 ] || [ "${DECIDED1:-0}" -ne 4007 ]; then
    echo "verify: FAIL — scraped $RESP1 responses and ${DECIDED1:-0} decisions, expected 4007 each" >&2
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

echo "==> failover smoke (a release zombied loses its primary mid-replay and answers as if it had not)"
# Debug asserts are off in release builds, so this is the one check of
# the release mirror path: the secondary, promoted after request 1000,
# must hold every effect the primary committed. One client keeps the
# answers deterministic, so the scraped response tags and pool gauges
# must equal those of a daemon that never failed.
zl_tmp ZL_FO -d /tmp/zl-failover.XXXXXX
for run in failed healthy; do
    fail_flag=()
    [ "$run" = failed ] && fail_flag=(--fail-primary-after 1000)
    ./target/release/zombied --listen "unix:$ZL_FO/$run.sock" --servers 8 \
        --seed 11 "${fail_flag[@]}" > "$ZL_FO/$run.log" 2>&1 &
    ZOMBIED_PID=$!
    for _ in $(seq 1 50); do
        [ -S "$ZL_FO/$run.sock" ] && break
        sleep 0.1
    done
    if ! [ -S "$ZL_FO/$run.sock" ]; then
        echo "verify: FAIL — zombied ($run) did not come up" >&2
        cat "$ZL_FO/$run.log" >&2
        exit 1
    fi
    ./target/release/zombieland-cli replay --connect "unix:$ZL_FO/$run.sock" \
        --requests 4000 --clients 1 --seed 9 --servers 8 \
        --out "$ZL_FO/$run.json" > /dev/null
    ./target/release/zlctl --connect "unix:$ZL_FO/$run.sock" stats > "$ZL_FO/$run.txt"
    ./target/release/zlctl --connect "unix:$ZL_FO/$run.sock" shutdown > /dev/null
    wait "$ZOMBIED_PID"
    ZOMBIED_PID=""
done
FO_FAILOVERS=$(awk '$1 == "zombied_ha_failovers" { print $2 }' "$ZL_FO/failed.txt")
FO_ALIVE=$(awk '$1 == "zombied_ha_primary_alive" { print $2 }' "$ZL_FO/failed.txt")
FO_OPS=$(awk '/^zombied_op_/ { s += $2 } END { print s + 0 }' "$ZL_FO/failed.txt")
FO_RESP=$(awk '/^zombied_resp_/ { s += $2 } END { print s + 0 }' "$ZL_FO/failed.txt")
if [ "${FO_FAILOVERS:-}" != 1 ] || [ "${FO_ALIVE:-}" != 0 ] \
    || [ "$FO_OPS" -ne 4000 ] || [ "$FO_RESP" -ne 4000 ]; then
    echo "verify: FAIL — failover smoke read failovers '${FO_FAILOVERS:-}'," \
        "primary_alive '${FO_ALIVE:-}', $FO_OPS ops and $FO_RESP responses" \
        "(want 1, 0, 4000, 4000)" >&2
    exit 1
fi
if ! cmp <(grep -E '^zombied_(resp_|pool_)' "$ZL_FO/failed.txt") \
    <(grep -E '^zombied_(resp_|pool_)' "$ZL_FO/healthy.txt"); then
    echo "verify: FAIL — the failed-over daemon answered unlike a healthy one" >&2
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
