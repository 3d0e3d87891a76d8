#!/usr/bin/env bash
# Repository gate: release build, full test suite, formatting, lints on
# every workspace crate, the root package and the vendored rand shim, and
# warning-free rustdoc. Run from anywhere; the script cd's to the repo
# root. Every step runs even when an earlier one fails: the failed steps
# are listed at the end, and the script then exits non-zero.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

KSMOKE_DIR="$(mktemp -d)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$KSMOKE_DIR" "$SMOKE_DIR"' EXIT
FAILED=()

# Runs one named step in a subshell with errexit on, so its first failing
# command ends the step but not the script, and records a failed step by
# name. (errexit is ignored inside `if` and `||` conditions, hence the
# explicit status capture.)
step() {
    local name=$1
    shift
    echo "==> $name"
    set +e
    (set -e; "$@")
    local status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        echo "FAIL: $name (exit $status)"
        FAILED+=("$name")
    fi
}

step "cargo build --release" cargo build --release

step "cargo test -q" cargo test -q

# The vendored rand shim is not a workspace member, so `cargo test` skips
# its unit tests, which pin the seeded stream every synthetic flow, query
# set and weight init derives from.
step "cargo test -q -p rand (vendored shim)" cargo test -q -p rand

# The benchmark builds against the workspace crates by path, so a change
# to the surface it compiles against (QueryBackend's methods,
# StatsSnapshot's fields) fails this build, and its own tests
# (wrapper_forwards_every_method among them) run here. A dependency
# dropped from a workspace crate makes cargo rewrite perfbench/Cargo.lock,
# which is the benchmark's file: that fails the checksum comparison.
perfbench_tests() {
    lock_before=$(cksum < perfbench/Cargo.lock)
    cargo test --release --offline -q --manifest-path perfbench/Cargo.toml \
        --target-dir target/perfbench
    [ "$(cksum < perfbench/Cargo.lock)" = "$lock_before" ] \
        || { echo "FAIL: building perfbench rewrote perfbench/Cargo.lock"; exit 1; }
}
step "perfbench tests against the tree (perfbench/Cargo.lock unchanged)" perfbench_tests

# Rerun the engine's bit-identity proptests and the serving suites 20x
# to prove them deterministic: every event loop executes engine work
# concurrently, so a race between loops, or on the engine's one cache,
# would show up as an intermittent failure. serve_alloc counts the
# allocations of a live two-loop server, so a timing-dependent path in it
# (two jobs coalescing into one batch, a late allocation after a
# response) would show up here as a count that varies.
determinism() {
    for run in $(seq 20); do
        out=$(cargo test -q -p o4a-ensemble --test engine_props 2>&1) \
            || { echo "$out"; echo "FAIL: engine_props run $run"; exit 1; }
        out=$(cargo test -q -p o4a-serve --test loopback --test serve_alloc \
                --test trace_e2e --test metrics_e2e 2>&1) \
            || { echo "$out"; echo "FAIL: serving suites run $run"; exit 1; }
    done
}
step "engine_props + serving suites x20 (determinism)" determinism

# The scalar dispatch tier must stay bit-identical to the SIMD tiers on
# every host (the O4A_ISA contract). Re-run the kernel proptests with the
# env override, so every test in them runs on the tier resolved at
# startup: gemm_props, conv_props and into_props' add/relu/Adam test
# also force each tier per test, but into_props' matmul_into and conv
# _into tests (kernels which dispatch) and half_props (f16 conversions,
# one loop on every tier) run only on the resolved tier. The training pins hold the whole training stack to
# the same contract end to end: the same final-loss bits and prediction
# digests on the scalar tier, and again on one thread.
scalar_identity() {
    O4A_ISA=scalar cargo test -q --release -p o4a-tensor \
        --test gemm_props --test into_props --test half_props --test conv_props
    O4A_ISA=scalar cargo test -q --release --test training_pins
    O4A_ISA=scalar O4A_THREADS=1 cargo test -q --release --test training_pins
}
step "O4A_ISA=scalar kernel identity proptests + training pins (and O4A_THREADS=1)" \
    scalar_identity

step "cargo fmt --check" cargo fmt --check

# Lint every workspace crate, the root package with its examples and
# integration tests, and the rand shim the synthetic data draws from
# (`-p rand` lints the shim although it is not a workspace member).
step "cargo clippy -D warnings (tensor, nn, core, bench, serve, obs, ensemble, grid, data, models, root, rand)" \
    cargo clippy --release -p o4a-tensor -p o4a-nn -p o4a-core -p o4a-bench \
    -p o4a-serve -p o4a-obs -p o4a-ensemble -p o4a-grid -p o4a-data \
    -p o4a-models -p one4all-st -p rand \
    --all-targets -- -D warnings

# Rustdoc must build without a warning: a public item renamed or removed
# leaves every intra-doc link to it dangling, and a public doc linking a
# private item renders a dead link.
step "cargo doc -D warnings (rustdoc, whole workspace)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Kernel smoke: quick bench run to a scratch path (the committed
# BENCH_kernels.json is NOT overwritten), then require that no kernel
# got slower with more threads — every speedup_t2/speedup_t4 must be
# >= 1.0. On a box with fewer cores than a column, the bench reuses the
# serial measurement for capped columns, so the ratios are exactly
# 1.000 there rather than timing noise. The two query rows never enter
# the pool (their loops run on the calling thread), so the bench reuses
# their t1 measurement for t2 and t4 as well and they read exactly 1.000;
# the query-path gate below covers them.
kernels_smoke() {
    # Seed the scratch path with the committed baseline so the bench
    # computes vs_prev_t1 against it (the committed BENCH_kernels.json is
    # NOT overwritten).
    cp BENCH_kernels.json "$KSMOKE_DIR/BENCH_kernels.json"
    ./target/release/kernels --quick --out "$KSMOKE_DIR/BENCH_kernels.json" \
        > "$KSMOKE_DIR/kernels.log" 2>&1
    grep -o '"speedup_t[24]": [0-9.]*' "$KSMOKE_DIR/BENCH_kernels.json" | awk '
        { if ($2 + 0 < 1.0) { bad = 1; print "kernel speedup below 1.0: " $0 } }
        END { exit bad }
    '
}
step "kernels smoke (quick bench, t1/t2/t4 no-regression)" kernels_smoke
# Dispatch gate: on a host with AVX2 the runtime-dispatched matmul must
# beat the forced-scalar tier by a clear margin (>= 1.2x) — this is the
# whole point of the explicit-SIMD kernels, and a silently broken dispatch
# (e.g. a detection bug resolving to scalar) would otherwise pass every
# bit-identity test. vs_scalar is measured inside one bench process, so
# machine drift cancels.
dispatch_gate() {
    awk '
        /"name": "matmul_256x1024x1024"/ {
            match($0, /"vs_scalar": [0-9.]+/)
            vs = substr($0, RSTART + 13, RLENGTH - 13) + 0
        }
        END {
            printf "dispatched matmul vs forced-scalar: %.3fx\n", vs
            if (vs < 1.2) { print "FAIL: dispatched matmul < 1.2x scalar"; exit 1 }
        }
    ' "$KSMOKE_DIR/BENCH_kernels.json"
}
if grep -q '\bavx2\b' /proc/cpuinfo 2>/dev/null; then
    step "ISA dispatch gate (AVX2 host: matmul vs_scalar >= 1.2)" dispatch_gate
else
    echo "==> ISA dispatch gate skipped (no AVX2 on this host)"
fi
# Observability overhead gate, two layers:
#   1. Direct: the bench measures the exact span + FLOP-counter prologue
#      the GEMM kernel runs per call, in the same process as the matmul
#      timing (so machine drift cancels). The instrumentation must cost
#      < 3% of the matmul call it wraps.
#   2. Gross wall-clock guard: matmul t1 vs the committed baseline must
#      stay >= 0.85 (run-to-run noise on shared boxes exceeds 10%, so a
#      tight wall-clock bound would be flaky; a systematic slowdown —
#      e.g. accidentally instrumenting per element — still trips it).
observability_gate() {
    awk '
        /"instrumentation_ns_per_call"/ { gsub(/[^0-9.]/, "", $2); instr = $2 + 0 }
        /"name": "matmul_256x1024x1024"/ {
            match($0, /"median_secs": \[[0-9.e-]+/)
            t1 = substr($0, RSTART + 16, RLENGTH - 16) + 0
            match($0, /"vs_prev_t1": [0-9.]+/)
            vs = substr($0, RSTART + 14, RLENGTH - 14) + 0
        }
        END {
            frac = instr / (t1 * 1e9)
            printf "instrumentation %.1f ns/call = %.5f%% of matmul t1\n", instr, frac * 100
            if (frac >= 0.03) { print "FAIL: instrumentation >= 3% of matmul"; exit 1 }
            if (vs < 0.85) { print "FAIL: matmul t1 regressed >15% vs baseline: vs_prev_t1=" vs; exit 1 }
        }
    ' "$KSMOKE_DIR/BENCH_kernels.json"
}
step "observability overhead gate (instrumentation < 3% of matmul)" observability_gate

# Training-step smoke: the end-to-end step (forward + loss + backward +
# clip + Adam, i.e. the whole allocation/workspace stack around the
# kernels) must stay within 5% of the committed baseline. The comparison
# is drift-normalized: shared boxes show multi-second background-load
# bursts that can cover the whole quick-bench window, so the raw
# vs_prev_t1 would flap. Matmul's vs_prev_t1 from the same process run
# witnesses that machine drift; a genuine regression in the training
# stack slows the train step but not matmul, and still trips the gate.
train_step_smoke() {
    awk '
        /"name": "matmul_256x1024x1024"/ {
            match($0, /"vs_prev_t1": [0-9.]+/)
            mm = substr($0, RSTART + 14, RLENGTH - 14) + 0
        }
        /"name": "train_step_stresnet_32x32"/ {
            match($0, /"vs_prev_t1": [0-9.]+/)
            ts = substr($0, RSTART + 14, RLENGTH - 14) + 0
        }
        END {
            if (mm <= 0) { print "FAIL: no matmul vs_prev_t1 in bench json"; exit 1 }
            printf "train_step vs_prev_t1 = %.3f (matmul drift witness %.3f, normalized %.3f)\n", \
                ts, mm, ts / mm
            if (ts / mm < 0.95) { print "FAIL: train step regressed >5% vs baseline"; exit 1 }
        }
    ' "$KSMOKE_DIR/BENCH_kernels.json"
}
step "train-step smoke (drift-normalized vs_prev_t1 >= 0.95)" train_step_smoke

# Query-path gate: the engine's warm `query_many` (a decomposition-cache
# hit per mask, then `interpret`) may cost at most 2.5x bare `interpret`
# over the same pre-decomposed groups and snapshot. The kernels run above
# times the two loops in alternation at one thread, one >= 1 ms sample of
# each per pair, and reports the median of 31 per-pair ratios as
# `query_path_ratio`, so host load that hits one side of a pair hits the
# other too. Dividing the two rows' separately timed medians instead read
# above 2.5 in 3 of 54 runs against medians of 1.70-1.72, with no query
# code changed. An engine that decomposes again on every hit reads
# 6.5-9.0x and trips it.
query_path_gate() {
    awk '
        /"query_path_ratio"/ { gsub(/[^0-9.]/, "", $2); ratio = $2 + 0; seen = 1 }
        END {
            if (!seen || ratio <= 0) { print "FAIL: no query_path_ratio in bench json"; exit 1 }
            printf "engine query_many / bare interpret: %.3fx\n", ratio
            if (ratio > 2.5) { print "FAIL: engine hit path > 2.5x bare interpret"; exit 1 }
        }
    ' "$KSMOKE_DIR/BENCH_kernels.json"
}
step "query-path gate (engine query_many <= 2.5x bare interpret)" query_path_gate

# Ensemble planner gate: the 2-model hotspot scenario must hold
# end-to-end (routing + accuracy, run as the dedicated test binary), and
# the quick bench must show (1) the O4AENS01 artifact round-trips
# bit-identically, (2) ensemble validation RMSE <= the best single
# member's, and (3) plan-resolved lookup within 5% of single-model
# lookup (the bench gates on a single-member plan that provably serves
# identical terms, so the ratio is pure plan-machinery overhead, and it
# asserts bit-identity between the two backends before timing). The
# summary line also prints the plan build time, with no bound, so every
# log shows what planning costs; the bench writes it in exponent form
# (`1.767716e-2`), which the digit filter below would mangle.
ensemble_gate() {
    cargo test -q -p o4a-ensemble --test two_model_e2e
    ./target/release/ensemble --quick --out "$KSMOKE_DIR/BENCH_ensemble.json" \
        > "$KSMOKE_DIR/ensemble.log" 2>&1
    grep -q '"roundtrip_bit_identical": true' "$KSMOKE_DIR/BENCH_ensemble.json" \
        || { echo "FAIL: O4AENS01 round-trip not bit-identical"; exit 1; }
    awk '
        /"best_single_rmse"/  { gsub(/[^0-9.]/, "", $2); best = $2 + 0 }
        /"ensemble_rmse"/     { gsub(/[^0-9.]/, "", $2); ens = $2 + 0 }
        /"overhead_vs_single"/ { gsub(/[^0-9.]/, "", $2); ovh = $2 + 0 }
        /"plan_build_secs"/   { sub(/,$/, "", $2); plan = $2 + 0 }
        END {
            printf "ensemble rmse %.4f vs best single %.4f, lookup overhead %.3fx, plan build %.2f ms\n", \
                ens, best, ovh, plan * 1e3
            if (ens > best) { print "FAIL: ensemble rmse worse than best single member"; exit 1 }
            if (ovh > 1.05) { print "FAIL: plan-resolved lookup >5% over single-model"; exit 1 }
        }
    ' "$KSMOKE_DIR/BENCH_ensemble.json"
}
step "ensemble gate (2-model e2e + quick bench: codec, accuracy, overhead)" ensemble_gate

# Serving smoke: cold-start a server on an ephemeral port, drive it with
# the load generator for ~2s, and require non-zero throughput (loadgen
# exits non-zero when no request succeeds) plus a clean server exit.
serve_smoke() {
    ./target/release/serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/addr" \
        --side 16 --artifacts "$SMOKE_DIR/artifacts" --run-secs 6 \
        > "$SMOKE_DIR/serve.log" 2>&1 &
    SERVE_PID=$!
    ./target/release/loadgen --addr-file "$SMOKE_DIR/addr" --threads 2 \
        --secs 2 --out "$SMOKE_DIR/BENCH_serve.json" \
        --metrics-out "$SMOKE_DIR/metrics.prom"
    wait "$SERVE_PID"
    grep -q '"requests"' "$SMOKE_DIR/BENCH_serve.json"
    grep -q '"outcomes"' "$SMOKE_DIR/BENCH_serve.json"

    # Throughput gate: the epoll data plane must beat the retired
    # thread-per-connection baseline (4645.7 rps on the 1-core bench host,
    # see BENCH_serve.json history) by >= 1.5x even in this short smoke.
    # The 0.97 factor is the tracing-overhead allowance: sampling is OFF
    # here (O4A_TRACE unset), and the disabled trace path (one relaxed load
    # + branch per site, proven alloc-free by trace_no_alloc) must keep the
    # smoke within 3% of the pre-tracing gate.
    awk '
        /"throughput_rps"/ { gsub(/[^0-9.]/, "", $2); rps = $2 + 0 }
        /"protocol_errors"/ { gsub(/[^0-9.]/, "", $2); perr = $2 + 0 }
        END {
            printf "serve smoke throughput %.1f rps (gate: >= %.1f)\n", rps, 4645.7 * 1.5 * 0.97
            if (rps < 4645.7 * 1.5 * 0.97) { print "FAIL: epoll data plane slower than 0.97 * 1.5x the thread-per-connection baseline"; exit 1 }
            if (perr != 0) { print "FAIL: protocol errors on a clean loadgen run"; exit 1 }
        }
    ' "$SMOKE_DIR/BENCH_serve.json"
}
step "serve smoke (serve + loadgen, ~2s)" serve_smoke

# Sharded smoke: K=2 behind the ShardRouter. The serve bin proves the
# router bit-identical to the unsharded backend over a mask sample
# before opening the listener (it panics otherwise), so reaching the
# serving phase with zero protocol errors is the identity gate.
# Tracing rides this run: every query sampled (O4A_TRACE=1 through the
# env path), loadgen pulls a TRACE dump mid-run (--trace-sample) and
# writes both the raw Chrome JSON and per-stage columns into the bench
# report.
sharded_smoke() {
    O4A_TRACE=1 ./target/release/serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/saddr" \
        --side 16 --artifacts "$SMOKE_DIR/artifacts" --shards 2 --run-secs 6 \
        > "$SMOKE_DIR/sharded-serve.log" 2>&1 &
    SSERVE_PID=$!
    ./target/release/loadgen --addr-file "$SMOKE_DIR/saddr" --threads 2 \
        --secs 2 --zipf 1.1 --hot-masks 64 --out "$SMOKE_DIR/BENCH_sserve.json" \
        --trace-sample 1 --trace-out "$SMOKE_DIR/trace.json" \
        --metrics-out "$SMOKE_DIR/smetrics.prom"
    wait "$SSERVE_PID"
    grep -q 'shard router bit-identity verified' "$SMOKE_DIR/sharded-serve.log" \
        || { echo "sharded serve never verified bit-identity"; exit 1; }
    awk '
        /"protocol_errors"/ { gsub(/[^0-9.]/, "", $2); perr = $2 + 0 }
        /"shard_loads"/ { loads = $0 }
        END {
            if (perr != 0) { print "FAIL: protocol errors on the sharded run"; exit 1 }
            if (loads !~ /\[[0-9]+, *[0-9]+\]/) { print "FAIL: STATS did not surface two per-shard load counters: " loads; exit 1 }
        }
    ' "$SMOKE_DIR/BENCH_sserve.json"
    # Cache gate: with a 64-mask hot working set the router's
    # decomposition memo, which it reports through the STATS plan-cache
    # fields too, must be serving hits by the end of the run (a 0.0 hit
    # rate would mean every mask decomposed again or the STATS plan-cache
    # fields went missing).
    awk '
        /"plan_cache"/ {
            match($0, /"hit_rate": [0-9.]+/)
            rate = substr($0, RSTART + 12, RLENGTH - 12) + 0
            seen = 1
        }
        END {
            if (!seen) { print "FAIL: no plan_cache column in the sharded bench JSON"; exit 1 }
            printf "sharded plan-cache hit rate %.3f\n", rate
            if (rate <= 0) { print "FAIL: plan-cache hit rate is zero on a hot-mask run"; exit 1 }
        }
    ' "$SMOKE_DIR/BENCH_sserve.json"
}
step "sharded serve smoke (serve --shards 2, O4A_TRACE=1 + loadgen --trace-sample, ~2s)" sharded_smoke

# TRACE smoke against the live K=2 server: the dump must be the Chrome
# trace-event shape, hold the event loops' exec_batch spans and
# shard-scatter spans from BOTH shard lanes, and the per-stage columns
# must have landed in the bench JSON. (The bit-exact trace-vs-STATS
# reconcile runs in the controlled crates/serve/tests/trace_e2e.rs; a
# mid-run live dump can only witness coverage, since requests keep
# completing after the pull.)
trace_smoke() {
    head -c 64 "$SMOKE_DIR/trace.json" | grep -q '"displayTimeUnit":"ns"' \
        || { echo "FAIL: trace.json is not chrome trace-event JSON"; exit 1; }
    grep -q '"name":"exec_batch"' "$SMOKE_DIR/trace.json" \
        || { echo "FAIL: trace.json has no exec_batch spans"; exit 1; }
    grep -q '"name":"shard_scatter","cat":"o4a","ph":"X","pid":1,"tid":0,' "$SMOKE_DIR/trace.json" \
        || { echo "FAIL: no shard_scatter span on shard lane 0"; exit 1; }
    grep -q '"name":"shard_scatter","cat":"o4a","ph":"X","pid":1,"tid":1,' "$SMOKE_DIR/trace.json" \
        || { echo "FAIL: no shard_scatter span on shard lane 1"; exit 1; }
    grep -q '"trace_shards_seen": \[0, 1\]' "$SMOKE_DIR/BENCH_sserve.json" \
        || { echo "FAIL: bench JSON did not record both shard lanes in the trace sample"; exit 1; }
    grep -q '"trace_stages"' "$SMOKE_DIR/BENCH_sserve.json" \
        || { echo "FAIL: bench JSON has no per-stage trace columns"; exit 1; }
    for shard in 0 1; do
        grep -q "^o4a_shard_routed_total{shard=\"$shard\"}" "$SMOKE_DIR/smetrics.prom" \
            || { echo "smetrics.prom is missing o4a_shard_routed_total{shard=\"$shard\"}"; exit 1; }
    done
    # A shard router reports its own mask -> decomposition memo under
    # these families (an engine's cache reports as o4a_plan_cache_*).
    for metric in o4a_decomp_cache_hits_total o4a_decomp_cache_misses_total \
        o4a_decomp_cache_entries; do
        grep -q "^$metric" "$SMOKE_DIR/smetrics.prom" \
            || { echo "smetrics.prom is missing $metric"; exit 1; }
    done
}
step "TRACE flight-recorder smoke (chrome JSON, both shards, bench columns)" trace_smoke

# METRICS smoke: the scrape from the live server must be a well-formed
# exposition containing the serving counters and query-stage histograms.
metrics_smoke() {
    for metric in o4a_serve_requests_total o4a_serve_busy_total \
        o4a_serve_protocol_errors_total o4a_query_decompose_ns_bucket \
        o4a_query_aggregate_ns_sum o4a_plan_cache_hits_total \
        o4a_plan_cache_misses_total o4a_plan_cache_evictions_total \
        o4a_plan_cache_entries o4a_compiled_terms_bucket \
        o4a_isa_active o4a_isa_feature_avx2 \
        o4a_loop0_epoll_wait_ns_bucket o4a_loop0_ready_events_count \
        o4a_exec_queue_depth o4a_serve_backpressure_total \
        o4a_exec_batch_masks_sum o4a_serve_backend_panics_total; do
        grep -q "^$metric" "$SMOKE_DIR/metrics.prom" \
            || { echo "metrics.prom is missing $metric"; exit 1; }
    done
}
step "METRICS exposition smoke" metrics_smoke

# Ensemble serve smoke: cold-start a 2-member ensemble from its O4AENS01
# artifact, drive it with the load generator, and require the ensemble
# plan gauges and the (shared) query-stage histograms in the scrape.
ensemble_serve_smoke() {
    ./target/release/serve --ensemble 2 --addr 127.0.0.1:0 \
        --addr-file "$SMOKE_DIR/eaddr" --side 16 \
        --artifacts "$SMOKE_DIR/ens-artifacts" --run-secs 6 \
        > "$SMOKE_DIR/ensemble-serve.log" 2>&1 &
    ESERVE_PID=$!
    ./target/release/loadgen --addr-file "$SMOKE_DIR/eaddr" --threads 2 \
        --secs 2 --out "$SMOKE_DIR/BENCH_eserve.json" \
        --metrics-out "$SMOKE_DIR/emetrics.prom"
    wait "$ESERVE_PID"
    test -f "$SMOKE_DIR/ens-artifacts/plan.o4aens" \
        || { echo "ensemble serve did not persist plan.o4aens"; exit 1; }
    for metric in o4a_ensemble_members o4a_ensemble_plan_cost \
        o4a_ensemble_plan_revision o4a_ensemble_plan_cells_stripe0 \
        o4a_query_decompose_ns_bucket o4a_query_aggregate_ns_sum \
        o4a_ensemble_model_terms_stripe1; do
        grep -q "^$metric" "$SMOKE_DIR/emetrics.prom" \
            || { echo "emetrics.prom is missing $metric"; exit 1; }
    done
}
step "ensemble serve smoke (serve --ensemble 2 + loadgen, ~2s)" ensemble_serve_smoke

if [ "${#FAILED[@]}" -ne 0 ]; then
    echo "==> ${#FAILED[@]} failed step(s):"
    printf '    %s\n' "${FAILED[@]}"
    exit 1
fi
echo "==> all checks passed"
