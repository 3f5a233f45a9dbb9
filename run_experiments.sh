#!/bin/sh
# Regenerates every table and figure of the paper, plus the fault-rate
# degradation sweep, the latency attribution and the windowed-telemetry
# dashboard, writing text output and JSON sidecars under the
# results directory plus a results/manifest.json record of the run
# (scale, seed, toolchain, per-bin wall time).
#
# Each bin runs through the same redirect-then-check pattern: output is
# captured to $RESULTS/<bin>.txt, and a non-zero exit aborts the whole
# script loudly (no tee pipelines, which would mask exit statuses).
#
# FRFC_SCALE=tiny|quick|paper controls measurement size (see noc-bench docs).
# FRFC_SEED sets the root seed (default 2000).
# FRFC_RESULTS_DIR redirects the output directory (default results/).
set -eu

SCALE="${FRFC_SCALE:-quick}"
SEED="${FRFC_SEED:-2000}"
RESULTS="${FRFC_RESULTS_DIR:-results}"
export FRFC_SCALE="$SCALE"
export FRFC_SEED="$SEED"
export FRFC_RESULTS_DIR="$RESULTS"
mkdir -p "$RESULTS"

# Build once up front so per-bin wall times measure simulation, not
# compilation.
cargo build --release -p noc-bench

TOOLCHAIN="$(rustc --version 2>/dev/null || echo unknown)"
GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
RUN_START="$(date +%s)"
TIMINGS=""

for bin in table1 table2 fig5 fig6 fig7 fig8 fig9 table3 occupancy \
           ablation_scheduling ablation_shared_pool ablation_transfers \
           related_work ext_bursty ext_errors ext_sync_margin \
           fault_sweep latency_breakdown telemetry_report; do
    echo "=== $bin (scale: $SCALE, seed: $SEED) ==="
    BIN_START="$(date +%s)"
    # Redirect into the .txt instead of piping through tee: a pipeline
    # would mask the bin's exit status and `set -e` would sail past a
    # failing experiment.
    if cargo run --release -q -p noc-bench --bin "$bin" \
        >"$RESULTS/$bin.txt" 2>&1; then
        cat "$RESULTS/$bin.txt"
    else
        STATUS=$?
        cat "$RESULTS/$bin.txt"
        echo "FAILED: experiment bin '$bin' exited with status $STATUS" >&2
        exit "$STATUS"
    fi
    BIN_WALL=$(( $(date +%s) - BIN_START ))
    ENTRY="{\"bin\": \"$bin\", \"wall_s\": $BIN_WALL}"
    TIMINGS="${TIMINGS:+$TIMINGS, }$ENTRY"
done

TOTAL_WALL=$(( $(date +%s) - RUN_START ))

# Telemetry sidecars the run produced (windowed metrics export, runtime
# profile, Chrome trace), recorded so the manifest names every artifact.
SIDECARS=""
for f in telemetry.metrics.json telemetry.profile.json telemetry.trace.json; do
    if [ -s "$RESULTS/$f" ]; then
        SIDECARS="${SIDECARS:+$SIDECARS, }\"$f\""
    fi
done

cat >"$RESULTS/manifest.json" <<EOF
{
  "schema_version": 1,
  "scale": "$SCALE",
  "seed": $SEED,
  "git_rev": "$GIT_REV",
  "toolchain": "$TOOLCHAIN",
  "total_wall_s": $TOTAL_WALL,
  "bins": [$TIMINGS],
  "telemetry_sidecars": [$SIDECARS]
}
EOF
echo "wrote $RESULTS/manifest.json (total ${TOTAL_WALL}s)"
