#!/usr/bin/env bash
# Tier-1 verification, fully offline: build, test, and compile benches
# with no registry access. The workspace is hermetic (path-only
# dependencies; see tests/hermetic_deps.rs), so --offline must succeed
# from a clean checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline (tier-1: root package)"
cargo test -q --offline

echo "== NEPHELE_AUDIT=every-op cargo test -q --offline (tier-1 under the state invariant auditor)"
NEPHELE_AUDIT=every-op cargo test -q --offline

echo "== cargo test -q --workspace --offline (all member crates)"
cargo test -q --workspace --offline

echo "== cargo test -q --offline --test trace_spans (observability layer)"
cargo test -q --offline --test trace_spans

echo "== cargo test -q -p hypervisor --offline --test prop_clone_batch (batched clone equivalence + atomicity)"
cargo test -q -p hypervisor --offline --test prop_clone_batch

echo "== cargo test -q --offline --test prop_trace_modes (trace modes differ only in retention)"
cargo test -q --offline --test prop_trace_modes

echo "== cargo test -q -p faas --offline scale (10^4-domain bounded-memory observability)"
cargo test -q -p faas --offline scale

echo "== cargo test -q -p faas --offline traffic (seeded traffic replay + request-cloning policies)"
cargo test -q -p faas --offline traffic

echo "== cargo bench --no-run --offline"
cargo bench --no-run --offline

echo "== cargo bench -p bench --bench clone_fanout --offline (batched vs sequential fan-out)"
cargo bench -p bench --bench clone_fanout --offline

echo "== cargo bench -p bench --bench clone_reset --offline (O(dirty) checkpoint restore)"
cargo bench -p bench --bench clone_reset --offline

echo "== cargo bench -p bench --bench trace_overhead --offline (sink self-overhead per TraceMode)"
cargo bench -p bench --bench trace_overhead --offline

echo "== cargo bench -p bench --bench clone_density --offline (per-clone cost vs live-domain count)"
cargo bench -p bench --bench clone_density --offline

echo "== clone density gate (10^4-domain clone+destroy median <= 2x the 10^2-domain median)"
# The index work's contract: per-clone and per-destroy host cost must
# not scale with the number of concurrently live domains. Before the
# name index, the referrer index and the range-keyed device maps, the
# 10^4 median sat at ~3.5x the 10^2 one.
density_median() {
    sed -n 's/.*"group": "density_'"$1"'", "name": "clone_destroy_batch16".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_clone_density.json
}
awk -v d100="$(density_median 100)" -v d10k="$(density_median 10000)" 'BEGIN {
    if (d100 + 0 <= 0 || d10k + 0 <= 0) {
        print "verify.sh: missing clone_density medians (d100=" d100 ", d10k=" d10k ")"
        exit 1
    }
    ratio = d10k / d100
    printf "   clone+destroy batch16 median: %.0f ns at 100 domains vs %.0f ns at 10000 (%.2fx)\n", d100, d10k, ratio
    if (ratio > 2.0) {
        print "verify.sh: per-clone cost grows " ratio "x from 10^2 to 10^4 live domains (gate: 2x)"
        exit 1
    }
}'

echo "== clone density gate (10^5-member family clone+destroy median <= 2x the 10^2-domain median)"
# Stage 2 and destroy must cost time proportional to the clone's own
# state, not to its family's size or the store's: each child's Xenstore
# home is resolved once, and a destroyed child is unlinked from its
# parent by birth key. When destroy filtered the family's child list and
# every stage-2 request descended from the Xenstore root, the 10^5
# median sat at 2.9x the 10^2 one (856 vs 300 us).
awk -v d100="$(density_median 100)" -v d100k="$(density_median 100000)" 'BEGIN {
    if (d100 + 0 <= 0 || d100k + 0 <= 0) {
        print "verify.sh: missing clone_density medians (d100=" d100 ", d100k=" d100k ")"
        exit 1
    }
    ratio = d100k / d100
    printf "   clone+destroy batch16 median: %.0f ns at 100 domains vs %.0f ns in a 100000-member family (%.2fx)\n", d100, d100k, ratio
    if (ratio > 2.0) {
        print "verify.sh: per-clone cost grows " ratio "x from 10^2 domains to a 10^5-member family (gate: 2x)"
        exit 1
    }
}'

echo "== cargo bench -p bench --bench net_density --offline (request round trip vs family size)"
cargo bench -p bench --bench net_density --offline

echo "== net density gate (10^3-member round-trip median <= 3x the 10^2-member median)"
# The event-driven pump's contract: a host request's round trip touches
# only the vifs with queued packets and resolves its destination through
# the IP index, so its host cost must not scale with the number of live
# vifs. When every pump round walked every vif, the 10^3 median sat at
# ~14x the 10^2 one.
net_median() {
    sed -n 's/.*"group": "family_'"$1"'", "name": "udp_round_trip".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_net_density.json
}
awk -v f100="$(net_median 100)" -v f1k="$(net_median 1000)" 'BEGIN {
    if (f100 + 0 <= 0 || f1k + 0 <= 0) {
        print "verify.sh: missing net_density medians (f100=" f100 ", f1k=" f1k ")"
        exit 1
    }
    ratio = f1k / f100
    printf "   udp round-trip median: %.0f ns at 100 members vs %.0f ns at 1000 (%.2fx)\n", f100, f1k, ratio
    if (ratio > 3.0) {
        print "verify.sh: request round trip grows " ratio "x from 10^2 to 10^3 family members (gate: 3x)"
        exit 1
    }
}'

echo "== cargo bench -p bench --bench clone_single --offline (one Dom0 clone of a 2 000-member family)"
cargo bench -p bench --bench clone_single --offline

echo "== clone_single speedup gate (1-vif first stage >= 1.6x faster than the seeded baseline)"
# The lean first stage's contract: one clone of a 1-vif parent costs one
# cheap pass over the parent's slots plus O(private pages) of plain
# work. The baseline was measured before the merged p2m walk, the
# bulk-built child overlay, the family-shared private tables and the
# compact start_info. Over 12 alternating runs each on a 2-vCPU shared
# host, the old code's median ranged 36.3-66.5 us and the new code's
# 14.5-24.8 us, so against the committed 52.1 us baseline every old
# run reads below 1.44x and every new run above 2.10x.
single_median() {
    sed -n 's/.*"group": "vifs_1", "name": "stage1".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' "$1"
}
awk -v base="$(single_median scripts/bench_baselines/BENCH_clone_single.json)" \
    -v cur="$(single_median results/BENCH_clone_single.json)" 'BEGIN {
    if (base + 0 <= 0 || cur + 0 <= 0) {
        print "verify.sh: missing clone_single medians (base=" base ", cur=" cur ")"
        exit 1
    }
    ratio = base / cur
    printf "   1-vif first-stage median %.0f ns vs baseline %.0f ns (%.2fx)\n", cur, base, ratio
    if (ratio < 1.6) {
        print "verify.sh: clone_single first-stage speedup " ratio "x is below the 1.6x gate"
        exit 1
    }
}'

echo "== trace overhead budget gate (Aggregate vs Off / Full)"
# Every enabled sink folds each observation the same way; Aggregate only
# drops the raw records. This gate holds that one path to its host-cost
# budget: an Aggregate-mode instrumentation tick must cost at most 30x a
# disabled sink's (the mixed batch is ~1k ops) and at most 2x Full
# mode's, which adds retention on top.
trace_median() {
    sed -n 's/.*"group": "trace_overhead", "name": "'"$1"'".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_trace_overhead.json
}
awk -v off="$(trace_median mixed_off)" \
    -v full="$(trace_median mixed_full)" \
    -v agg="$(trace_median mixed_agg)" 'BEGIN {
    if (off + 0 <= 0 || full + 0 <= 0 || agg + 0 <= 0) {
        print "verify.sh: missing trace_overhead medians (off=" off ", full=" full ", agg=" agg ")"
        exit 1
    }
    printf "   mixed tick medians: off %.0f ns, full %.0f ns, aggregate %.0f ns (agg/off %.1fx, agg/full %.2fx)\n", \
        off, full, agg, agg / off, agg / full
    if (agg > 30.0 * off) {
        print "verify.sh: Aggregate tick exceeds the 30x budget over a disabled sink"
        exit 1
    }
    if (agg > 2.0 * full) {
        print "verify.sh: Aggregate tick exceeds 2x the Full-mode cost"
        exit 1
    }
}'

echo "== clone_reset speedup gate (>= 5x vs the seeded pre-overlay baseline)"
# The general bench gate only catches regressions; this one asserts the
# tentpole win itself: restoring 16 dirty pages in a 4096-page clone
# must beat the stamped-p2m baseline (which walked all of them) by 5x.
reset_median() {
    sed -n 's/.*"group": "clone_reset", "name": "dirty16_reset_4k".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' "$1"
}
awk -v base="$(reset_median scripts/bench_baselines/BENCH_clone_reset.json)" \
    -v cur="$(reset_median results/BENCH_clone_reset.json)" 'BEGIN {
    if (base + 0 <= 0 || cur + 0 <= 0) {
        print "verify.sh: missing clone_reset medians (base=" base ", cur=" cur ")"
        exit 1
    }
    ratio = base / cur
    printf "   clone_reset median %.0f ns vs baseline %.0f ns (%.1fx)\n", cur, base, ratio
    if (ratio < 5.0) {
        print "verify.sh: clone_reset speedup " ratio "x is below the 5x gate"
        exit 1
    }
}'

echo "== cargo bench -p bench --bench xenstore_ops --offline (Xenstore requests and xs_clone)"
# Run before the gate so that BENCH_xenstore_ops.json holds fresh
# medians rather than the committed copy the gate would compare with its
# own baseline.
cargo bench -p bench --bench xenstore_ops --offline

echo "== cargo bench -p bench --bench audit --offline (one full state audit vs what the state holds)"
cargo bench -p bench --bench audit --offline

echo "== audit gate (64 MiB-template family median <= 2x the 4 MiB-template median)"
# The auditor's contract: an audit costs what the state holds, not what
# the p2ms map. Back-references are gathered with one walk per p2m
# template, so a 10^4-member family of a 64 MiB template (16x the slots)
# must audit about as fast as one of a 4 MiB template. When every
# domain's merged p2m was walked into a hash map, the 64 MiB median sat
# at 19-29x the 4 MiB one (10.0-11.5 s vs 0.36-0.60 s) over four runs.
audit_median() {
    sed -n 's/.*"group": "'"$1"'", "name": "audit".*"median_ns": \([0-9.eE+-]*\),.*/\1/p' \
        results/BENCH_audit.json
}
awk -v t4="$(audit_median template_4mib)" -v t64="$(audit_median template_64mib)" 'BEGIN {
    if (t4 + 0 <= 0 || t64 + 0 <= 0) {
        print "verify.sh: missing audit medians (t4=" t4 ", t64=" t64 ")"
        exit 1
    }
    ratio = t64 / t4
    printf "   audit median: %.0f ns for a 4 MiB template vs %.0f ns for a 64 MiB one (%.2fx)\n", t4, t64, ratio
    if (ratio > 2.0) {
        print "verify.sh: audit time grows " ratio "x from a 4 MiB to a 64 MiB template (gate: 2x)"
        exit 1
    }
}'

echo "== cargo build -p bench --release --offline --bins (so the timed runs below exclude compile time)"
cargo build -q -p bench --release --offline --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"

# Host wall time of every end-to-end run below, one record per run in the
# testkit bench shape (one record per line), written to
# results/BENCH_e2e_figures.json so that scripts/bench_gate.sh covers it.
e2e_records=()
e2e_record() {
    local name="$1" ns=$(( $(date +%s%N) - $2 ))
    e2e_records+=("    {\"group\": \"e2e\", \"name\": \"$name\", \"samples\": 1, \"batch\": 1, \"median_ns\": $ns, \"p90_ns\": $ns, \"p99_ns\": $ns, \"mean_ns\": $ns, \"min_ns\": $ns, \"max_ns\": $ns}")
    printf '   %s took %.2f s\n' "$name" "$(awk -v ns="$ns" 'BEGIN { print ns / 1e9 }')"
}

echo "== figure determinism gate (every committed figure CSV must be byte-identical)"
# Neither the COW Xenstore, the p2m overlay rework, nor the per-class
# device dispatch may perturb any virtual-time figure: re-run every
# figure and the ablation with the committed seeds and diff stdout
# against the checked-in CSVs. fig4/fig7/fig8 embed span aggregates, so they
# reproduce only with tracing enabled; the rest run without it.
detgate() {
    local fig="$1" trace="$2" out started
    out="$(mktemp)"
    started="$(date +%s%N)"
    if [[ "$trace" == trace ]]; then
        NEPHELE_TRACE=1 "$bin_dir/$fig" > "$out"
    else
        "$bin_dir/$fig" > "$out"
    fi
    e2e_record "$fig" "$started"
    if ! diff -q "results/$fig.csv" "$out" >/dev/null; then
        echo "verify.sh: $fig.csv drifted from the committed results:"
        diff "results/$fig.csv" "$out" | head -20
        rm -f "$out"
        exit 1
    fi
    rm -f "$out"
    echo "   $fig.csv reproduced byte-identical"
    # Traced runs also regenerate the streaming exports in place
    # (timeline slices, family rollups, Prometheus exposition); any
    # drift from the committed copies fails the gate.
    if [[ "$trace" == trace ]]; then
        local f
        for f in "results/${fig}_timeline.csv" "results/${fig}_families.csv" "results/${fig}_metrics.prom"; do
            if ! git ls-files --error-unmatch "$f" >/dev/null 2>&1; then
                echo "verify.sh: $f is not committed (streaming exports must be tracked)"
                exit 1
            fi
            if ! git diff --quiet -- "$f"; then
                echo "verify.sh: $f drifted from the committed streaming export:"
                git diff -- "$f" | head -20
                exit 1
            fi
        done
        echo "   $fig streaming exports reproduced byte-identical"
    fi
}
detgate fig4 trace
detgate fig5 notrace
detgate fig6 notrace
detgate fig7 trace
detgate fig8 trace
detgate fig9 notrace
detgate fig10 notrace
detgate fig10scale notrace
detgate fig11 notrace
detgate ablation notrace

echo "== scale100k (10^5 concurrently live clones, churn, and policy replay must complete)"
# The acceptance run for the density work: ramping to 100 000 live
# vif-less clones, churning 1 562 of them through destroy, and replaying
# 20 000 requests per policy. Any O(live domains) cost left on the
# create/clone/destroy path makes this run crawl; the binary asserts
# the scenario's invariants itself, a clean audit of the final
# 10^5-domain state among them.
started="$(date +%s%N)"
"$bin_dir/scale100k"
e2e_record scale100k "$started"

{
    printf '{\n  "bench": "e2e_figures",\n  "results": [\n'
    for i in "${!e2e_records[@]}"; do
        if (( i > 0 )); then
            printf ',\n'
        fi
        printf '%s' "${e2e_records[$i]}"
    done
    printf '\n  ]\n}\n'
} > results/BENCH_e2e_figures.json

echo "== scripts/bench_gate.sh (medians vs checked-in baselines)"
scripts/bench_gate.sh

echo "== scripts/bench_gate.sh scripts/fixtures/regressed (doctored fixture must fail the gate as REGRESSED)"
# The fixture is every baseline suite with each median multiplied by
# 1000, so the gate must reject it through its REGRESSED branch alone: a
# MISSING or NEW line would fail it whatever that branch does. When a
# baseline changes, rebuild the fixture from it:
#   awk '{ if (match($0, /"median_ns": [0-9.eE+-]+/)) { v = substr($0, RSTART + 13, RLENGTH - 13);
#          $0 = substr($0, 1, RSTART + 12) sprintf("%.3f", v * 1000) substr($0, RSTART + RLENGTH) } print }' \
#       scripts/bench_baselines/BENCH_x.json > scripts/fixtures/regressed/BENCH_x.json
if fixture_report="$(scripts/bench_gate.sh scripts/fixtures/regressed 2>&1)"; then
    echo "verify.sh: bench gate accepted the doctored regression fixture"
    exit 1
fi
if ! grep -q ': REGRESSED ' <<<"$fixture_report" \
    || grep -Eq ': (MISSING|NEW) |no parseable records' <<<"$fixture_report"; then
    echo "verify.sh: the doctored fixture must fail the gate only through REGRESSED lines:"
    grep -v ': REGRESSED ' <<<"$fixture_report" | head -20
    exit 1
fi
echo "   $(grep -c ': REGRESSED ' <<<"$fixture_report") doctored medians flagged REGRESSED"

echo "== hostbench virtual-time digests (seed 1 must match scripts/hostbench_digests.txt)"
# Host-time work must not move virtual time. Each hostbench workload
# prints a digest of its simulated outcomes; a short seed-1 run of each
# must reproduce the pinned value.
cargo build -q --release --offline --manifest-path hostbench/Cargo.toml
while read -r workload pinned; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    if ! out="$(cargo run -q --release --offline --manifest-path hostbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 2>&1 </dev/null)"; then
        echo "verify.sh: hostbench $workload failed:"
        echo "$out" | tail -5
        exit 1
    fi
    got="$(echo "$out" | sed -n 's/.* digest \(0x[0-9a-f]*\).*/\1/p' | head -1)"
    if [[ "$got" != "$pinned" ]]; then
        echo "verify.sh: hostbench $workload digest ${got:-missing} != pinned $pinned"
        exit 1
    fi
    echo "   $workload digest $got"
done < scripts/hostbench_digests.txt

echo "== cargo test -q --offline --manifest-path hostbench/Cargo.toml (hostbench unit tests)"
# hostbench compiles against the platform's public API (the config
# builder among it) from its own package, which the workspace steps
# above never build or test.
cargo test -q --offline --manifest-path hostbench/Cargo.toml

echo "== cargo doc --no-deps --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --quiet

echo "verify.sh: all green"
