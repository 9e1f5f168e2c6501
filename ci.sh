#!/bin/sh
# Local CI gate: formatting, vet, build, and the full test suite under
# the race detector. Fails fast on the first problem, and ends every
# run — pass or fail — with a one-line-per-gate summary.
set -eu

cd "$(dirname "$0")"

tracedir=$(mktemp -d)

# Per-gate bookkeeping: gate() closes the previous gate as PASS and
# opens the next; the EXIT trap closes the last one with the run's
# status (under set -e a failed command exits through the trap, so the
# in-flight gate is the one that failed) and prints the summary table.
summary="$tracedir/summary.txt"
: > "$summary"
current_gate=""
gate_start=0
finish_gate() {
    [ -n "$current_gate" ] || return 0
    printf '%-44s %-4s %4ds\n' "$current_gate" "$1" \
        "$(( $(date +%s) - gate_start ))" >> "$summary"
    current_gate=""
}
gate() {
    finish_gate PASS
    current_gate="$1"
    gate_start=$(date +%s)
    echo "== $1 =="
}
on_exit() {
    rc=$?
    if [ "$rc" -eq 0 ]; then finish_gate PASS; else finish_gate FAIL; fi
    if [ -s "$summary" ]; then
        echo
        echo "== gate summary =="
        cat "$summary"
    fi
    rm -rf "$tracedir"
    exit "$rc"
}
trap on_exit EXIT

gate "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

gate "option surface"
# A ratchet: the number of things a user can set may fall, never rise.
# Each ceiling is today's count; lower it here when a field or flag goes.
fields() {
    sed -n "/^type $2 struct {/,/^}/p" "$1" |
        grep -cE '^	[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* +[^ ]'
}
surface() { # what, count, ceiling
    echo "$1: $2 (ceiling $3)"
    if [ "$2" -eq 0 ] || [ "$2" -gt "$3" ]; then
        echo "$1: the count left (0, $3] — an option was added, or the declaration moved" >&2
        exit 1
    fi
}
surface "core.Options fields" "$(fields internal/core/tuner.go Options)" 29
surface "core.InferenceServerOptions fields" "$(fields internal/core/inference.go InferenceServerOptions)" 22
surface "cluster.Options fields" "$(fields internal/cluster/cluster.go Options)" 13
surface "store.DurableOptions fields" "$(fields internal/store/durable.go DurableOptions)" 9
surface "edgetune.Job fields" "$(fields edgetune.go Job)" 31
surface "edgetune.ClusterOptions fields" "$(fields cluster.go ClusterOptions)" 12
# A flag is one row of cmd/edgetune's table: {"name", &field, bound, "usage"}.
surface "cmd/edgetune flags" "$(grep -cE '^	+\{"[a-z-]+", [(&]' cmd/edgetune/main.go)" 54
# A report section the pipeline already snapshots is that snapshot (a
# type alias), not a public struct copying it field for field.
surface "edgetune exported structs" \
    "$(ls *.go | grep -v '_test\.go$' | xargs cat | grep -cE '^type [A-Z][A-Za-z0-9]* struct')" 19
# The same ratchet for a fork that was closed: a hot loop is declared
# once, in internal/hotloop's table, and measured only through it — so
# nothing else outside bench/ builds a loop around prof.Measure, and
# internal/core, which used to for -profile, imports no training code.
strays=$(grep -rln --include='*.go' 'prof\.Measure(' . |
    grep -vE '_test\.go$|^\./(bench|internal/obs/prof|internal/hotloop)/' || true)
if [ -n "$strays" ]; then
    echo "prof.Measure called outside internal/hotloop — add a row to its table instead:" >&2
    echo "$strays" >&2
    exit 1
fi
strays=$(grep -l 'edgetune/internal/nn"\|edgetune/internal/tensor"' internal/core/*.go |
    grep -v '_test\.go$' || true)
if [ -n "$strays" ]; then
    echo "internal/core imports nn or tensor outside its tests:" >&2
    echo "$strays" >&2
    exit 1
fi
# And for the kernels: the training substrate — and the featuriser that
# writes what its token layer reads — is plain Go on every platform, one
# code path behind every digest, so no unsafe, no build tag and no
# assembly under it.
strays=$( (grep -lE '^//go:build|^// \+build|"unsafe"' internal/tensor/*.go internal/nn/*.go \
    internal/dataset/*.go internal/workload/*.go | grep -v '_test\.go$'; find internal -name '*.s') || true)
if [ -n "$strays" ]; then
    echo "unsafe, a build tag or assembly in the training substrate:" >&2
    echo "$strays" >&2
    exit 1
fi

gate "go vet"
go vet ./...

gate "go build"
go build ./...
# The binary users run is the binary the gates below drive; the chaos
# preset is a committed job file, seeded and pointed at stores, clusters
# and recorders by the same flags a user would give.
go build -o "$tracedir/edgetune" ./cmd/edgetune
chaos="$tracedir/edgetune -job examples/chaos/job.json"
digest_of() { sed -n 's/^  digest: *//p' "$1"; }

gate "bench module"
# bench/ is a module of its own, so the root ./... patterns above and
# below never reach it; it compiles against internal/nn, tensor, trial,
# workload and search (its probes drive a TPESampler directly), and its
# tiny smoke run checks the golden digests.
go -C bench vet ./...
go -C bench test ./...

gate "go test -race"
# internal/core alone took 545–640 s under the race detector on two
# cores before PR 24's kernels, and takes about 0.64 of that since
# (298 s against 465 s, the two commits timed in the same hour; 286 s
# inside a full sweep): 1.5–2.1× under the default 10-minute timeout,
# not yet a safe 2× on a slow minute of the machine, so the flag stays
# until ROADMAP item 4 shards the package.
go test -race -timeout 20m ./...

gate "lifecycle stress"
# The inference server's request lifecycle — one finish, one hard-stop
# context, hooks instead of goroutines (DESIGN.md §4.6) — twenty times
# under the race detector, not once: every Drain/Close/cancel/evict test
# and the request-outcome golden. Its own gate, so its elapsed time is in
# the summary and outside the sweep's 20-minute timeout.
go test -race -count=20 -run 'Drain|Close|Cancel|Evict|Outcome' ./internal/core/

gate "go test -shuffle=on"
go test -shuffle=on ./...

gate "trace determinism"
# Two independent same-seed runs must write byte-identical trace files,
# in both the JSONL and Chrome trace-event formats.
$chaos -seed 7 -trace "$tracedir/a.jsonl" -trace-chrome "$tracedir/a.json" >/dev/null
$chaos -seed 7 -trace "$tracedir/b.jsonl" -trace-chrome "$tracedir/b.json" >/dev/null
cmp "$tracedir/a.jsonl" "$tracedir/b.jsonl"
cmp "$tracedir/a.json" "$tracedir/b.json"

gate "trace analytics"
# The analyzer must be as deterministic as the traces it reads: same
# trace, byte-identical analysis; and a span-class diff of the two
# same-seed traces must pass the regression gate cleanly.
go run ./cmd/tracetool analyze "$tracedir/a.jsonl" > "$tracedir/a.analysis"
go run ./cmd/tracetool analyze "$tracedir/b.jsonl" > "$tracedir/b.analysis"
cmp "$tracedir/a.analysis" "$tracedir/b.analysis"
grep -q "critical paths" "$tracedir/a.analysis"
go run ./cmd/tracetool diff "$tracedir/a.jsonl" "$tracedir/b.jsonl" >/dev/null

gate "parallel determinism"
# GOMAXPROCS decides how many helpers train a rung's registered trials
# side by side (DESIGN.md §4.17) and nothing else: a seeded job's report
# and trace are byte-identical on one core — no helper, the sequential
# loop — and on four; on NLP too, whose helpers each featurise their own
# trial's data side by side. Then the package that owns the helper budget
# and the scratch free list, twice under the race detector.
for wl in IC NLP; do
    GOMAXPROCS=1 "$tracedir/edgetune" -workload "$wl" -seed 42 -trace "$tracedir/p1-$wl.jsonl" > "$tracedir/p1-$wl.out"
    GOMAXPROCS=4 "$tracedir/edgetune" -workload "$wl" -seed 42 -trace "$tracedir/p4-$wl.jsonl" > "$tracedir/p4-$wl.out"
    cmp "$tracedir/p1-$wl.out" "$tracedir/p4-$wl.out"
    cmp "$tracedir/p1-$wl.jsonl" "$tracedir/p4-$wl.jsonl"
done
go test -race -count=2 ./internal/trial/

gate "tracing no-op overhead"
# Smoke-run the disabled-tracing benchmark so a regression that breaks
# the nil-safe fast path is caught even without a full bench sweep.
go test -run '^$' -bench BenchmarkTracingDisabled -benchtime=1x ./internal/obs

gate "store durability under faulty disks"
# The durability layer's own tests plus the disk-fault injection tests,
# twice under the race detector so any run-order or leftover-state bug
# in WAL replay and quarantine handling surfaces. Then ten seconds of
# fuzzing the WAL decoder, which reads whatever a crash left on disk
# (its seed corpus already ran above, as an ordinary test).
go test -race -count=2 ./internal/store ./internal/fault
go test -run '^$' -fuzz FuzzScanWAL -fuzztime 10s ./internal/store

gate "crash-recovery gate"
# Kill the tuner (exit 3) right after an acknowledged WAL append,
# restart it from the on-disk store, and repeat until a run survives.
# The surviving run's outcome digest must match an uninterrupted
# same-seed run, and the recovered store must scrub clean.
$chaos -seed 42 > "$tracedir/chaos-clean.out"
clean_digest=$(digest_of "$tracedir/chaos-clean.out")
[ -n "$clean_digest" ]
restarts=0
while :; do
    rc=0
    $chaos -seed 42 -store "$tracedir/crash.json" -store-kill-after 3 \
        > "$tracedir/chaos-crash.out" 2>&1 || rc=$?
    [ "$rc" -eq 0 ] && break
    if [ "$rc" -ne 3 ]; then
        echo "crash harness died with unexpected status $rc:" >&2
        cat "$tracedir/chaos-crash.out" >&2
        exit 1
    fi
    restarts=$((restarts + 1))
    if [ "$restarts" -gt 100 ]; then
        echo "crash harness never converged after $restarts restarts" >&2
        exit 1
    fi
done
if [ "$restarts" -eq 0 ]; then
    echo "the kill switch never fired — the harness proved nothing" >&2
    exit 1
fi
crash_digest=$(digest_of "$tracedir/chaos-crash.out")
if [ "$clean_digest" != "$crash_digest" ]; then
    echo "crash/restart diverged: '$crash_digest' != uninterrupted '$clean_digest'" >&2
    exit 1
fi
echo "converged after $restarts kill/restart cycles: $crash_digest"
go run ./cmd/tracetool store verify "$tracedir/crash.json"

gate "hot-loop allocation gate"
# Every hot loop's allocs/op and bytes/op are declared beside its name,
# in internal/hotloop's stage table; TestStageAllocations fails when a
# measurement leaves its row in either direction. Five runs, so a
# figure that holds only some of the time fails here too.
go test -count=5 -run TestStageAllocations ./internal/hotloop

gate "cluster-failover gate"
# The sharded cluster's own tests, twice under the race detector, then
# the end-to-end chaos proof: kill a shard mid-bracket, fail over to
# its WAL-shipped follower, and require the exact outcome digest of the
# unsharded uninterrupted run above. Every shard replica's store —
# including the abandoned primary — must scrub clean afterwards.
go test -race -count=2 ./internal/cluster
cdir="$tracedir/cluster"
$chaos -seed 42 -cluster 2 -cluster-dir "$cdir" -cluster-kill-rungs 2 \
    > "$tracedir/chaos-cluster.out"
grep -q "failed over  *true" "$tracedir/chaos-cluster.out" || {
    echo "cluster gate never failed over:" >&2
    cat "$tracedir/chaos-cluster.out" >&2
    exit 1
}
cluster_digest=$(digest_of "$tracedir/chaos-cluster.out")
if [ "$clean_digest" != "$cluster_digest" ]; then
    echo "failed-over cluster run diverged: '$cluster_digest' != unsharded '$clean_digest'" >&2
    exit 1
fi
echo "failed-over cluster run converged: $cluster_digest"
# Glob on the replica directories, not the snapshot files: the
# abandoned primary has only a WAL (no snapshot), and a file glob
# would silently skip exactly the dir the failover left behind.
for rdir in "$cdir"/shard*/primary "$cdir"/shard*/follower; do
    storefile="$rdir/store.json"
    [ -e "$storefile" ] || [ -e "$storefile.wal" ] || continue
    go run ./cmd/tracetool store verify "$storefile"
done

gate "autoscale-resilience gate"
# The autoscaling controller's own tests and the serving-layer chaos
# tests (flash-crowd determinism, mass-device-failure recovery through
# the degradation ladder, stalled scale-ups), twice under the race
# detector. Then the overload example twice: same seed must produce
# byte-identical standard output (the burst's scheduler-dependent split
# goes to standard error), the ladder must both engage and release, and
# the decision digest line must be present.
go test -race -count=2 ./internal/autoscale
go test -race -count=2 -run Autoscale ./internal/core
go build -o "$tracedir/overload" ./examples/overload
"$tracedir/overload" > "$tracedir/overload-a.out"
"$tracedir/overload" > "$tracedir/overload-b.out"
cmp "$tracedir/overload-a.out" "$tracedir/overload-b.out"
grep -q "ladder engaged" "$tracedir/overload-a.out"
grep -q "ladder released" "$tracedir/overload-a.out"
grep -q "autoscale digest: " "$tracedir/overload-a.out"

gate "profile-plane gate"
# The profiling plane end to end. First the registry/probe layers under
# concurrent writers and overlapping Measure calls, twice under the race
# detector (the loops themselves are internal/hotloop's table; their
# allocs/op are gated above, in the hot-loop allocation gate). Then a
# labeled chaos run: capture a CPU profile across a profiled cluster
# run and require that the pprof label taxonomy
# (tenant/shard/rung/bracket) actually landed in it. The one job is long
# enough for every label to be sampled (4/4 in 5 of 5 runs when sized);
# should a faster machine make that thin, profile a larger job here —
# never a padding loop in the binary.
go test -race -count=2 \
    -run 'TestRegistryConcurrentWriters|TestWritePrometheus|TestProf|TestMeasure|TestDo' \
    ./internal/obs ./internal/obs/prof
pdir="$tracedir/profplane"
$chaos -seed 42 -cluster 2 -cluster-dir "$pdir" -profile \
    -cpuprofile "$tracedir/chaos-cpu.pprof" > "$tracedir/chaos-profile.out"
grep -q "profile (allocs/op, bytes/op):" "$tracedir/chaos-profile.out"
grep -q "nn.minibatch-step" "$tracedir/chaos-profile.out"
go run ./cmd/tracetool profile check -want tenant,shard,rung,bracket \
    "$tracedir/chaos-cpu.pprof"
# The profiled run must still be the same run: label propagation and
# alloc probes ride alongside the pipeline, never inside the digest.
profile_digest=$(digest_of "$tracedir/chaos-profile.out")
if [ "$clean_digest" != "$profile_digest" ]; then
    echo "profiled run diverged: '$profile_digest' != unprofiled '$clean_digest'" >&2
    exit 1
fi
# Label-free fast path: the disabled-profiling benchmark must keep
# running (a regression here would tax every unprofiled hot loop).
go test -run '^$' -bench BenchmarkProfDisabled -benchtime=1x ./internal/obs/prof

gate "flight-recorder gate"
# The always-on flight recorder end to end. The recorder's own tests
# twice under the race detector; then two same-seed failed-over cluster
# chaos runs with recording on (-profile stays off: alloc gauges are
# the one nondeterministic report section) — stdout and every incident
# dossier artefact must be byte-identical, the failover dossier must
# digest-verify and hold the kill/promotion events inside its window,
# and `incident diff` must agree. (The Record hot path is held at zero
# allocations per event by the hot-loop allocation gate.)
go test -race -count=2 ./internal/obs/flight
fdir="$tracedir/flight"
$chaos -seed 42 -cluster 2 -cluster-dir "$fdir/c1" -cluster-kill-rungs 2 \
    -flight -incidents-dir "$fdir/inc1" > "$tracedir/chaos-flight-a.out"
$chaos -seed 42 -cluster 2 -cluster-dir "$fdir/c2" -cluster-kill-rungs 2 \
    -flight -incidents-dir "$fdir/inc2" > "$tracedir/chaos-flight-b.out"
cmp "$tracedir/chaos-flight-a.out" "$tracedir/chaos-flight-b.out"
grep -q "failed over  *true" "$tracedir/chaos-flight-a.out"
grep -q "shard[0-9]* #[0-9]* shard-failover" "$tracedir/chaos-flight-a.out" || {
    echo "flight run reported no shard-failover incident:" >&2
    cat "$tracedir/chaos-flight-a.out" >&2
    exit 1
}
# The recorded run must still be the same run: recording is observation
# only, never inside the digest.
flight_digest=$(digest_of "$tracedir/chaos-flight-a.out")
if [ "$clean_digest" != "$flight_digest" ]; then
    echo "flight-recorded run diverged: '$flight_digest' != plain '$clean_digest'" >&2
    exit 1
fi
ls "$fdir"/inc1/*.json >/dev/null || {
    echo "flight run wrote no incident dossiers" >&2
    exit 1
}
for dossier in "$fdir"/inc1/*.json; do
    cmp "$dossier" "$fdir/inc2/$(basename "$dossier")"
done
fdos=$(ls "$fdir"/inc1/*shard-failover.json | head -n 1)
go run ./cmd/tracetool incident show -events "$fdos" > "$tracedir/failover-incident.out"
grep -q "(verified)" "$tracedir/failover-incident.out"
grep -q "failover.*kill" "$tracedir/failover-incident.out"
grep -q "failover.*promoted" "$tracedir/failover-incident.out"
go run ./cmd/tracetool incident diff "$fdos" \
    "$fdir/inc2/$(basename "$fdos")" >/dev/null

gate "chaos-fuzz gate"
# The seeded failure-space fuzzer end to end. Its own tests twice under
# the race detector; then replay the full committed corpus (every entry
# must still hold every invariant), prove replay determinism
# (byte-identical double replay), prove the gate has teeth with the
# built-in planted accounting bug (exploration must catch it, shrink it
# to one event, and its repro must replay to the same failure), and
# finally a fresh seeded exploration budget in both
# modes that must find nothing new. The search package rides along: its
# property test holds the incremental TPE model to the proposal stream
# every recorded digest was produced with, so it is race-doubled like
# the other determinism proofs.
go test -race -count=2 ./internal/chaosfuzz
go test -race -count=2 ./internal/search/
go build -o "$tracedir/tracetool" ./cmd/tracetool
for repro in fuzz/corpus/*.json; do
    "$tracedir/tracetool" fuzz replay "$repro" > "$tracedir/fuzz-replay.out" || {
        echo "corpus entry $repro no longer holds every invariant:" >&2
        cat "$tracedir/fuzz-replay.out" >&2
        exit 1
    }
done
entry=$(ls fuzz/corpus/*.json | head -n 1)
"$tracedir/tracetool" fuzz replay "$entry" > "$tracedir/fuzz-a.out"
"$tracedir/tracetool" fuzz replay "$entry" > "$tracedir/fuzz-b.out"
cmp "$tracedir/fuzz-a.out" "$tracedir/fuzz-b.out"
rc=0
"$tracedir/tracetool" fuzz run -mode single -seed 7 -n 6 -plant-double-charge \
    -out "$tracedir/fuzz-findings" > "$tracedir/fuzz-planted.out" 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "planted double charge was not caught (exit $rc):" >&2
    cat "$tracedir/fuzz-planted.out" >&2
    exit 1
fi
grep -q "budget-conservation" "$tracedir/fuzz-planted.out"
grep -q "shrunk to 1 event" "$tracedir/fuzz-planted.out"
rc=0
"$tracedir/tracetool" fuzz replay -plant-double-charge \
    "$tracedir/fuzz-findings/repro-01.json" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "emitted repro did not replay the planted failure (exit $rc)" >&2
    exit 1
fi
"$tracedir/tracetool" fuzz run -mode single -seed 20260808 -n 24 \
    > "$tracedir/fuzz-explore-single.out"
"$tracedir/tracetool" fuzz run -mode cluster -seed 20260808 -n 12 \
    > "$tracedir/fuzz-explore-cluster.out"
grep -q "no invariant violations" "$tracedir/fuzz-explore-single.out"
grep -q "no invariant violations" "$tracedir/fuzz-explore-cluster.out"

echo "ci: all checks passed"
