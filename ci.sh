#!/usr/bin/env bash
# Tier-1 CI for the repo: static checks (gofmt, vet, the custom
# srccheck source lint), the full test suite under the race detector,
# the model-lint gate over all three shipped profiles, the smoke runs,
# and the benchmark baselines.
#
#   ./ci.sh          # static checks + race tests + model-lint gate + smokes + refresh BENCH_*.json
#   ./ci.sh quick    # static checks + plain tests (no race, no gate, no smoke, no bench)
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: files need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== srccheck (custom source lint) =="
go run ./cmd/srccheck .

if [[ "${1:-}" == "quick" ]]; then
    echo "== go test =="
    go test -count=1 -shuffle=on ./...
    exit 0
fi

echo "== go test -race =="
go test -race -count=1 -shuffle=on ./...

echo "== explorer fuzz (bounded) =="
# Generated systems against the sequential oracle in every exploration
# mode, beyond the seed corpus the test runs above already covered.
go test -run '^$' -fuzz '^FuzzExploreMatchesSequential$' -fuzztime 20s ./internal/mc

echo "== model-lint gate =="
# Every shipped profile must lint clean at ERROR severity on a benign
# extraction; the CLI exits 6 (model-lint) otherwise.
lint_dir=$(mktemp -d)
trap 'rm -rf "$lint_dir"' EXIT
go build -o "$lint_dir/prochecker" ./cmd/prochecker
lint_start_ms=$(($(date +%s%N) / 1000000))
for impl in conformant srsLTE OAI; do
    "$lint_dir/prochecker" -impl "$impl" -lint -quiet > "$lint_dir/$impl.lint" \
        || { echo "model-lint gate: $impl failed"; cat "$lint_dir/$impl.lint"; exit 1; }
done
lint_end_ms=$(($(date +%s%N) / 1000000))
grep -q "no diagnostics\|info(s)" "$lint_dir/conformant.lint" \
    || { echo "model-lint gate: conformant report malformed"; exit 1; }
echo "model-lint gate OK (3 profiles clean at error severity, $((lint_end_ms - lint_start_ms)) ms)"

echo "== dataflow lint gate =="
# The PC1xx dataflow family must discriminate the shipped profiles: the
# conformant extraction carries no plaintext-identity exposure, while
# srsLTE and OAI each reproduce at least one known leak (cleartext SQN
# in the srsLTE auth_request, GUTI/IMSI on plaintext channels in OAI).
if grep -q "PC101" "$lint_dir/conformant.lint"; then
    echo "dataflow gate: conformant reported a PC101 plaintext-identity exposure"
    cat "$lint_dir/conformant.lint"; exit 1
fi
for impl in srsLTE OAI; do
    grep -q "PC101" "$lint_dir/$impl.lint" \
        || { echo "dataflow gate: $impl reported no PC101 plaintext-identity exposure"; cat "$lint_dir/$impl.lint"; exit 1; }
done
# The dataflow passes run to a fixpoint over maps — a second lint of the
# same model must render byte-identical diagnostics.
for impl in conformant srsLTE OAI; do
    "$lint_dir/prochecker" -impl "$impl" -lint -quiet > "$lint_dir/$impl.lint2" \
        || { echo "dataflow gate: $impl relint failed"; cat "$lint_dir/$impl.lint2"; exit 1; }
    diff -u "$lint_dir/$impl.lint" "$lint_dir/$impl.lint2" > /dev/null \
        || { echo "dataflow gate: $impl lint output is nondeterministic"; diff -u "$lint_dir/$impl.lint" "$lint_dir/$impl.lint2"; exit 1; }
done
echo "dataflow lint gate OK (conformant PC101-clean, srsLTE/OAI exposures reproduced deterministically)"

echo "== CEGAR exploration counts =="
# Pin each profile's -check all exploration, iteration and refinement
# counts: clones that apply the same refinements share one graph, so a
# lost reuse shows up here as extra explorations instead of only as a
# slower run. Every exploration must also use the dense rank table: a
# refinement that pushes a graph's domain product past the dense bound
# shows up as a non-zero mc.explorations_hashed. The product nodes the
# response checks' lazy searches discovered (mc.response_search_nodes)
# pin how little of each pending-bit product they touch. A response
# check's StatesExplored is exactly the nodes its search discovered, so
# their sum (mc.response_nodes) must equal mc.response_search_nodes: a
# check that walks the whole product only to count it shows up as a gap
# between the two. Every
# refined graph must derive from a cached base graph
# (mc.explorations_derived), so a refinement that silently falls back
# to full exploration fails here. The edge-segment
# bytes allocated over all builds (mc.edge_bytes) pin the write-once
# edge storage: a build that over-reserves or pads more shows up here.
# Graphs are built only as deep as their checks need: the states built
# (mc.states_explored) and the graphs never completed (mc.graphs_partial)
# pin that early exit, so a check that forces a graph deeper than it
# needs shows up here. A response check on a partial derived graph walks
# its derivation instead of completing the graph
# (mc.responses_derived), so a check that completes a refined graph it
# only needs to search shows up here too.
for want in "srsLTE 7 45 20 345285 345285 6 11010048 321743 6 7" "conformant 6 25 5 305504 305504 5 9961472 299618 5 3" "OAI 8 34 7 309189 309189 7 19398656 595757 6 3"; do
    read -r impl explorations iterations refinements response_nodes search_nodes derived edge_bytes states partial walked <<<"$want"
    "$lint_dir/prochecker" -impl "$impl" -check all -quiet -manifest "$lint_dir/$impl-checkall.json" > /dev/null \
        || { echo "exploration counts: $impl -check all failed"; exit 1; }
    got=""
    for metric in mc.explorations cegar.iterations cegar.refinements mc.explorations_hashed mc.response_nodes mc.response_search_nodes mc.explorations_derived mc.edge_bytes mc.states_explored mc.graphs_partial mc.responses_derived; do
        got="$got $(sed -n "s/.*\"$metric\": *\([0-9]*\).*/\1/p" "$lint_dir/$impl-checkall.json" | head -1)"
    done
    [[ "$got" == " $explorations $iterations $refinements 0 $response_nodes $search_nodes $derived $edge_bytes $states $partial $walked" ]] \
        || { echo "exploration counts: $impl explorations/iterations/refinements/hashed/response nodes/search nodes/derived/edge bytes/states/partial graphs/derivation-walked responses =$got, want $explorations $iterations $refinements 0 $response_nodes $search_nodes $derived $edge_bytes $states $partial $walked"; exit 1; }
    read -r _ _ _ _ got_nodes got_search _ <<<"$got"
    [[ "$got_nodes" == "$got_search" ]] \
        || { echo "exploration counts: $impl mc.response_nodes $got_nodes != mc.response_search_nodes $got_search"; exit 1; }
done
echo "CEGAR exploration counts OK (srsLTE 7/45/20, conformant 6/25/5, OAI 8/34/7, all dense, response nodes pinned and equal to search nodes, 6/5/7 derived, edge bytes and states pinned, 6/5/6 graphs left partial, 7/3/3 responses over a derivation)"

echo "== observability smoke =="
# Start a real run with the live metrics endpoint, scrape /metrics
# from outside while -serve-wait keeps it up, and assert the core
# pipeline metrics and a well-formed manifest came out.
smoke_dir=$(mktemp -d)
smoke_pid=""
cleanup_smoke() {
    [[ -n "$smoke_pid" ]] && kill "$smoke_pid" 2>/dev/null || true
    rm -rf "$smoke_dir" "$lint_dir"
}
trap cleanup_smoke EXIT
go build -o "$smoke_dir/prochecker" ./cmd/prochecker
"$smoke_dir/prochecker" -impl conformant -check S06 -quiet \
    -manifest "$smoke_dir/run.json" -metrics-addr 127.0.0.1:0 -serve-wait \
    2> "$smoke_dir/stderr.log" &
smoke_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*serving metrics on http://\([^/]*\)/metrics.*#\1#p' "$smoke_dir/stderr.log" | head -1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "smoke: metrics endpoint never came up"; cat "$smoke_dir/stderr.log"; exit 1; }
# The manifest is written when the run body completes, before
# -serve-wait parks the process; wait for it so the scrape sees final
# counts.
for _ in $(seq 1 600); do
    [[ -s "$smoke_dir/run.json" ]] && break
    sleep 0.1
done
[[ -s "$smoke_dir/run.json" ]] || { echo "smoke: manifest never appeared"; exit 1; }
vars=$(curl -sf "http://$addr/metrics")
for metric in prochecker_mc_states_explored prochecker_mc_graph_cache_misses prochecker_mc_check_ms \
              prochecker_report_properties_checked prochecker_cegar_iterations prochecker_conformance_cases; do
    grep -q "$metric" <<<"$vars" || { echo "smoke: /metrics missing $metric"; exit 1; }
done
grep -q '"tool": "prochecker"' "$smoke_dir/run.json" || { echo "smoke: manifest malformed"; exit 1; }
kill "$smoke_pid" && wait "$smoke_pid" 2>/dev/null || true
smoke_pid=""
echo "observability smoke OK (scraped http://$addr/metrics)"

# campaign_state ADDR ID prints a campaign's own state. The response is
# one line of JSON embedding every member job, each with a "state" of
# its own, so the match is anchored on the campaign's "job_ids" array,
# which directly precedes the campaign's state.
campaign_state() {
    curl -sf "http://$1/v1/campaigns/$2" \
        | sed -n 's/.*"job_ids": *\[[^]]*\], *"state": *"\([a-z]*\)".*/\1/p'
}

# cache_hits ADDR prints the service's jobs.cache_hits counter from its
# Prometheus scrape (empty before the first hit).
cache_hits() {
    curl -sf "http://$1/metrics" | sed -n 's/^prochecker_jobs_cache_hits \([0-9]*\)$/\1/p'
}

echo "== job-service smoke =="
# Boot the batch-analysis service, drive a 2-profile campaign through
# the HTTP API, assert the queue/cache metrics surfaced on /metrics,
# prove the content-addressed store serves a resubmission, and drain
# with SIGTERM.
serve_store="$smoke_dir/store"
"$smoke_dir/prochecker" -serve 127.0.0.1:0 -store "$serve_store" -workers 2 \
    2> "$smoke_dir/serve.log" &
smoke_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*serving jobs API on http://\([^/]*\)/v1/jobs.*#\1#p' "$smoke_dir/serve.log" | head -1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "smoke: jobs API never came up"; cat "$smoke_dir/serve.log"; exit 1; }

campaign_body='{"campaign": {"impls": ["conformant", "srsLTE"], "faults": ["", "drop=0.15"], "seed": 42, "properties": ["S06"]}}'
campaign_id=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "$campaign_body" "http://$addr/v1/jobs" | sed -n 's/.*"id": *"\(c-[0-9]*\)".*/\1/p')
[[ -n "$campaign_id" ]] || { echo "smoke: campaign submission failed"; exit 1; }
state=""
for _ in $(seq 1 600); do
    state=$(campaign_state "$addr" "$campaign_id")
    [[ "$state" == "done" || "$state" == "failed" || "$state" == "cancelled" ]] && break
    sleep 0.1
done
[[ "$state" == "done" ]] || { echo "smoke: campaign ended $state, want done"; exit 1; }

vars=$(curl -sf "http://$addr/metrics")
for metric in prochecker_jobs_queue_latency_ms prochecker_jobs_cache_misses prochecker_jobs_submitted prochecker_jobs_completed; do
    grep -q "$metric" <<<"$vars" || { echo "smoke: /metrics missing $metric"; exit 1; }
done

# Resubmit the same matrix: every cell must come out of the store.
curl -sf -X POST -H 'Content-Type: application/json' \
    -d "$campaign_body" "http://$addr/v1/jobs" > /dev/null
hits=$(cache_hits "$addr")
[[ "${hits:-0}" -ge 1 ]] || { echo "smoke: resubmission produced no cache hits"; exit 1; }

kill -TERM "$smoke_pid"
drain_rc=0
wait "$smoke_pid" || drain_rc=$?
smoke_pid=""
[[ "$drain_rc" -eq 0 ]] || { echo "smoke: SIGTERM drain exited $drain_rc, want 0"; cat "$smoke_dir/serve.log"; exit 1; }
echo "job-service smoke OK (campaign $campaign_id done, ${hits} cache hit(s), clean drain)"

echo "== live-streaming smoke =="
# Boot the service with its event bus, validate the Prometheus scrape
# with the in-repo format checker, tail a campaign's SSE stream while
# it runs (lifecycle events must arrive before completion), replay the
# retained history, follow a campaign from the CLI, and replay a
# sealed flight recording after the drain.
go build -o "$smoke_dir/promcheck" ./cmd/promcheck
stream_store="$smoke_dir/stream-store"
"$smoke_dir/prochecker" -serve 127.0.0.1:0 -store "$stream_store" -workers 2 \
    2> "$smoke_dir/stream-serve.log" &
smoke_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*serving jobs API on http://\([^/]*\)/v1/jobs.*#\1#p' "$smoke_dir/stream-serve.log" | head -1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "smoke: streaming jobs API never came up"; cat "$smoke_dir/stream-serve.log"; exit 1; }

curl -sf "http://$addr/metrics" | "$smoke_dir/promcheck" > /dev/null \
    || { echo "smoke: cold /metrics scrape failed validation"; exit 1; }

campaign_id=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "$campaign_body" "http://$addr/v1/jobs" | sed -n 's/.*"id": *"\(c-[0-9]*\)".*/\1/p')
[[ -n "$campaign_id" ]] || { echo "smoke: streaming campaign submission failed"; exit 1; }
curl -sN --max-time 120 "http://$addr/v1/campaigns/$campaign_id/events" \
    > "$smoke_dir/events.sse" &
stream_curl_pid=$!
saw_live=""
state=""
for _ in $(seq 1 600); do
    if [[ -z "$saw_live" ]] && grep -q '"type":"job"' "$smoke_dir/events.sse" 2>/dev/null; then
        saw_live=$(campaign_state "$addr" "$campaign_id")
    fi
    state=$(campaign_state "$addr" "$campaign_id")
    [[ "$state" == "done" || "$state" == "failed" || "$state" == "cancelled" ]] && break
    sleep 0.1
done
[[ "$state" == "done" ]] || { echo "smoke: streamed campaign ended $state, want done"; exit 1; }
[[ -n "$saw_live" ]] \
    || { echo "smoke: no job lifecycle event arrived over SSE before the campaign completed"; cat "$smoke_dir/events.sse"; exit 1; }
# The stream must deliver the synthetic campaign summary and close by
# itself (curl exits without hitting its --max-time).
for _ in $(seq 1 100); do
    grep -q '"type":"campaign".*"name":"done"' "$smoke_dir/events.sse" && break
    sleep 0.1
done
grep -q '"type":"campaign".*"name":"done"' "$smoke_dir/events.sse" \
    || { echo "smoke: SSE stream never delivered the campaign summary"; cat "$smoke_dir/events.sse"; exit 1; }
for _ in $(seq 1 100); do
    kill -0 "$stream_curl_pid" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$stream_curl_pid" 2>/dev/null \
    && { echo "smoke: SSE stream did not close after the terminal event"; exit 1; }
wait "$stream_curl_pid" 2>/dev/null || true

# Reconnect from the beginning of retention: the finished campaign
# replays its history (id: lines carry bus sequence numbers) and ends
# with the summary again.
replay=$(curl -sf --max-time 30 "http://$addr/v1/campaigns/$campaign_id/events?from=0" || true)
grep -q '"name":"running"' <<<"$replay" \
    || { echo "smoke: replayed stream is missing lifecycle history"; echo "$replay"; exit 1; }
grep -q '^id: ' <<<"$replay" \
    || { echo "smoke: replayed stream frames carry no SSE ids"; echo "$replay"; exit 1; }

# The warm /metrics scrape must validate and carry the event-bus and
# per-impl labelled families.
curl -sf "http://$addr/metrics" > "$smoke_dir/metrics.prom"
"$smoke_dir/promcheck" "$smoke_dir/metrics.prom" > /dev/null \
    || { echo "smoke: warm /metrics scrape failed validation"; exit 1; }
for family in prochecker_jobs_submitted prochecker_obs_events_published 'prochecker_jobs_terminal_by_impl{impl='; do
    grep -q "$family" "$smoke_dir/metrics.prom" \
        || { echo "smoke: /metrics missing $family"; cat "$smoke_dir/metrics.prom"; exit 1; }
done

# CLI -follow: resubmit the matrix (served from the store, so it
# settles immediately) and tail it to the final verdict table.
"$smoke_dir/prochecker" -server "http://$addr" -campaign "conformant,srsLTE" \
    -faults ";drop=0.15" -seed 42 -check S06 -follow \
    > "$smoke_dir/follow.out" 2> "$smoke_dir/follow.err" \
    || { echo "smoke: -follow run failed"; cat "$smoke_dir/follow.err"; exit 1; }
grep -q "campaign done" "$smoke_dir/follow.err" \
    || { echo "smoke: -follow tail never reported the campaign terminal"; cat "$smoke_dir/follow.err"; exit 1; }

kill -TERM "$smoke_pid"
wait "$smoke_pid" || { echo "smoke: streaming server drain failed"; cat "$smoke_dir/stream-serve.log"; exit 1; }
smoke_pid=""

# Flight recordings sealed at job termination replay offline with their
# CRC verified.
flight=$(ls "$stream_store"/flight/j-*.jsonl 2>/dev/null | head -1)
[[ -n "$flight" ]] || { echo "smoke: no flight recordings under $stream_store/flight"; exit 1; }
"$smoke_dir/prochecker" -replay-flight "$flight" > "$smoke_dir/flight.out" \
    || { echo "smoke: flight replay failed"; cat "$smoke_dir/flight.out"; exit 1; }
grep -q "crc verified" "$smoke_dir/flight.out" \
    || { echo "smoke: flight replay did not verify the CRC footer"; cat "$smoke_dir/flight.out"; exit 1; }
echo "live-streaming smoke OK (campaign $campaign_id streamed live, /metrics valid, flight $(basename "$flight") replayed)"

echo "== crash-recovery smoke =="
# SIGKILL the durable (-wal) service mid-campaign, restart it on the
# same store+WAL directories, and assert nothing was lost: the campaign
# finishes under its original ID with its original job set, and a
# resubmission of the same matrix is served from the store.
wal_dir="$smoke_dir/wal"
crash_store="$smoke_dir/crash-store"
"$smoke_dir/prochecker" -serve 127.0.0.1:0 -store "$crash_store" -wal "$wal_dir" -workers 2 \
    2> "$smoke_dir/crash.log" &
smoke_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*serving jobs API on http://\([^/]*\)/v1/jobs.*#\1#p' "$smoke_dir/crash.log" | head -1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "smoke: durable jobs API never came up"; cat "$smoke_dir/crash.log"; exit 1; }

campaign_id=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "$campaign_body" "http://$addr/v1/jobs" | sed -n 's/.*"id": *"\(c-[0-9]*\)".*/\1/p')
[[ -n "$campaign_id" ]] || { echo "smoke: durable campaign submission failed"; exit 1; }
jobs_before=$(curl -sf "http://$addr/v1/campaigns/$campaign_id" | grep -o '"j-[0-9]*"' | sort -u)
sleep 0.3    # let some cells start, then crash hard
kill -9 "$smoke_pid"
wait "$smoke_pid" 2>/dev/null || true
smoke_pid=""

"$smoke_dir/prochecker" -serve 127.0.0.1:0 -store "$crash_store" -wal "$wal_dir" -workers 2 \
    2> "$smoke_dir/crash2.log" &
smoke_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*serving jobs API on http://\([^/]*\)/v1/jobs.*#\1#p' "$smoke_dir/crash2.log" | head -1)
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "$addr" ]] || { echo "smoke: restarted jobs API never came up"; cat "$smoke_dir/crash2.log"; exit 1; }
grep -q "wal recovery from" "$smoke_dir/crash2.log" \
    || { echo "smoke: restart printed no WAL recovery banner"; cat "$smoke_dir/crash2.log"; exit 1; }

state=""
for _ in $(seq 1 600); do
    state=$(campaign_state "$addr" "$campaign_id")
    [[ "$state" == "done" || "$state" == "failed" || "$state" == "cancelled" ]] && break
    sleep 0.1
done
[[ "$state" == "done" ]] || { echo "smoke: resumed campaign ended ${state:-lost}, want done"; cat "$smoke_dir/crash2.log"; exit 1; }
jobs_after=$(curl -sf "http://$addr/v1/campaigns/$campaign_id" | grep -o '"j-[0-9]*"' | sort -u)
[[ "$jobs_before" == "$jobs_after" ]] \
    || { echo "smoke: job set changed across crash+restart"; echo "before: $jobs_before"; echo "after: $jobs_after"; exit 1; }

# Resubmit the same matrix: every cell must come out of the store.
curl -sf -X POST -H 'Content-Type: application/json' \
    -d "$campaign_body" "http://$addr/v1/jobs" > /dev/null
hits=$(cache_hits "$addr")
[[ "${hits:-0}" -ge 4 ]] || { echo "smoke: resubmission after recovery produced ${hits:-0} cache hits, want >= 4"; exit 1; }

kill -TERM "$smoke_pid"
drain_rc=0
wait "$smoke_pid" || drain_rc=$?
smoke_pid=""
[[ "$drain_rc" -eq 0 ]] || { echo "smoke: post-recovery SIGTERM drain exited $drain_rc, want 0"; cat "$smoke_dir/crash2.log"; exit 1; }
grep -q "wal checkpointed" "$smoke_dir/crash2.log" \
    || { echo "smoke: drain printed no WAL checkpoint banner"; cat "$smoke_dir/crash2.log"; exit 1; }
echo "crash-recovery smoke OK (campaign $campaign_id survived SIGKILL, ${hits} cache hit(s) on resubmit)"

echo "== snapshot-resume smoke =="
# Run a real check that checkpoints its exploration, then run it again
# over the same snapshot directory: the second run must resume from the
# completed-exploration snapshots instead of recomputing.
resume_snap="$smoke_dir/resume-snap"
"$smoke_dir/prochecker" -impl srsLTE -check S06 -quiet \
    -workers 2 -snapshot-dir "$resume_snap" \
    -manifest "$smoke_dir/resume.json" \
    || { echo "smoke: snapshotting run failed"; exit 1; }
"$smoke_dir/prochecker" -impl srsLTE -check S06 -quiet \
    -workers 2 -snapshot-dir "$resume_snap" \
    -manifest "$smoke_dir/resume2.json" \
    || { echo "smoke: resumed run failed"; exit 1; }
resume_level=$(sed -n 's/.*"mc.resume_level": *\([0-9]*\).*/\1/p' "$smoke_dir/resume2.json" | head -1)
[[ "${resume_level:-0}" -ge 1 ]] \
    || { echo "smoke: second run did not resume from snapshots"; exit 1; }
echo "snapshot-resume smoke OK (resumed at level ${resume_level})"

# bench_json SERIES OUT [KEY NUM DEN [DIGITS [FIELD]]] renders the
# `go test -bench` output on stdin into OUT, a BENCH_*.json file. Each
# benchmark line becomes one entry: its name without the GOMAXPROCS
# suffix, iterations, ns_per_op, and every further (value, unit) pair
# that b.ReportMetric/ReportAllocs added, keyed by its unit with "/op"
# -> "_per_op", "/" -> "_per_", "-" -> "_":
#   BenchmarkExplore-2  1  702924395 ns/op  14.66 bytes/state
#   -> {"name": "BenchmarkExplore", "iterations": 1, "ns_per_op": 702924395, "bytes_per_state": 14.66}
# With KEY, the file also records KEY = FIELD (default ns_per_op) of
# benchmark NUM over that of benchmark DEN, to DIGITS decimals (default
# 2), or null when either is missing; an empty DEN records NUM as is.
# When a benchmark name repeats (`go test -count N`), every line is
# listed and the ratio reads the median of FIELD over that name's lines;
# a single line is its own median.
bench_json() {
    awk -v series="$1" -v key="${3:-}" -v num="${4:-}" -v den="${5:-}" \
        -v digits="${6:-2}" -v field="${7:-ns_per_op}" '
function median(name,    k, i, j, t, a) {
    k = cnt[name]
    for (i = 0; i < k; i++) a[i] = vals[name, i] + 0
    for (i = 1; i < k; i++)
        for (j = i; j > 0 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    if (k % 2) return a[(k - 1) / 2]
    return (a[k/2 - 1] + a[k/2]) / 2
}
BEGIN { print "{"; printf "  \"series\": \"%s\",\n", series; print "  \"benchmarks\": [" }
/^Benchmark/ {
    gsub(/-[0-9]+$/, "", $1)
    fv = (field == "ns_per_op") ? $3 : ""
    line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $1, $2, $3)
    for (i = 5; i + 1 <= NF; i += 2) {
        unit = $(i+1)
        gsub(/\/op$/, "_per_op", unit)
        gsub(/\//, "_per_", unit)
        gsub(/-/, "_", unit)
        if (unit == field) fv = $i
        line = line sprintf(", \"%s\": %s", unit, $i)
    }
    if (fv != "") vals[$1, cnt[$1]++] = fv
    lines[n++] = line "}"
}
END {
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
    if (key == "") {
        print "  ]"
    } else {
        print "  ],"
        if (den == "")
            printf "  \"%s\": %s\n", key, num
        else if (cnt[num] && cnt[den] && median(num) > 0 && median(den) > 0)
            printf "  \"%s\": %." digits "f\n", key, median(num) / median(den)
        else
            printf "  \"%s\": null\n", key
    }
    print "}"
}' > "$2"
}

echo "== fault-injection bench baseline =="
bench_out=$(go test -run '^$' -bench 'BenchmarkConformance(Faults|Benign)$' -benchtime 20x .)
echo "$bench_out"

# Render the benchmark lines into BENCH_faults.json:
#   BenchmarkConformanceFaults   20   4522434 ns/op
echo "$bench_out" | bench_json "fault-injected conformance suite (srsLTE, drop=0.10 corrupt=0.10, seed 42)" BENCH_faults.json
echo "wrote BENCH_faults.json"

echo "== model-checker bench baseline =="
# Remember the committed speedup before regenerating, so the storage
# rework underneath the shared frontier can be gated against it below.
prev_speedup=$(sed -n 's/.*"checkall_speedup_vs_sequential": *\([0-9.]*\).*/\1/p' BENCH_mc.json 2>/dev/null | head -1)
mc_bench_out=$(go test -run '^$' -bench 'BenchmarkCheckAll(Sequential|Parallel)$|BenchmarkCEGARVerifyAll$' -benchtime 3x .)
echo "$mc_bench_out"

# Render into BENCH_mc.json, with the sequential/parallel speedup the
# acceptance criterion reads (shared-frontier engine vs per-property BFS).
# Benchmark lines carry (value, unit) pairs from field 3 on — ns/op
# first, then any b.ReportMetric extras such as the graph-cache
# counters:
#   BenchmarkCheckAllParallel  3  652243412 ns/op  8.00 cache-hits/op  1.00 cache-misses/op
echo "$mc_bench_out" | bench_json "shared-frontier model checking, full MC catalogue (conformant profile)" BENCH_mc.json \
    checkall_speedup_vs_sequential BenchmarkCheckAllSequential BenchmarkCheckAllParallel
echo "wrote BENCH_mc.json"

# Regression gate: the arena storage layer must not cost the
# engine its parallel speedup — the refreshed number may not fall more
# than 10% below the committed baseline.
new_speedup=$(sed -n 's/.*"checkall_speedup_vs_sequential": *\([0-9.]*\).*/\1/p' BENCH_mc.json | head -1)
if [[ -n "$prev_speedup" && -n "$new_speedup" ]]; then
    awk -v p="$prev_speedup" -v n="$new_speedup" 'BEGIN { exit !(n >= 0.9 * p) }' \
        || { echo "bench gate: checkall speedup $new_speedup fell more than 10% below baseline $prev_speedup"; exit 1; }
    echo "checkall speedup gate OK ($new_speedup vs baseline $prev_speedup)"
fi

echo "== exploration storage bench baseline =="
dist_bench_out=$(go test -run '^$' -bench 'BenchmarkExplore$|BenchmarkStateBytesMapBaseline$' -benchtime 1x .)
echo "$dist_bench_out"

# Render into BENCH_dist.json. Benchmark lines carry ReportMetric pairs
# after ns/op — bytes/state (peak resident state bytes over states
# explored) and states/sec:
#   BenchmarkExplore  1  702924395 ns/op  14.66 bytes/state  394355 states/sec
# The headline ratio divides the map-era representation's bytes/state
# (measured live by BenchmarkStateBytesMapBaseline) by the arena's; the
# acceptance floor for the storage rework is 4x.
echo "$dist_bench_out" | bench_json "arena exploration, composed srsLTE model" BENCH_dist.json \
    state_bytes_reduction_vs_map BenchmarkStateBytesMapBaseline BenchmarkExplore 2 bytes_per_state
echo "wrote BENCH_dist.json"

reduction=$(sed -n 's/.*"state_bytes_reduction_vs_map": *\([0-9.]*\).*/\1/p' BENCH_dist.json | head -1)
[[ -n "$reduction" ]] && awk -v r="$reduction" 'BEGIN { exit !(r >= 4) }' \
    || { echo "bench gate: state-bytes reduction ${reduction:-unmeasured} is below the 4x floor"; exit 1; }
echo "state-bytes reduction gate OK (${reduction}x vs map-based representation)"

echo "== campaign service bench baseline =="
serve_bench_out=$(go test -run '^$' -bench 'BenchmarkServeCampaign$' -benchtime 2x ./internal/server)
echo "$serve_bench_out"

# Render into BENCH_serve.json with the cache speedup (cold campaign
# recomputes every cell; cached serves all of them from the store):
#   BenchmarkServeCampaign/cold-8     2   6046071920 ns/op
echo "$serve_bench_out" | bench_json "HTTP campaign round trip, 3 impls x 2 fault specs, property S06" BENCH_serve.json \
    cache_speedup_vs_cold BenchmarkServeCampaign/cold BenchmarkServeCampaign/cached
echo "wrote BENCH_serve.json"

echo "== durability bench baseline =="
# The in-memory cold campaign is re-measured here, in the same
# invocation as the durable variant, so the overhead ratio compares
# runs under identical machine load (the BENCH_serve.json numbers were
# taken minutes earlier).
wal_bench_out=$(go test -run '^$' -bench 'BenchmarkWALAppend$' -benchtime 2000x ./internal/jobs
    go test -run '^$' -bench 'BenchmarkServeCampaign$|BenchmarkServeCampaignDurable$' -benchtime 3x ./internal/server)
echo "$wal_bench_out"

# Render into BENCH_wal.json with the durable-overhead ratio the
# acceptance criterion reads (<= 1.05, WAL fsyncs are group-committed
# off the hot path):
#   BenchmarkWALAppend             2000   24712 ns/op
#   BenchmarkServeCampaignDurable     3   6102481920 ns/op
echo "$wal_bench_out" | bench_json "write-ahead log durability: record append fsync path and WAL-enabled campaign round trip" BENCH_wal.json \
    durable_overhead_vs_in_memory BenchmarkServeCampaignDurable BenchmarkServeCampaign/cold 3
echo "wrote BENCH_wal.json"

echo "== model-lint bench baseline =="
lint_bench_out=$(go test -run '^$' -bench 'BenchmarkLintModel$' -benchtime 50x .)
echo "$lint_bench_out"

# Render into BENCH_lint.json, with the wall-time the three-profile CI
# gate took above (model build included, which dominates):
#   BenchmarkLintModel   50   183042 ns/op
echo "$lint_bench_out" | bench_json "model lint pre-check, all passes over the srsLTE composition" BENCH_lint.json \
    ci_gate_wall_ms_three_profiles "$((lint_end_ms - lint_start_ms))" ""
echo "wrote BENCH_lint.json"

echo "== static-analysis bench baseline =="
# The full MC catalogue over the plain LTEInspector composition, with
# and without the static vacuity pre-pass; both run on a warm engine
# with Workers=1 so the delta is exactly the property passes the pruner
# skips, not scheduler slack. Five runs of each: one run's ratio flips
# across the bound on an unchanged tree, so the gate reads the ratio of
# the medians.
sa_bench_out=$(go test -run '^$' -bench 'BenchmarkCheckAllVacuity(Unpruned|Pruned)$' -benchtime 50x -count 5 .)
echo "$sa_bench_out"

# Render into BENCH_sa.json with the pruning speedup the acceptance
# criterion reads (>= 1.15x), median over the five runs. Lines carry the
# pruned-property count as a ReportMetric pair after ns/op:
#   BenchmarkCheckAllVacuityPruned   50   38467217 ns/op   30.00 pruned/op
echo "$sa_bench_out" | bench_json "static vacuity pre-pruning, full MC catalogue (plain LTEInspector composition, warm engine, 1 worker)" BENCH_sa.json \
    vacuity_prune_speedup BenchmarkCheckAllVacuityUnpruned BenchmarkCheckAllVacuityPruned
echo "wrote BENCH_sa.json"

sa_speedup=$(sed -n 's/.*"vacuity_prune_speedup": *\([0-9.]*\).*/\1/p' BENCH_sa.json | head -1)
[[ -n "$sa_speedup" ]] && awk -v s="$sa_speedup" 'BEGIN { exit !(s >= 1.15) }' \
    || { echo "bench gate: vacuity-prune speedup ${sa_speedup:-unmeasured} is below the 1.15x floor"; exit 1; }
echo "vacuity-prune speedup gate OK (${sa_speedup}x vs unpruned catalogue)"

echo "== observability-plane bench baseline =="
# The bus publish path (the cost every instrumented call site pays) and
# the whole-pipeline overhead of streaming: each iteration of
# BenchmarkCheckAllSubscriberOverhead runs the shared-frontier catalogue
# bare and with a live bus subscriber attached, in alternating order, and
# reports their time ratio, so both runs of a pair see the same machine
# load. Five runs; the gate reads the median ratio.
obs_bench_out=$(go test -run '^$' -bench 'BenchmarkEventBusPublish' -benchtime 200000x ./internal/obs
    go test -run '^$' -bench 'BenchmarkCheckAllSubscriberOverhead$' -benchtime 10x -count 5 .)
echo "$obs_bench_out"

# Render into BENCH_obs.json with the subscriber-overhead ratio the
# acceptance criterion reads (<= 1.05, the median of the five paired
# ratios: publishing is one ring append under a mutex and never blocks
# on consumers):
#   BenchmarkEventBusPublish                 200000   163.4 ns/op   0 B/op   0 allocs/op
#   BenchmarkCheckAllSubscriberOverhead          10   318050422 ns/op   35.00 events/op   1.032 subscribed/bare
overhead=$(echo "$obs_bench_out" | awk '/^BenchmarkCheckAllSubscriberOverhead/ {
    for (i = 5; i + 1 <= NF; i += 2) if ($(i+1) == "subscribed/bare") print $i
}' | sort -g | awk '{ a[NR] = $1 } END { if (NR) printf "%.3f", (NR % 2 ? a[(NR+1)/2] : (a[NR/2] + a[NR/2+1]) / 2) }')
echo "$obs_bench_out" | bench_json "live observability plane: event-bus publish path and streaming overhead on the full MC catalogue" BENCH_obs.json \
    subscriber_overhead_vs_bare "${overhead:-null}"
echo "wrote BENCH_obs.json"

[[ -n "$overhead" ]] && awk -v o="$overhead" 'BEGIN { exit !(o <= 1.05) }' \
    || { echo "bench gate: live-subscriber overhead ${overhead:-unmeasured} exceeds the 5% bound"; exit 1; }
echo "streaming overhead gate OK (${overhead}x vs bare catalogue run)"
