#!/usr/bin/env bash
# CI entry point: build, run the full test suite (once sequential, once
# with TECORE_JOBS=4 to exercise the multicore paths, once with
# TECORE_FAULTS injecting worker crashes and slow grounding to exercise
# the robustness paths, plus the serve suites once more with
# TECORE_LANES=4 to exercise the multi-lane resolver), audit the CLI
# exit-code contract, gate the benchmark suite's exact work counters,
# and smoke-run the experiment harness's checks. Fails on the first
# broken step.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest (jobs=1 default) =="
dune runtest

echo "== dune runtest (TECORE_JOBS=4) =="
TECORE_JOBS=4 dune runtest --force

echo "== dune runtest (TECORE_FAULTS=worker_crash,slow_ground) =="
# Deterministic fault injection: descent 1 of every MaxWalkSAT solve
# (and chain 1 of every sampler run) crashes and every grounding closure
# round sleeps 1 ms. The suite must still pass — crash containment
# keeps results sound at every job count.
TECORE_FAULTS=worker_crash,slow_ground dune runtest --force

echo "== serve suites (TECORE_LANES=4) =="
# The serve test matrix re-runs multi-lane: the differential and
# lane-determinism oracles, the journal crash oracles and the wire/lane
# fuzz must hold at any lane count — responses may only differ by the
# lane observability fields the tests account for.
for t in test_serve test_serve_concurrent test_journal test_fuzz; do
  TECORE_LANES=4 dune exec "test/$t.exe"
done

echo "== CLI exit codes =="
CLI=_build/default/bin/tecore_cli.exe
expect_exit() { # expect_exit CODE DESCRIPTION CMD...
  local want="$1" what="$2"; shift 2
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "exit-code audit: $what: expected $want, got $got" >&2
    exit 1
  fi
}
expect_exit 0 "clean resolve" \
  "$CLI" resolve -d data/ranieri.tq -r data/ranieri.rules
# Inputs are read to end of file, not by a seek-measured length, so
# pipes and procfs files work too.
expect_exit 0 "resolve from pipes" \
  "$CLI" resolve -d <(cat data/ranieri.tq) -r <(cat data/ranieri.rules)
expect_exit 4 "missing data file" \
  "$CLI" resolve -d no-such-file.tq
expect_exit 4 "missing rules file" \
  "$CLI" resolve -d data/ranieri.tq -r no-such-rules
BAD_RULES=$(mktemp)
printf 'rule broken 1.0: p(x)@t => .\n' > "$BAD_RULES"
expect_exit 1 "malformed rules" \
  "$CLI" resolve -d data/ranieri.tq -r "$BAD_RULES"
# Duplicate rule names => Error-level translator note => Rejected.
printf 'rule dup 1.0: ex:coach(x, y)@t => ex:worksFor(x, y)@t .\nrule dup 2.0: ex:playsFor(x, y)@t => ex:worksFor(x, y)@t .\n' > "$BAD_RULES"
expect_exit 2 "translator-rejected program" \
  "$CLI" resolve -d data/ranieri.tq -r "$BAD_RULES"
rm -f "$BAD_RULES"
expect_exit 3 "deadline expiry under --on-timeout fail" \
  "$CLI" resolve -d data/football.tq -r data/football.rules \
  --timeout 0.001 --on-timeout fail
expect_exit 0 "deadline expiry under best-effort" \
  "$CLI" resolve -d data/football.tq -r data/football.rules \
  --timeout 0.01 --on-timeout best-effort
"$CLI" resolve -d data/football.tq -r data/football.rules \
  --timeout 0.01 --on-timeout best-effort --json \
  | grep -q '"deadline":{"status":"\(timed_out\|degraded\)"' \
  || { echo "best-effort JSON lacks a non-completed deadline status" >&2; exit 1; }

echo "== telemetry smoke (trace + metrics + event log) =="
# Only the grounding joins use the worker pool, and they deal tasks to
# it only when a join is large enough to partition: data/football.tq
# grounds in single-task calls that never reach a worker. FootballDB at
# 6,500 players deals 192 join tasks at --jobs 4.
FB_DATA=$(mktemp) TRACE_OUT=$(mktemp) METRICS_OUT=$(mktemp) LOG_OUT=$(mktemp)
"$CLI" generate footballdb --players 6500 --seed 1 --noise 0.5 \
  -o "$FB_DATA" >/dev/null
"$CLI" resolve -d "$FB_DATA" -r data/football.rules \
  --jobs 4 --stats --log-level debug \
  --trace-out "$TRACE_OUT" --metrics-out "$METRICS_OUT" \
  >/dev/null 2>"$LOG_OUT"
# The Chrome trace must parse as JSON, contain only complete "X" events
# with ph/ts/dur/pid/tid, and show at least one worker lane besides the
# coordinator at --jobs 4.
_build/default/tools/telemetry_check.exe trace "$TRACE_OUT" --min-lanes 2
# The metrics file must pass the OpenMetrics grammar check.
_build/default/tools/telemetry_check.exe metrics "$METRICS_OUT"
# --log-level debug must have streamed pipeline events to stderr.
grep -q '^\[debug\]' "$LOG_OUT" \
  || { echo "--log-level debug produced no debug events on stderr" >&2; exit 1; }
grep -q 'engine.selected' "$LOG_OUT" \
  || { echo "event stream lacks engine.selected" >&2; exit 1; }
rm -f "$FB_DATA" "$TRACE_OUT" "$METRICS_OUT" "$LOG_OUT"
# A plain resolve runs with a session state and a budgeted one without;
# both go through the one resolve pipeline, so their traces must name
# the same stages.
PLAIN_TRACE=$(mktemp) BUDGET_TRACE=$(mktemp)
"$CLI" resolve -d data/football.tq -r data/football.rules \
  --trace-out "$PLAIN_TRACE" >/dev/null
"$CLI" resolve -d data/football.tq -r data/football.rules --timeout 600 \
  --trace-out "$BUDGET_TRACE" >/dev/null
span_names() { grep -o '"name":"[^"]*"' "$1" | sort -u; }
diff <(span_names "$PLAIN_TRACE") <(span_names "$BUDGET_TRACE") \
  || { echo "budgeted and plain resolves name different stages" >&2; exit 1; }
rm -f "$PLAIN_TRACE" "$BUDGET_TRACE"
# A deadline decides only when the solve stops, never which code runs:
# a budget that does not fire must write the unbudgeted consistent KG,
# byte for byte, on every engine.
for engine in mln mln-exact psl; do
  PLAIN_KG=$(mktemp) BUDGET_KG=$(mktemp)
  "$CLI" resolve -d data/football.tq -r data/football.rules -e "$engine" \
    -o "$PLAIN_KG" >/dev/null
  "$CLI" resolve -d data/football.tq -r data/football.rules -e "$engine" \
    --timeout 600 -o "$BUDGET_KG" >/dev/null
  cmp -s "$PLAIN_KG" "$BUDGET_KG" \
    || { echo "-e $engine: a --timeout 600 resolve wrote another consistent KG" >&2; exit 1; }
  rm -f "$PLAIN_KG" "$BUDGET_KG"
done

echo "== disabled observability leaves output unchanged =="
# Without --stats/--trace*/--log-level/--*-out the telemetry layer must
# stay off: the JSON output carries no obs report, event log or series.
"$CLI" resolve -d data/ranieri.tq -r data/ranieri.rules --json \
  | grep -q '"obs"\|"events"\|"series"' \
  && { echo "plain --json output grew observability fields" >&2; exit 1; }
# And two plain runs are identical once the (pre-existing) wall-clock
# timing values are normalised — no telemetry keys, event text or
# series bleed into the default output.
PLAIN_A=$(mktemp) PLAIN_B=$(mktemp)
normalize() { sed -E 's/[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?/N/g' "$1"; }
"$CLI" resolve -d data/ranieri.tq -r data/ranieri.rules --json > "$PLAIN_A"
"$CLI" resolve -d data/ranieri.tq -r data/ranieri.rules --json > "$PLAIN_B"
diff <(normalize "$PLAIN_A") <(normalize "$PLAIN_B") >/dev/null \
  || { echo "plain --json output differs beyond timing values across runs" >&2; exit 1; }
rm -f "$PLAIN_A" "$PLAIN_B"

echo "== session script golden transcripts =="
# The golden suite under data/ already ran as part of dune runtest; this
# re-runs it in isolation so a transcript drift fails with a focused
# diff. The rules shield TECORE_FAULTS/TECORE_TIMEOUT_MS/TECORE_JOBS,
# so the transcripts are stable under the fault sweep above.
dune build @data/runtest

echo "== examples run =="
# The six library examples are callers of the public API; run each from
# an empty temporary directory (they read no input and write no files) and
# require exit 0 and an untouched directory.
EXAMPLES_DIR=$(mktemp -d) EXAMPLES_BIN=$PWD/_build/default/examples
for ex in quickstart football_debugging wikidata_spouse constraint_editor \
  kg_curation weight_learning; do
  (cd "$EXAMPLES_DIR" && "$EXAMPLES_BIN/$ex.exe" >/dev/null) \
    || { echo "example $ex failed" >&2; exit 1; }
done
[ -z "$(ls -A "$EXAMPLES_DIR")" ] \
  || { echo "an example wrote files into its working directory" >&2; exit 1; }
rmdir "$EXAMPLES_DIR"

echo "== incremental fallback under TECORE_FAULTS=incr_timeout =="
# With the incremental-replay fault armed, every stateful resolve must
# fall back to a fresh ground — cache=fallback in the transcript, never
# a stale answer. The differential fault test (test_incremental.ml)
# already proves fallback == fresh; here we check the CLI surfaces it.
FAULT_OUT=$(mktemp)
TECORE_FAULTS=incr_timeout "$CLI" session --script data/session_demo.script \
  > "$FAULT_OUT"
grep -q 'cache=fallback' "$FAULT_OUT" \
  || { echo "incr_timeout fault did not surface cache=fallback" >&2; exit 1; }
grep -q 'cache=replay' "$FAULT_OUT" \
  && { echo "incr_timeout fault did not disable incremental replay" >&2; exit 1; }
# Apart from the cache= outcome and timing-free objective values, the
# faulted transcript must match the golden one: fallback changes the
# path taken, not the resolution.
diff <(sed 's/cache=[a-z]*/cache=X/' "$FAULT_OUT") \
     <(sed 's/cache=[a-z]*/cache=X/' data/session_demo.golden) \
  || { echo "fallback transcript diverged from golden resolution" >&2; exit 1; }
rm -f "$FAULT_OUT"

echo "== serve smoke (start, request, shutdown; exit-code contract) =="
# A real daemon on a Unix socket: start it, drive a session through the
# wire protocol with the client, stop it with the shutdown verb, and
# check the whole lifecycle exits 0. The serve_*.golden transcripts
# (part of @data/runtest above) cover the protocol surface; this checks
# the long-running daemon path and the documented exit codes.
SERVE_SOCK=$(mktemp -u)
"$CLI" serve --socket "$SERVE_SOCK" >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 50); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || { echo "tecore serve did not bind $SERVE_SOCK" >&2; exit 1; }
expect_exit 0 "serve round-trip" \
  "$CLI" client --socket "$SERVE_SOCK" \
  --send "hello ci" --send "load data/ranieri.tq" --send "resolve" \
  --send "quit"
expect_exit 1 "typed error on a malformed request" \
  "$CLI" client --socket "$SERVE_SOCK" --send "bogus request"
expect_exit 0 "shutdown verb" \
  "$CLI" client --socket "$SERVE_SOCK" --send "shutdown"
SERVE_EXIT=0; wait "$SERVE_PID" || SERVE_EXIT=$?
[ "$SERVE_EXIT" -eq 0 ] \
  || { echo "tecore serve exited $SERVE_EXIT after shutdown verb" >&2; exit 1; }
expect_exit 4 "unbindable listen address" \
  "$CLI" serve --socket /no-such-dir/tecore.sock
expect_exit 4 "client against a dead server" \
  "$CLI" client --socket "$SERVE_SOCK" --send "ping"

echo "== serve access-log smoke (tracing, request ids, analyzer) =="
# A daemon with --access-log traces every request: responses carry
# unique, monotone request ids, the JSON-lines log validates (schema +
# phase-sum sanity), and the offline analyzer digests it.
ACCESS_LOG=$(mktemp) ACCESS_SOCK=$(mktemp -u) ACCESS_OUT=$(mktemp)
"$CLI" serve --socket "$ACCESS_SOCK" --access-log "$ACCESS_LOG" \
  >/dev/null 2>&1 &
ACCESS_PID=$!
for _ in $(seq 50); do [ -S "$ACCESS_SOCK" ] && break; sleep 0.1; done
[ -S "$ACCESS_SOCK" ] || { echo "access-log smoke: serve did not bind" >&2; exit 1; }
"$CLI" client --socket "$ACCESS_SOCK" \
  --send "hello ci-trace" --send "open" \
  --send "constraint one_team: ex:playsFor(x, y)@t ^ ex:playsFor(x, z)@t2 ^ y != z => disjoint(t, t2) ." \
  --send "assert ex:P1 ex:playsFor ex:T1 [2000,2004] 0.9 ." \
  --send "assert ex:P1 ex:playsFor ex:T2 [2002,2006] 0.8 ." \
  --send "resolve" \
  --send "tail 5" \
  --send "metrics" \
  --send "quit" > "$ACCESS_OUT"
expect_exit 0 "access-log smoke: shutdown" \
  "$CLI" client --socket "$ACCESS_SOCK" --send "shutdown"
wait "$ACCESS_PID" || { echo "access-log serve exited non-zero" >&2; exit 1; }
# Every response line leads with its request id (the tail payload nests
# more req fields, so only the leading one counts) — all present,
# unique, strictly increasing.
REQ_IDS=$(sed -n 's/^\(ok\|err\) {"req":\([0-9]*\).*/\2/p' "$ACCESS_OUT")
[ "$(echo "$REQ_IDS" | wc -l)" -eq 9 ] \
  || { echo "access-log smoke: not every response carries a request id" >&2; cat "$ACCESS_OUT" >&2; exit 1; }
[ "$(echo "$REQ_IDS" | sort -n -u | wc -l)" -eq 9 ] \
  || { echo "access-log smoke: request ids are not unique" >&2; exit 1; }
[ "$(echo "$REQ_IDS" | sort -n)" = "$REQ_IDS" ] \
  || { echo "access-log smoke: request ids are not monotone" >&2; exit 1; }
# The live exposition of the real daemon carries every serve_* family
# of the docs/SERVER.md table.
for family in "serve_sessions_open gauge" "serve_queue_depth gauge" \
  "serve_lane_depth gauge" "serve_lane_requests_total counter" \
  "serve_requests_total counter" "serve_shed_total counter" \
  "serve_sessions_evicted_total counter" \
  "serve_sessions_expired_total counter" \
  "serve_sessions_recovered_total counter" "serve_uptime_seconds gauge" \
  "serve_request_phase_ms summary" "serve_session_requests_total counter"; do
  grep -qF "# TYPE $family" "$ACCESS_OUT" \
    || { echo "access-log smoke: metrics lack '# TYPE $family'" >&2; exit 1; }
done
# The log itself: resolve attributed to ground/solve, every line valid.
grep -q '"verb":"resolve"' "$ACCESS_LOG" \
  || { echo "access-log smoke: no resolve record in the log" >&2; exit 1; }
grep -q '"ground":' "$ACCESS_LOG" \
  || { echo "access-log smoke: resolve record lacks a ground phase" >&2; exit 1; }
grep '"verb":"resolve"' "$ACCESS_LOG" | grep -q '"solve":' \
  || { echo "access-log smoke: resolve record lacks a solve phase" >&2; exit 1; }
_build/default/tools/telemetry_check.exe accesslog "$ACCESS_LOG"
"$CLI" logstat "$ACCESS_LOG" --top 3 > /dev/null \
  || { echo "access-log smoke: tecore logstat failed" >&2; exit 1; }
rm -f "$ACCESS_LOG" "$ACCESS_OUT"
# Zero-cost contract: without --access-log/--trace-every the server's
# responses stay byte-identical to previous releases — in particular,
# no request ids.
PLAIN_SOCK=$(mktemp -u) PLAIN_OUT=$(mktemp)
"$CLI" serve --socket "$PLAIN_SOCK" >/dev/null 2>&1 &
PLAIN_PID=$!
for _ in $(seq 50); do [ -S "$PLAIN_SOCK" ] && break; sleep 0.1; done
[ -S "$PLAIN_SOCK" ] || { echo "zero-cost smoke: serve did not bind" >&2; exit 1; }
"$CLI" client --socket "$PLAIN_SOCK" \
  --send "hello ci-plain" --send "ping" --send "stat" --send "quit" \
  > "$PLAIN_OUT"
grep -q '"req":' "$PLAIN_OUT" \
  && { echo "zero-cost smoke: untraced responses grew request ids" >&2; cat "$PLAIN_OUT" >&2; exit 1; }
expect_exit 0 "zero-cost smoke: shutdown" \
  "$CLI" client --socket "$PLAIN_SOCK" --send "shutdown"
wait "$PLAIN_PID" || { echo "zero-cost serve exited non-zero" >&2; exit 1; }
rm -f "$PLAIN_OUT"

echo "== serve crash smoke (SIGKILL mid-journal-append, recover) =="
# A durable daemon killed with SIGKILL half-way through a journal
# write must come back with exactly the acked prefix: start it with
# the journal_torn fault armed (the 6th append on the session's
# journal writes half a frame and stalls), drive five acked records
# in, let the sixth tear, kill -9, restart over the same state dir,
# and check the recovered session resolves identically to an
# uninterrupted session fed the same five records.
CRASH_DIR=$(mktemp -d)
CRASH_SOCK=$(mktemp -u)
TECORE_FAULTS=journal_torn:6 "$CLI" serve \
  --socket "$CRASH_SOCK" --state-dir "$CRASH_DIR" >/dev/null 2>&1 &
CRASH_PID=$!
for _ in $(seq 50); do [ -S "$CRASH_SOCK" ] && break; sleep 0.1; done
[ -S "$CRASH_SOCK" ] || { echo "crash smoke: serve did not bind $CRASH_SOCK" >&2; exit 1; }
expect_exit 0 "crash smoke: acked prefix" \
  "$CLI" client --socket "$CRASH_SOCK" \
  --send "hello crash" --send "open" \
  --send "assert ex:P1 ex:playsFor ex:T1 [2000,2004] 0.9 ." \
  --send "assert ex:P1 ex:playsFor ex:T2 [2002,2006] 0.8 ." \
  --send "assert ex:P2 ex:playsFor ex:T1 [2001,2005] 0.7 ." \
  --send "assert ex:P2 ex:playsFor ex:T2 [2003,2007] 0.6 ."
# The sixth append tears mid-frame and stalls before the ack; the
# client must hang (timeout exits 124), at which point the daemon is
# killed hard with the torn record on disk.
TORN_EXIT=0
timeout 5 "$CLI" client --socket "$CRASH_SOCK" \
  --send "hello crash" \
  --send "assert ex:P3 ex:playsFor ex:T3 [2004,2008] 0.5 ." \
  >/dev/null 2>&1 || TORN_EXIT=$?
[ "$TORN_EXIT" -eq 124 ] \
  || { echo "crash smoke: torn append did not stall the ack (exit $TORN_EXIT)" >&2; exit 1; }
kill -9 "$CRASH_PID" 2>/dev/null || true
wait "$CRASH_PID" 2>/dev/null || true

# Restart (no fault) over the same state dir, binding elsewhere and
# moving the socket into place so a client retrying against the stale
# socket only ever sees ECONNREFUSED or the live daemon — this is the
# documented --retries scenario (a daemon mid-restart).
RETRY_OUT=$(mktemp)
"$CLI" client --socket "$CRASH_SOCK" --retries 20 --backoff 100 \
  --send "hello crash" --send "stat" > "$RETRY_OUT" &
RETRY_PID=$!
"$CLI" serve --socket "$CRASH_SOCK.next" --state-dir "$CRASH_DIR" \
  >/dev/null 2>&1 &
CRASH_PID=$!
for _ in $(seq 50); do [ -S "$CRASH_SOCK.next" ] && break; sleep 0.1; done
[ -S "$CRASH_SOCK.next" ] || { echo "crash smoke: restarted serve did not bind" >&2; exit 1; }
mv "$CRASH_SOCK.next" "$CRASH_SOCK"
RETRY_EXIT=0; wait "$RETRY_PID" || RETRY_EXIT=$?
[ "$RETRY_EXIT" -eq 0 ] \
  || { echo "client --retries did not ride out the restart (exit $RETRY_EXIT)" >&2; exit 1; }
grep -q '"recovery":"partial"' "$RETRY_OUT" \
  || { echo "crash smoke: recovered hello does not report a partial recovery" >&2; cat "$RETRY_OUT" >&2; exit 1; }
grep -q '"facts":4' "$RETRY_OUT" \
  || { echo "crash smoke: recovered stat does not report the 4 acked facts" >&2; cat "$RETRY_OUT" >&2; exit 1; }
# The recovered resolution must match an uninterrupted session fed the
# same acked prefix (a fresh session on the same daemon and engine).
CRASH_OBJ=$("$CLI" client --socket "$CRASH_SOCK" \
  --send "hello crash" --send "resolve" | grep -o '"objective":[0-9.eE+-]*')
REF_OBJ=$("$CLI" client --socket "$CRASH_SOCK" \
  --send "hello crash-ref" --send "open" \
  --send "assert ex:P1 ex:playsFor ex:T1 [2000,2004] 0.9 ." \
  --send "assert ex:P1 ex:playsFor ex:T2 [2002,2006] 0.8 ." \
  --send "assert ex:P2 ex:playsFor ex:T1 [2001,2005] 0.7 ." \
  --send "assert ex:P2 ex:playsFor ex:T2 [2003,2007] 0.6 ." \
  --send "resolve" | grep -o '"objective":[0-9.eE+-]*')
[ -n "$CRASH_OBJ" ] && [ "$CRASH_OBJ" = "$REF_OBJ" ] \
  || { echo "crash smoke: recovered objective ($CRASH_OBJ) != reference ($REF_OBJ)" >&2; exit 1; }
expect_exit 0 "crash smoke: shutdown" \
  "$CLI" client --socket "$CRASH_SOCK" --send "shutdown"
wait "$CRASH_PID" || { echo "restarted serve exited non-zero" >&2; exit 1; }
rm -rf "$CRASH_DIR"; rm -f "$CRASH_SOCK" "$RETRY_OUT"

echo "== solve-layer work counters (fb-mln, seed 1, quick, traced) =="
# One job, fixed seeds: the MLN solve layer's work counters are
# machine-independent, so they are gated exactly, and its allocation
# against a ceiling (the list-based MaxWalkSAT kernel allocated 14.59
# Mwords here, the packed one about 0.55, and about 0.65 with the exact
# optimum proof on small networks). mln.flips was 120558 before
# MaxWalkSAT stopped at the proven optimum of networks of at most 16
# atoms; it is 489 since.
SUITE_DIR=$(mktemp -d) SUITE_OUT=$(mktemp)
bash bench/suite/run.sh --workload fb-mln --seed 1 --quick true --trace 1 \
  --seconds 0.1 --workdir "$SUITE_DIR" > "$SUITE_OUT" \
  || { echo "work-counter gate: traced fb-mln run failed" >&2; cat "$SUITE_OUT" >&2; exit 1; }
metric() { awk -v m="$1" '$1 == m { print $2 }' "$SUITE_OUT"; }
for expected in mln.clauses=1047 mln.components=388 mln.flips=489 \
                mln.cpi_iterations=546; do
  name=${expected%=*} want=${expected#*=}
  [ "$(metric "$name")" = "$want.0000" ] \
    || { echo "work-counter gate: $name = $(metric "$name"), expected exactly $want" >&2; exit 1; }
done
awk -v v="$(metric mln.alloc_mwords)" 'BEGIN { exit !(v != "" && v + 0 <= 2) }' \
  || { echo "work-counter gate: mln.alloc_mwords = $(metric mln.alloc_mwords) exceeds 2" >&2; exit 1; }
rm -rf "$SUITE_DIR" "$SUITE_OUT"

echo "== solve-layer work counters (fb-mln, seed 1, full size, traced) =="
# The same gate at full size (FootballDB-6500): 17,104 components and
# 23,980 CPI rounds, so per-component and per-round allocation shows.
# The MLN solve layer allocated 34.1 Mwords here while clauses were
# boxed records re-boxed per component and repacked per solve, and
# about 15 with one packed clause layout; the ceiling fails if boxed
# clauses or the per-solve repack come back. The same run gates the
# full-size grounder counts exactly (rows joined, atoms, rule instances,
# closure rounds), so a grounding change shows at full size too, and
# the grounding allocation against a ceiling: 13.38 Mwords while the
# atom store re-interned every fact's symbols under a process-wide
# lock, about 11.64 since it copies the graph's own symbol codes; the
# ceiling of 12 sits more than one minor-heap step (about 0.26 Mwords)
# above that and fails if per-resolve interning comes back.
SUITE_DIR=$(mktemp -d) SUITE_OUT=$(mktemp)
bash bench/suite/run.sh --workload fb-mln --seed 1 --trace 1 \
  --seconds 0.1 --workdir "$SUITE_DIR" > "$SUITE_OUT" \
  || { echo "work-counter gate: full-size traced fb-mln run failed" >&2; cat "$SUITE_OUT" >&2; exit 1; }
for expected in mln.clauses=48715 mln.components=17104 mln.flips=34728 \
                mln.cpi_iterations=23980 grounder.join_rows=32805 \
                grounder.atoms=31505 grounder.instances=26281 \
                grounder.rounds=2; do
  name=${expected%=*} want=${expected#*=}
  [ "$(metric "$name")" = "$want.0000" ] \
    || { echo "work-counter gate: $name = $(metric "$name"), expected exactly $want" >&2; exit 1; }
done
awk -v v="$(metric mln.alloc_mwords)" 'BEGIN { exit !(v != "" && v + 0 <= 20) }' \
  || { echo "work-counter gate: mln.alloc_mwords = $(metric mln.alloc_mwords) exceeds 20" >&2; exit 1; }
awk -v v="$(metric grounder.alloc_mwords)" 'BEGIN { exit !(v != "" && v + 0 <= 12) }' \
  || { echo "work-counter gate: grounder.alloc_mwords = $(metric grounder.alloc_mwords) exceeds 12" >&2; exit 1; }
rm -rf "$SUITE_DIR" "$SUITE_OUT"

echo "== solve-layer work counters (fb-psl, seed 1, quick, traced) =="
# The same gate for ADMM: a moved component boundary or a changed ADMM
# trajectory shows in these exact counts. Allocation was 3.12 Mwords
# with the boxed HL-MRF and ADMM kernel and reads about 0.24 with the
# packed ones; the ceiling sits more than one minor-heap step (about
# 0.26 Mwords) above that. The grounder counts (rows joined, atoms,
# rule instances, closure rounds) are exact too: they are shared with
# fb-mln, so a grounding change shows here before it reaches a solver.
SUITE_DIR=$(mktemp -d) SUITE_OUT=$(mktemp)
bash bench/suite/run.sh --workload fb-psl --seed 1 --quick true --trace 1 \
  --seconds 0.1 --workdir "$SUITE_DIR" > "$SUITE_OUT" \
  || { echo "work-counter gate: traced fb-psl run failed" >&2; cat "$SUITE_OUT" >&2; exit 1; }
for expected in grounder.join_rows=652 grounder.atoms=694 \
                grounder.instances=538 grounder.rounds=2 \
                psl.potentials=751 psl.components=388 \
                psl.admm_iterations=7816; do
  name=${expected%=*} want=${expected#*=}
  [ "$(metric "$name")" = "$want.0000" ] \
    || { echo "work-counter gate: $name = $(metric "$name"), expected exactly $want" >&2; exit 1; }
done
awk -v v="$(metric psl.alloc_mwords)" 'BEGIN { exit !(v != "" && v + 0 <= 0.6) }' \
  || { echo "work-counter gate: psl.alloc_mwords = $(metric psl.alloc_mwords) exceeds 0.6" >&2; exit 1; }
rm -rf "$SUITE_DIR" "$SUITE_OUT"

echo "== grounding work counters (wd-psl, seed 1, quick, traced) =="
# The grounding-heavy workload: rows joined, atoms, rule instances and
# closure rounds are exact, and so are the nPSL counts downstream of
# them. Grounding allocation read 3.42 Mwords while binding rows were
# decoded into boxed values, 3.01 once the joins read codes but facts,
# heads and conditions were still boxed, and about 0.72 with those on
# codes too; the ceiling (3.2 before, 1.5 now) fails if boxed facts,
# heads or condition checks come back. nPSL allocation read 6.91 Mwords
# with the boxed HL-MRF and ADMM kernel and about 0.69 with the packed
# ones.
SUITE_DIR=$(mktemp -d) SUITE_OUT=$(mktemp)
bash bench/suite/run.sh --workload wd-psl --seed 1 --quick true --trace 1 \
  --seconds 0.1 --workdir "$SUITE_DIR" > "$SUITE_OUT" \
  || { echo "work-counter gate: traced wd-psl run failed" >&2; cat "$SUITE_OUT" >&2; exit 1; }
for expected in grounder.join_rows=3941 grounder.atoms=3280 \
                grounder.instances=1371 grounder.rounds=2 \
                psl.potentials=4605 psl.components=1937 \
                psl.admm_iterations=15949; do
  name=${expected%=*} want=${expected#*=}
  [ "$(metric "$name")" = "$want.0000" ] \
    || { echo "work-counter gate: $name = $(metric "$name"), expected exactly $want" >&2; exit 1; }
done
awk -v v="$(metric grounder.alloc_mwords)" 'BEGIN { exit !(v != "" && v + 0 <= 1.5) }' \
  || { echo "work-counter gate: grounder.alloc_mwords = $(metric grounder.alloc_mwords) exceeds 1.5" >&2; exit 1; }
awk -v v="$(metric psl.alloc_mwords)" 'BEGIN { exit !(v != "" && v + 0 <= 1.2) }' \
  || { echo "work-counter gate: psl.alloc_mwords = $(metric psl.alloc_mwords) exceeds 1.2" >&2; exit 1; }
rm -rf "$SUITE_DIR" "$SUITE_OUT"

echo "== bench smoke (e1 + incr + par) =="
# From a scratch directory, so a run can leave nothing in the checkout.
# e1 fails unless both engines remove exactly the paper's fact (5);
# incr fails unless every incremental resolve equals a fresh one and a
# one-fact edit re-resolves faster than a fresh resolve; par fails
# unless jobs=4 grounds the same closure rounds, rule instances and
# joined rows as jobs=1, and times the speedup only on a host with at
# least two cores per job (skipped otherwise, with the reason printed).
SMOKE_DIR=$(mktemp -d) BENCH=$PWD/_build/default/bench/main.exe
(cd "$SMOKE_DIR" && "$BENCH" --smoke e1 incr par)
[ -z "$(ls -A "$SMOKE_DIR")" ] \
  || { echo "bench smoke wrote files into its working directory" >&2; exit 1; }
rmdir "$SMOKE_DIR"

echo "CI OK"
