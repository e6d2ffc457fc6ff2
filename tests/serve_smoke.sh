#!/usr/bin/env bash
# End-to-end smoke test for the csj_serve daemon.
#
# Drives the *real binaries* through the serving lifecycle the in-process
# tests cannot reach: daemon start-up, concurrent scripted clients, a
# mid-stream disconnect (`query | head`), per-query deadline and budget
# exits, then SIGTERM — which must drain in-flight queries, print the drain
# line, exit 0, and leave no socket file or conversion temp files behind.
# Usage:
#
#   serve_smoke.sh /path/to/csj_tool /path/to/csj_serve
set -u

TOOL=$1
SERVE=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/csj_serve_smoke.XXXXXX")
trap '{ [ -n "$SERVER_PID" ] && kill "$SERVER_PID"; rm -rf "$WORK"; } 2>/dev/null || true' EXIT
cd "$WORK"
SERVER_PID=

fail() { echo "FAIL: $*" >&2; exit 1; }

"$TOOL" generate --kind clusters --n 20000 --seed 11 --out pts.txt \
  >/dev/null || fail "generate"

# References the served responses must match byte-for-byte.
"$TOOL" join --points pts.txt --algo csj --eps 0.02 --out ref_csj.txt \
  --output-format text >/dev/null || fail "reference csj join"
"$TOOL" join --points pts.txt --algo ssj --eps 0.02 --out ref_ssj.txt \
  --output-format text >/dev/null || fail "reference ssj join"
"$TOOL" join --points pts.txt --algo csj --eps 0.02 --out ref_csj.bin \
  --output-format binary >/dev/null || fail "reference binary join"
# At this eps the planner resolves `auto` to csj with threads: 4.
"$TOOL" join --points pts.txt --algo auto --eps 0.2 --out ref_auto.txt \
  >/dev/null || fail "reference auto join"
# Both tools plan `auto` against the same tree-order sample. At these eps a
# differently drawn sample resolves other knobs: ssj vs csj(4) at 0.00085,
# csj(10) vs csj(16) at 0.0063.
for EPS in 0.00085 0.0063; do
  "$TOOL" join --points pts.txt --algo auto --eps "$EPS" \
    --out "ref_auto_$EPS.txt" >/dev/null || fail "reference auto join $EPS"
done

# --- Daemon start-up --------------------------------------------------------
"$SERVE" serve --datasets pts=pts.txt --socket csj.sock --workers 4 \
  > serve.log 2>&1 &
SERVER_PID=$!
for _ in $(seq 200); do
  [ -S csj.sock ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat serve.log >&2; fail "daemon died on start-up"; }
  sleep 0.05
done
[ -S csj.sock ] || fail "daemon never bound its socket"

query() { "$SERVE" query --socket csj.sock "$@"; }

# --- Concurrent clients, byte-identical responses ---------------------------
query --dataset pts --algo csj --eps 0.02 --out got1.txt 2>/dev/null &
P1=$!
query --dataset pts --algo ssj --eps 0.02 --out got2.txt 2>/dev/null &
P2=$!
query --dataset pts --algo csj --eps 0.02 --output-format binary \
  --out got3.bin 2>/dev/null &
P3=$!
query --dataset pts --algo csj --eps 0.02 --out got4.txt 2>/dev/null &
P4=$!
wait "$P1" || fail "concurrent query 1 failed"
wait "$P2" || fail "concurrent query 2 failed"
wait "$P3" || fail "concurrent query 3 failed"
wait "$P4" || fail "concurrent query 4 failed"
cmp -s ref_csj.txt got1.txt || fail "served csj text differs from one-shot"
cmp -s ref_ssj.txt got2.txt || fail "served ssj text differs from one-shot"
cmp -s ref_csj.bin got3.bin || fail "served binary differs from one-shot"
cmp -s ref_csj.txt got4.txt || fail "served csj text (2nd client) differs"

# --- auto: the served plan runs on 4 threads and writes the one-shot bytes --
query --dataset pts --algo auto --eps 0.2 --out got_auto.txt 2>auto.trailer \
  || fail "served auto query failed"
grep -q '"threads":4' auto.trailer || fail "served auto plan is not 4 threads"
cmp -s ref_auto.txt got_auto.txt || fail "served auto differs from one-shot"
for EPS in 0.00085 0.0063; do
  query --dataset pts --algo auto --eps "$EPS" --out "got_auto_$EPS.txt" \
    2>/dev/null || fail "served auto query $EPS failed"
  cmp -s "ref_auto_$EPS.txt" "got_auto_$EPS.txt" \
    || fail "served auto differs from one-shot at eps $EPS"
done

# --- ping / list ------------------------------------------------------------
query --op ping | grep -q '"ok":true' || fail "ping"
query --op list | grep -q '"pts"' || fail "list does not mention the dataset"

# --- Mid-stream disconnect: | head cancels just that query ------------------
query --dataset pts --algo csj --eps 0.05 2>/dev/null | head -c 4096 >/dev/null
DISCONNECT_CODE=${PIPESTATUS[0]}
[ "$DISCONNECT_CODE" -eq 3 ] \
  || fail "mid-stream disconnect: exit=$DISCONNECT_CODE (want 3)"

# --- Per-query deadline and budget: governance exit codes -------------------
query --dataset pts --algo csj --eps 0.05 --deadline-ms 1 >/dev/null 2>&1
DEADLINE_CODE=$?
query --dataset pts --algo csj --eps 0.02 --mem-budget 4096 >/dev/null 2>&1
BUDGET_CODE=$?
[ "$DEADLINE_CODE" -eq 4 ] || fail "deadline query: exit=$DEADLINE_CODE (want 4)"
[ "$BUDGET_CODE" -eq 5 ] || fail "budget query: exit=$BUDGET_CODE (want 5)"

# A governed neighbor must not have poisoned the shared tree: a normal query
# still returns the reference bytes.
query --dataset pts --algo csj --eps 0.02 --out got5.txt 2>/dev/null \
  || fail "query after governed neighbors"
cmp -s ref_csj.txt got5.txt || fail "post-governance response differs"

# --- SIGTERM drains an in-flight query, then the daemon exits 0 -------------
query --dataset pts --algo csj --eps 0.02 --out got6.txt 2>/dev/null &
INFLIGHT=$!
sleep 0.05
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_CODE=$?
SERVER_PID=
[ "$SERVER_CODE" -eq 0 ] || fail "daemon exit=$SERVER_CODE after SIGTERM (want 0)"
grep -q "drained:" serve.log || fail "daemon did not report a drain"
if wait "$INFLIGHT"; then
  cmp -s ref_csj.txt got6.txt || fail "drained in-flight response differs"
else
  # The query may have raced ahead of the accept; losing it to the drain
  # would be a real failure only if it was admitted, which `served` covers.
  grep -q "served" serve.log || fail "in-flight query lost during drain"
fi

# --- Nothing left behind ----------------------------------------------------
[ -S csj.sock ] && fail "socket file survived the drain"
LEAKED=$(ls pts.txt.paged.tmp.* 2>/dev/null || true)
[ -z "$LEAKED" ] && LEAKED=$(ls ./*.paged.tmp.* 2>/dev/null || true)
[ -z "$LEAKED" ] || fail "leaked conversion temp files: $LEAKED"

echo "OK: concurrent serving, disconnect/deadline/budget isolation, SIGTERM drain"
