#!/usr/bin/env bash
# Kill-and-resume smoke test for csj_tool's checkpointed join.
#
# Drives the *real binary* through the failure modes the in-process tests
# cannot reach: a graceful SIGTERM (final checkpoint, exit 3) and a hard
# SIGKILL (no chance to react; only the periodic checkpoints survive). After
# each, `--resume 1` must finish the join and the output must be
# byte-identical to a plain run without checkpoint flags — also when the
# resume uses another thread count: the task list depends only on the data
# and eps. Every case runs for the binary and the text format. Usage:
#
#   checkpoint_resume_smoke.sh /path/to/csj_tool
set -u

TOOL=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/csj_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

"$TOOL" generate --kind clusters --n 40000 --out pts.txt --seed 11 \
  >/dev/null || fail "generate"

# Interrupts a backgrounded join with $1 (TERM|KILL) once the output file
# shows progress, then asserts on the tool's exit code. Arguments after the
# third are extra join flags. Retries in case the run finishes before the
# signal lands (slow machines, fast disks); returns 1 if no attempt could be
# interrupted.
interrupt_with() {
  local sig=$1 out=$2 want_code=$3 attempt
  shift 3
  for attempt in 1 2 3 4 5; do
    rm -f "$out" "$out.ckpt"
    "$TOOL" "${JOIN_ARGS[@]}" "$@" --out "$out" >/dev/null 2>&1 &
    local pid=$!
    # Wait until the join has demonstrably started writing AND committed a
    # first checkpoint — a SIGKILL before any manifest exists has nothing to
    # resume from, by design.
    for _ in $(seq 200); do
      [ -s "$out" ] && [ -e "$out.ckpt" ] && break
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.01
    done
    kill "-$sig" "$pid" 2>/dev/null
    wait "$pid"
    local code=$?
    if [ "$code" -eq "$want_code" ] && [ -e "$out.ckpt" ]; then
      return 0
    fi
    if [ "$code" -eq 0 ]; then
      echo "note: run finished before SIG$sig landed; retrying" >&2
      continue
    fi
    fail "SIG$sig run: exit=$code (want $want_code), manifest $( [ -e "$out.ckpt" ] && echo present || echo missing )"
  done
  echo "SKIP: could not interrupt a $FORMAT run with SIG$sig after 5 attempts" >&2
  return 1
}

# Runs every case for one output format. Both formats checkpoint an open
# block: the committed prefix plus the block's payload in the manifest.
run_format() {
  FORMAT=$1
  local ext=$2
  PLAIN_ARGS=(join --algo csj --eps 0.012 --points pts.txt
              --output-format "$FORMAT")
  JOIN_ARGS=("${PLAIN_ARGS[@]}" --checkpoint-interval 2)
  local ref=ref.$ext

  # The reference: a plain run, no checkpoint flags, no manifest.
  "$TOOL" "${PLAIN_ARGS[@]}" --out "$ref" >/dev/null || fail "$FORMAT reference run"
  [ -e "$ref.ckpt" ] && fail "a plain $FORMAT run wrote a manifest"

  # Threads only set the number of workers: the same bytes, still no
  # manifest.
  "$TOOL" "${PLAIN_ARGS[@]}" --threads 4 --out "threads.$ext" >/dev/null \
    || fail "4-thread plain $FORMAT run"
  [ -e "threads.$ext.ckpt" ] && fail "a plain 4-thread run wrote a manifest"
  cmp -s "$ref" "threads.$ext" \
    || fail "4-thread $FORMAT output differs from the reference"

  # An uninterrupted checkpointed run writes the same bytes and removes its
  # manifest.
  "$TOOL" "${JOIN_ARGS[@]}" --out "ckpt.$ext" >/dev/null \
    || fail "checkpointed $FORMAT run"
  [ -e "ckpt.$ext.ckpt" ] && fail "manifest survived a completed run"
  cmp -s "$ref" "ckpt.$ext" \
    || fail "checkpointed $FORMAT output differs from the reference"

  # --- Graceful SIGTERM: final checkpoint, distinct exit code ---------------
  if interrupt_with TERM "term.$ext" 3; then
    "$TOOL" "${JOIN_ARGS[@]}" --out "term.$ext" --resume 1 >/dev/null \
      || fail "resume after SIGTERM ($FORMAT)"
    cmp -s "$ref" "term.$ext" \
      || fail "SIGTERM-resumed $FORMAT output differs from reference"
    [ -e "term.$ext.ckpt" ] && fail "manifest survived the resumed run"
  fi

  # --- Hard SIGKILL: crash recovery from the last periodic checkpoint -------
  # 128+9: the shell reports a SIGKILLed child as exit 137.
  if interrupt_with KILL "kill.$ext" 137; then
    "$TOOL" "${JOIN_ARGS[@]}" --out "kill.$ext" --resume 1 >/dev/null \
      || fail "resume after SIGKILL ($FORMAT)"
    cmp -s "$ref" "kill.$ext" \
      || fail "SIGKILL-resumed $FORMAT output differs from reference"
  fi

  # --- Deadline: exit 4, then resume to the same bytes ----------------------
  rm -f "dl.$ext" "dl.$ext.ckpt"
  "$TOOL" "${JOIN_ARGS[@]}" --out "dl.$ext" --deadline-ms 80 >/dev/null 2>&1
  local code=$?
  if [ "$code" -eq 4 ]; then
    "$TOOL" "${JOIN_ARGS[@]}" --out "dl.$ext" --resume 1 >/dev/null \
      || fail "resume after deadline ($FORMAT)"
    cmp -s "$ref" "dl.$ext" || fail "deadline-resumed $FORMAT output differs"
  elif [ "$code" -ne 0 ]; then
    fail "deadline $FORMAT run: unexpected exit $code"
  fi

  # --- SIGKILL at 4 threads, resume at 2: the same task list -----------------
  if interrupt_with KILL "rethread.$ext" 137 --threads 4; then
    "$TOOL" "${JOIN_ARGS[@]}" --out "rethread.$ext" --threads 2 --resume 1 \
      >/dev/null || fail "resume at another thread count ($FORMAT)"
    cmp -s "$ref" "rethread.$ext" \
      || fail "$FORMAT output resumed at 2 threads differs from the 1-thread reference"
  fi
}

run_format binary bin
run_format text txt

echo "OK: SIGTERM, SIGKILL, deadline and cross-thread-count interruptions all resumed byte-identically (binary and text)"
