#!/usr/bin/env bash
# Kill-and-resume smoke test for csj_tool's checkpointed join.
#
# Drives the *real binary* through the failure modes the in-process tests
# cannot reach: a graceful SIGTERM (final checkpoint, exit 3) and a hard
# SIGKILL (no chance to react; only the periodic checkpoints survive). After
# each, `--resume 1` must finish the join and the output must be
# byte-identical to a plain run without checkpoint flags — also when the
# resume uses another thread count: the task list depends only on the data
# and eps. Usage:
#
#   checkpoint_resume_smoke.sh /path/to/csj_tool
set -u

TOOL=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/csj_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

PLAIN_ARGS=(join --algo csj --eps 0.012 --points pts.txt
            --output-format binary)
JOIN_ARGS=("${PLAIN_ARGS[@]}" --checkpoint-interval 2)

fail() { echo "FAIL: $*" >&2; exit 1; }

"$TOOL" generate --kind clusters --n 40000 --out pts.txt --seed 11 \
  >/dev/null || fail "generate"

# The reference: a plain run, no checkpoint flags, no manifest.
"$TOOL" "${PLAIN_ARGS[@]}" --out ref.bin >/dev/null || fail "reference run"
[ -e ref.bin.ckpt ] && fail "a plain run wrote a manifest"

# Threads only set the number of workers: the same bytes, still no manifest.
"$TOOL" "${PLAIN_ARGS[@]}" --threads 4 --out threads.bin >/dev/null \
  || fail "4-thread plain run"
[ -e threads.bin.ckpt ] && fail "a plain 4-thread run wrote a manifest"
cmp -s ref.bin threads.bin || fail "4-thread output differs from the reference"

# An uninterrupted checkpointed run writes the same bytes and removes its
# manifest.
"$TOOL" "${JOIN_ARGS[@]}" --out ckpt.bin >/dev/null || fail "checkpointed run"
[ -e ckpt.bin.ckpt ] && fail "manifest survived a completed run"
cmp -s ref.bin ckpt.bin || fail "checkpointed output differs from the reference"

# Interrupts a backgrounded join with $1 (TERM|KILL) once the output file
# shows progress, then asserts on the tool's exit code. Arguments after the
# third are extra join flags. Retries in case the run finishes before the
# signal lands (slow machines, fast disks).
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
  echo "SKIP: could not interrupt a run with SIG$sig after 5 attempts" >&2
  exit 0
}

# --- Graceful SIGTERM: final checkpoint, distinct exit code -----------------
interrupt_with TERM term.bin 3
"$TOOL" "${JOIN_ARGS[@]}" --out term.bin --resume 1 >/dev/null \
  || fail "resume after SIGTERM"
cmp -s ref.bin term.bin || fail "SIGTERM-resumed output differs from reference"
[ -e term.bin.ckpt ] && fail "manifest survived the resumed run"

# --- Hard SIGKILL: crash recovery from the last periodic checkpoint ---------
# 128+9: the shell reports a SIGKILLed child as exit 137.
interrupt_with KILL kill.bin 137
"$TOOL" "${JOIN_ARGS[@]}" --out kill.bin --resume 1 >/dev/null \
  || fail "resume after SIGKILL"
cmp -s ref.bin kill.bin || fail "SIGKILL-resumed output differs from reference"

# --- Deadline: exit 4, then resume to the same bytes ------------------------
rm -f dl.bin dl.bin.ckpt
"$TOOL" "${JOIN_ARGS[@]}" --out dl.bin --deadline-ms 80 >/dev/null 2>&1
code=$?
if [ "$code" -eq 4 ]; then
  "$TOOL" "${JOIN_ARGS[@]}" --out dl.bin --resume 1 >/dev/null \
    || fail "resume after deadline"
  cmp -s ref.bin dl.bin || fail "deadline-resumed output differs"
elif [ "$code" -ne 0 ]; then
  fail "deadline run: unexpected exit $code"
fi

# --- SIGKILL at 4 threads, resume at 2: the same task list -------------------
interrupt_with KILL rethread.bin 137 --threads 4
"$TOOL" "${JOIN_ARGS[@]}" --out rethread.bin --threads 2 --resume 1 \
  >/dev/null || fail "resume at another thread count"
cmp -s ref.bin rethread.bin \
  || fail "output resumed at 2 threads differs from the 1-thread reference"

echo "OK: SIGTERM, SIGKILL, deadline and cross-thread-count interruptions all resumed byte-identically"
