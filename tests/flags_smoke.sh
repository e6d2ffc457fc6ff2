#!/usr/bin/env bash
# Flag-parsing smoke test for csj_tool and csj_serve: a numeric flag must
# parse as a whole or the command exits 2 before doing any work.
#
#   flags_smoke.sh /path/to/csj_tool /path/to/csj_serve
set -u

TOOL=$1
SERVE=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/csj_flags.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect CODE CMD...: runs CMD and checks its exit code.
expect() {
  local want=$1 code
  shift
  "$@" >/dev/null 2>err.txt
  code=$?
  [ "$code" -eq "$want" ] \
    || fail "$* exited $code (want $want): $(cat err.txt)"
}

"$TOOL" generate --kind uniform --n 500 --seed 3 --out pts.txt >/dev/null \
  || fail "generate"
JOIN=(join --points pts.txt --algo ssj --out out.txt)

# Well-formed numbers still run.
expect 0 "$TOOL" "${JOIN[@]}" --eps 0.02 --mem-budget 1000000000 --threads 2

# A number with trailing characters, in any numeric flag, is rejected.
expect 2 "$TOOL" "${JOIN[@]}" --eps 0.02 --mem-budget 1e9
expect 2 "$TOOL" "${JOIN[@]}" --eps 0.02x
expect 2 "$TOOL" "${JOIN[@]}" --eps 0.02 --threads 2x
expect 2 "$TOOL" "${JOIN[@]}" --eps 0.02 --g ten
expect 2 "$TOOL" "${JOIN[@]}" --eps 0.02 --deadline-ms 99999999999999999999
expect 2 "$TOOL" generate --kind uniform --n 5k --out more.txt

# The client parses its flags, --center included, before it connects.
QUERY=(query --socket "$WORK/none.sock" --dataset d)
expect 2 "$SERVE" "${QUERY[@]}" --op range --eps 0.1 --center 0.5,0.5x
expect 2 "$SERVE" "${QUERY[@]}" --op range --eps 0.1 --center 0.5,
expect 2 "$SERVE" "${QUERY[@]}" --eps 0.1 --repeat 2x

echo "OK: malformed numeric flags exit 2"
