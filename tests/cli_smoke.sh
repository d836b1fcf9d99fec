#!/bin/sh
# End-to-end smoke test of the lahar_cli binary.
#
#   cli_smoke.sh LAHAR_CLI WORKDIR
#
# 1. --gen writes the demo database.
# 2. For one query per exact class (Regular, Extended Regular, Safe), the
#    batch run `lahar_cli QUERY DB` and the runtime replay
#    `lahar_cli --serve DB QUERY` print the same per-tick values.
# 3. `--serve --port 0 --checkpoint-path F DB` starts a TCP server; the port
#    is read from its "listening on HOST:PORT" line, `--connect HOST:PORT
#    --stats` prints the stats JSON, and SIGTERM makes the server exit 0
#    with F written.
set -u

CLI=$1
DIR=$2
rm -rf "$DIR"
mkdir -p "$DIR" || exit 1
SERVER_PID=
trap '[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$CLI" --gen "$DIR/demo.db" >/dev/null || fail "--gen"

# Per-tick rows ("t p"); headers, comments and stats lines never match.
rows() {
  grep -E '^[0-9]+ [0-9.]+$'
}

for q in "At('tag1', l : CoffeeRoom(l))" \
         "At(x, l1 : NotRoom(l1)); At(x, l2 : CoffeeRoom(l2))" \
         "At(p, l1); At(p, l2); At(q, l3)"; do
  "$CLI" "$q" "$DIR/demo.db" >"$DIR/batch.out" || fail "batch run of $q"
  "$CLI" --serve --threads 2 "$DIR/demo.db" "$q" >"$DIR/serve.out" ||
    fail "--serve replay of $q"
  rows <"$DIR/batch.out" >"$DIR/batch.rows"
  rows <"$DIR/serve.out" >"$DIR/serve.rows"
  [ -s "$DIR/batch.rows" ] || fail "no per-tick rows for $q"
  cmp -s "$DIR/batch.rows" "$DIR/serve.rows" ||
    fail "batch and --serve disagree on $q"
done

"$CLI" --serve --port 0 --threads 2 --checkpoint-path "$DIR/final.ckpt" \
  "$DIR/demo.db" >"$DIR/server.out" 2>"$DIR/server.err" &
SERVER_PID=$!
ENDPOINT=
i=0
while [ $i -lt 100 ]; do
  ENDPOINT=$(sed -n 's/^listening on \([^ ]*\)$/\1/p' "$DIR/server.out")
  [ -n "$ENDPOINT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited early"
  sleep 0.1
  i=$((i + 1))
done
[ -n "$ENDPOINT" ] || fail "server never printed 'listening on'"

"$CLI" --connect "$ENDPOINT" --stats >"$DIR/stats.json" ||
  fail "--connect --stats"
grep -q '^{.*}$' "$DIR/stats.json" || fail "--stats did not print JSON"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
STATUS=$?
SERVER_PID=
[ "$STATUS" -eq 0 ] || fail "server exited with $STATUS after SIGTERM"
[ -s "$DIR/final.ckpt" ] || fail "no final checkpoint written"
echo "lahar_cli smoke: ok"
