#!/usr/bin/env bash
# Smoke test for the linrecd socket front: start the daemon on an
# ephemeral port, drive a transitive-closure workload over TCP from two
# clients (second LOAD must be a program-registry hit), then SHUTDOWN and
# assert a clean exit.
#
# Usage: bench/linrecd_smoke.sh [path/to/linrecd]

set -euo pipefail

LINRECD="${1:-build/tools/linrecd}"
if [ ! -x "$LINRECD" ]; then
  echo "FAIL: $LINRECD not found or not executable" >&2
  exit 1
fi

WORKDIR="$(mktemp -d)"
SERVER_LOG="$WORKDIR/server.log"
trap 'kill "$SERVER_PID" ${FAULT_PID:-} 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

"$LINRECD" --port 0 >"$SERVER_LOG" 2>&1 &
SERVER_PID=$!

# Wait for the LISTENING line (the daemon prints it once bound).
PORT=""
for _ in $(seq 1 50); do
  PORT="$(awk '/^LISTENING /{print $2; exit}' "$SERVER_LOG" 2>/dev/null || true)"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: linrecd died before listening:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "FAIL: no LISTENING line within 5s" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
echo "linrecd listening on port $PORT"

# One TCP client: LOAD the chain-of-5 TC program, run point and full
# queries, check STATS. `?- tc(1, Y).` has 4 answers; tc has 10 rows.
tcp_client() {
  python3 - "$PORT" <<'PY'
import socket, sys

port = int(sys.argv[1])
script = (
    "PING\n"
    "LOAD\n"
    "edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
    "END\n"
    "?- tc(1, Y).\n"
    "?- tc(X, Y).\n"
    "STATS\n"
    "QUIT\n"
)
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(script.encode())
data = b""
while b"OK bye\n" not in data:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
reply = data.decode()
for needle in ("OK pong", "OK loaded rules=2 facts=4 queries=0",
               "RESULT tc/2 rows=4 truncated=0",
               "RESULT tc/2 rows=10 truncated=0", "OK stats", "OK bye"):
    if needle not in reply:
        sys.exit(f"FAIL: missing {needle!r} in reply:\n{reply}")
print(reply, end="")
PY
}

echo "--- client 1 (compiles the program) ---"
tcp_client
echo "--- client 2 (must hit the program registry) ---"
OUT2="$(tcp_client)"
echo "$OUT2"
if ! grep -q "program_hits=1" <<<"$OUT2"; then
  echo "FAIL: second LOAD was not a program-registry hit" >&2
  exit 1
fi

# SHUTDOWN from a third connection; daemon must exit 0 by itself.
python3 - "$PORT" <<'PY'
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
s.sendall(b"SHUTDOWN\n")
data = b""
while b"OK shutdown\n" not in data:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
if b"OK shutdown" not in data:
    sys.exit("FAIL: no OK shutdown reply")
PY

shutdown_daemon() {
  # SHUTDOWN the daemon on $1 and wait for a clean exit of pid $2.
  python3 - "$1" <<'PY'
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
s.sendall(b"SHUTDOWN\n")
data = b""
while b"OK shutdown\n" not in data:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
PY
  local code=0
  for _ in $(seq 1 50); do
    if ! kill -0 "$2" 2>/dev/null; then
      wait "$2" || code=$?
      break
    fi
    sleep 0.1
  done
  if kill -0 "$2" 2>/dev/null; then
    echo "FAIL: daemon still running 5s after SHUTDOWN" >&2
    return 1
  fi
  return "$code"
}

start_daemon() {
  # Start linrecd with extra flags ($@); sets FAULT_PID and FPORT globals.
  local log="$1"
  shift
  "$LINRECD" --port 0 "$@" >"$log" 2>&1 &
  FAULT_PID=$!
  FPORT=""
  for _ in $(seq 1 50); do
    FPORT="$(awk '/^LISTENING /{print $2; exit}' "$log" 2>/dev/null || true)"
    [ -n "$FPORT" ] && break
    if ! kill -0 "$FAULT_PID" 2>/dev/null; then
      echo "FAIL: daemon died before listening:" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  if [ -z "$FPORT" ]; then
    echo "FAIL: no LISTENING line within 5s" >&2
    cat "$log" >&2
    return 1
  fi
}

EXIT_CODE=0
for _ in $(seq 1 50); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    wait "$SERVER_PID" || EXIT_CODE=$?
    break
  fi
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: linrecd still running 5s after SHUTDOWN" >&2
  exit 1
fi
if [ "$EXIT_CODE" -ne 0 ]; then
  echo "FAIL: linrecd exited with $EXIT_CODE" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
if ! grep -q "SHUTDOWN complete" "$SERVER_LOG"; then
  echo "FAIL: no 'SHUTDOWN complete' in server log" >&2
  cat "$SERVER_LOG" >&2
  exit 1
fi
echo "PASS: linrecd smoke (port $PORT, clean shutdown)"

# --- fault pass 1: injected socket-write failure -------------------------
# The first reply write drops the connection (as if the peer vanished);
# the daemon must survive and serve the next client normally.
echo "--- fault pass: socket_write:1 ---"
FAULT_LOG="$WORKDIR/fault_socket.log"
start_daemon "$FAULT_LOG" --fault socket_write:1
python3 - "$FPORT" <<'PY'
import socket, sys
port = int(sys.argv[1])
# Victim: the injected fault eats its reply; connection just closes.
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(b"PING\n")
data = b""
try:
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
except socket.timeout:
    sys.exit("FAIL: victim connection hung instead of closing")
s.close()
if b"OK pong" in data:
    sys.exit("FAIL: injected socket fault never fired")
# Survivor: daemon still serves after dropping the victim.
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(b"PING\nQUIT\n")
data = b""
while b"OK bye\n" not in data:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
if b"OK pong" not in data:
    sys.exit(f"FAIL: daemon did not serve after socket fault:\n{data!r}")
print("socket-write fault: victim dropped, daemon survived")
PY
shutdown_daemon "$FPORT" "$FAULT_PID" || { cat "$FAULT_LOG" >&2; exit 1; }

# --- fault pass 2: allocation failure under a tiny query budget ----------
# A 1-byte per-query budget refuses the first pool growth, aborting the
# closure with a typed error; the same session then lifts its budget and
# the query succeeds — no daemon restart needed.
echo "--- fault pass: query memory budget ---"
FAULT_LOG="$WORKDIR/fault_budget.log"
start_daemon "$FAULT_LOG" --query-memory-budget 1
python3 - "$FPORT" <<'PY'
import socket, sys
port = int(sys.argv[1])
script = (
    "LOAD\n"
    "edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
    "END\n"
    "?- tc(X, Y).\n"
    "SET memory_budget 0\n"
    "?- tc(X, Y).\n"
    "QUIT\n"
)
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(script.encode())
data = b""
while b"OK bye\n" not in data:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
reply = data.decode()
for needle in ("ERR ResourceExhausted",
               "OK set memory_budget=0",
               "RESULT tc/2 rows=10 truncated=0"):
    if needle not in reply:
        sys.exit(f"FAIL: missing {needle!r} in reply:\n{reply}")
print("budget fault: typed ERR ResourceExhausted, recovery without restart")
PY
shutdown_daemon "$FPORT" "$FAULT_PID" || { cat "$FAULT_LOG" >&2; exit 1; }

# --- fault pass 3: mid-Apply abort during incremental maintenance --------
# An injected fault inside Engine::Apply aborts the first INSERT after the
# view is materialized. The view must roll back to its exact pre-INSERT
# bytes (same rows, same order), and the retried INSERT (fault now spent)
# must extend it incrementally — no daemon restart, no recompute.
echo "--- fault pass: ivm_apply:1 ---"
FAULT_LOG="$WORKDIR/fault_ivm.log"
start_daemon "$FAULT_LOG" --fault ivm_apply:1
python3 - "$FPORT" <<'PY'
import socket, sys
port = int(sys.argv[1])
script = (
    "LOAD\n"
    "edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).\n"
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n"
    "END\n"
    "?- tc(X, Y).\n"
    "INSERT edge(5, 6).\n"
    "?- tc(X, Y).\n"
    "INSERT edge(5, 6).\n"
    "?- tc(X, Y).\n"
    "STATS\n"
    "QUIT\n"
)
s = socket.create_connection(("127.0.0.1", port), timeout=10)
s.sendall(script.encode())
data = b""
while b"OK bye\n" not in data:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
reply = data.decode()
lines = reply.splitlines()
blocks = []
for i, line in enumerate(lines):
    if line.startswith("RESULT "):
        j = i + 1
        while j < len(lines) and lines[j] != ".":
            j += 1
        blocks.append(lines[i:j])
if len(blocks) != 3:
    sys.exit(f"FAIL: expected 3 RESULT blocks, got {len(blocks)}:\n{reply}")
if blocks[0][0] != "RESULT tc/2 rows=10 truncated=0":
    sys.exit(f"FAIL: unexpected first block header {blocks[0][0]!r}")
if "ERR Internal" not in reply or "ivm_apply" not in reply:
    sys.exit(f"FAIL: injected ivm_apply fault never surfaced:\n{reply}")
if blocks[1] != blocks[0]:
    sys.exit("FAIL: view not byte-identical after aborted INSERT:\n"
             + "\n".join(blocks[0]) + "\n--- vs ---\n" + "\n".join(blocks[1]))
if "OK insert applied=1 views=1 added=5" not in reply:
    sys.exit(f"FAIL: retried INSERT did not extend the view:\n{reply}")
if blocks[2][0] != "RESULT tc/2 rows=15 truncated=0":
    sys.exit(f"FAIL: unexpected final block header {blocks[2][0]!r}")
if "ivm_applied=1" not in reply:
    sys.exit(f"FAIL: STATS missing ivm_applied=1:\n{reply}")
print("ivm_apply fault: aborted INSERT rolled back byte-identical, "
      "retry extended the view")
PY
shutdown_daemon "$FPORT" "$FAULT_PID" || { cat "$FAULT_LOG" >&2; exit 1; }

# --- pass 4: finished connection threads are reaped ----------------------
# linrecd serves each connection on its own thread. A finished thread's
# stack stays mapped until the thread is joined, so 300 sequential
# sessions must leave the daemon's threads (/proc/<pid>/task) and memory
# mappings (/proc/<pid>/maps) where they were after session 10. An exited
# thread leaves /proc/<pid>/task at once, so the mappings are what show
# an unjoined stack (two per thread).
echo "--- reaping pass: 300 sequential sessions ---"
REAP_LOG="$WORKDIR/reap.log"
start_daemon "$REAP_LOG"
python3 - "$FPORT" "$FAULT_PID" <<'PY'
import os, socket, sys, time
port, pid = int(sys.argv[1]), int(sys.argv[2])

def session():
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    s.sendall(b"PING\nQUIT\n")
    data = b""
    while b"OK bye\n" not in data:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    if b"OK pong" not in data:
        sys.exit(f"FAIL: session got {data!r}")

def settled_counts():
    # Let the last session's thread finish, then connect once more: the
    # accept joins every finished thread, leaving only this probe's.
    time.sleep(0.2)
    session()
    time.sleep(0.2)
    tasks = len(os.listdir(f"/proc/{pid}/task"))
    with open(f"/proc/{pid}/maps") as f:
        maps = sum(1 for _ in f)
    return tasks, maps

for i in range(1, 301):
    session()
    if i == 10:
        tasks10, maps10 = settled_counts()
tasks300, maps300 = settled_counts()
print(f"after session 10: {tasks10} threads, {maps10} mappings; "
      f"after session 300: {tasks300} threads, {maps300} mappings")
if tasks300 > tasks10:
    sys.exit("FAIL: the daemon's thread count grew with sessions served")
# Slack of one thread's two mappings for a session whose thread had not
# yet finished when the probe connected.
if maps300 > maps10 + 2:
    sys.exit("FAIL: finished connection threads are not joined "
             f"({maps300 - maps10} new mappings over 290 sessions)")
PY
shutdown_daemon "$FPORT" "$FAULT_PID" || { cat "$REAP_LOG" >&2; exit 1; }

# --- literal pass: an integer past int64 is a typed error ----------------
# The literal must reply ERR ParseError on its connection, which then
# answers PING; a second client is served by the same daemon.
echo "--- literal pass: out-of-range integer ---"
LITERAL_LOG="$WORKDIR/literal.log"
start_daemon "$LITERAL_LOG"
python3 - "$FPORT" <<'PY'
import socket, sys
port = int(sys.argv[1])

def converse(script):
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    s.sendall(script)
    data = b""
    while b"OK bye\n" not in data:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    return data.decode().splitlines()

lines = converse(b"FACT e(99999999999999999999, 1).\nPING\nQUIT\n")
if (len(lines) != 3 or not lines[0].startswith("ERR ParseError")
        or lines[1:] != ["OK pong", "OK bye"]):
    sys.exit(f"FAIL: out-of-range literal got {lines!r}")
lines = converse(b"PING\nQUIT\n")
if lines != ["OK pong", "OK bye"]:
    sys.exit(f"FAIL: second client got {lines!r}")
print("literal pass: ERR ParseError, the session and the daemon kept serving")
PY
shutdown_daemon "$FPORT" "$FAULT_PID" || { cat "$LITERAL_LOG" >&2; exit 1; }

# --- deadline pass: a blown deadline stops a round from inside -----------
# The first round of tc over a complete 300-node graph meets about 27M
# candidate rows, so a 50 ms deadline expires inside it. The goal must
# reply ERR DeadlineExceeded in under a third of the time the same goal
# takes without a deadline (run last on the same connection); the
# connection must keep answering, and STATS must count the goal once.
echo "--- deadline pass: a deadline inside one round ---"
DEADLINE_LOG="$WORKDIR/deadline.log"
start_daemon "$DEADLINE_LOG"
python3 - "$FPORT" <<'PY'
import socket, sys, time
port = int(sys.argv[1])
s = socket.create_connection(("127.0.0.1", port), timeout=60)
replies = s.makefile("rb")

def read_line():
    line = replies.readline()
    if not line:
        sys.exit("FAIL: the daemon closed the connection")
    return line.decode().rstrip("\n")

def ask(text):
    """Sends `text` and reads one reply; returns its lines and seconds."""
    start = time.monotonic()
    s.sendall(text.encode())
    lines = [read_line()]
    if lines[0].startswith("RESULT ") or lines[0] == "OK stats":
        while lines[-1] != ".":
            lines.append(read_line())
    return lines, time.monotonic() - start

n = 300
edges = "".join(f"edge({x}, {y}).\n"
                for x in range(n) for y in range(n) if x != y)
lines, _ = ask("LOAD\n" + edges + "tc(X, Y) :- edge(X, Y).\n"
               "tc(X, Y) :- tc(X, Z), edge(Z, Y).\nEND\n")
if lines != [f"OK loaded rules=2 facts={n * (n - 1)} queries=0"]:
    sys.exit(f"FAIL: LOAD got {lines!r}")
ask("SET timeout_ms 50\n")
lines, bounded = ask("?- tc(X, Y).\n")
if not lines[0].startswith("ERR DeadlineExceeded"):
    sys.exit(f"FAIL: the 50 ms goal got {lines[0]!r}")
lines, _ = ask("SET timeout_ms -1\n")
lines += ask("PING\n")[0]
if lines != ["OK set timeout_ms=-1", "OK pong"]:
    sys.exit(f"FAIL: after the deadline the connection got {lines!r}")
lines, _ = ask("STATS\n")
if "queries_timed_out=1" not in lines:
    sys.exit(f"FAIL: STATS does not count the timed-out goal:\n{lines!r}")
lines, unbounded = ask("?- tc(X, Y).\n")
if lines[0] != f"RESULT tc/2 rows={n * n} truncated=0":
    sys.exit(f"FAIL: the unbounded goal got {lines[0]!r}")
print(f"deadline pass: ERR DeadlineExceeded after {bounded:.3f} s, "
      f"the unbounded goal took {unbounded:.3f} s")
if bounded * 3 > unbounded:
    sys.exit("FAIL: the deadline did not stop the round from inside")
PY
shutdown_daemon "$FPORT" "$FAULT_PID" || { cat "$DEADLINE_LOG" >&2; exit 1; }

# --- flag pass: malformed values are rejected before binding -------------
# Every numeric flag is parsed as a whole string against its field's range
# (--timeout-ms, --max-rows and --query-memory-budget through the SET
# validator). A bad value must exit 2 with the usage, never start serving
# with a silently substituted 0 or a wrapped-around huge number.
echo "--- flag pass: malformed values ---"
FLAG_LOG="$WORKDIR/flags.log"
for bad in "--timeout-ms abc" "--timeout-ms 99999999999" "--max-rows -1" \
           "--max-rows 1e6" "--max-pending x" "--max-pending 0" \
           "--workers abc" "--workers -2" "--port 99999999999999999999" \
           "--memory-budget 12x" "--query-memory-budget -5" \
           "--retry-after 1.5" \
           "--fault pool_growth:abc" "--fault-seed x:10" "--fault bogus:1"; do
  STATUS=0
  # shellcheck disable=SC2086  # split "<flag> <value>" into two words
  timeout 5 "$LINRECD" --port 0 $bad >"$FLAG_LOG" 2>&1 </dev/null || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "FAIL: linrecd $bad exited with $STATUS, expected 2" >&2
    cat "$FLAG_LOG" >&2
    exit 1
  fi
  if grep -q '^LISTENING' "$FLAG_LOG"; then
    echo "FAIL: linrecd $bad bound a port before rejecting the value" >&2
    exit 1
  fi
  if ! grep -q '^usage:' "$FLAG_LOG"; then
    echo "FAIL: linrecd $bad printed no usage" >&2
    cat "$FLAG_LOG" >&2
    exit 1
  fi
done
# The unknown-site diagnostic lists every fault site, ivm_apply included.
if ! grep -q "ivm_apply" "$FLAG_LOG"; then
  echo "FAIL: unknown-site diagnostic omits ivm_apply:" >&2
  cat "$FLAG_LOG" >&2
  exit 1
fi
echo "flag pass: every malformed value exited 2 before listening"

echo "PASS: linrecd fault-injection smoke"
