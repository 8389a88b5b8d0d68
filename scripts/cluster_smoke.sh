#!/usr/bin/env bash
# cluster_smoke.sh — boot a real multi-OS-process EOV cluster, drive it with
# open-loop bursts from the sharpnet wire client (`sharpnet load
# -target-tps`, the one wire load generator), and assert every replica
# converges to bit-identical chain tip hashes and state fingerprints. Runs
# once per requested system. CI runs this as the cluster-smoke job; node
# logs land in $LOGDIR for artifact upload.
#
# Two shapes:
#   default   1 orderer + 2 peers and one burst, asserting convergence, an
#             achieved rate >=95% of the target, and merged stage traces
#             covering >=99% of the burst's committed txs.
#   CHAOS=1   3 Raft orderers + 2 peers on -data-dir stores; the Raft
#             leader is SIGKILLed mid-burst and restarted once a successor
#             leads, then the successor is killed and restarted the same
#             way. Between the two, peer1 is SIGKILLed too, and restarted on
#             its directory after the second leader kill. Asserts the
#             ledger accounts for every transaction acked committed, all
#             five nodes end bit-identical (the fault-tolerance contract),
#             and peer1 resumed from its store, not from block 1.
#
# Environment knobs:
#   SYSTEMS     systems to exercise            (default: "fabric# focc-l";
#               chaos uses the first one only)
#   WORKLOAD    registered scenario name (see `fabricsim -list-workloads`,
#               docs/workloads.md); every node installs its genesis and the
#               burst drives its generator     (default: msmallbank)
#   ACCOUNTS    the scenario's pool size       (default: 28)
#   TARGET_TPS  burst offered rate             (default: 150)
#   OL_DURATION burst length                   (default: 4s; chaos 8s — both
#               offer 500+ transactions at the default rate)
#   OL_WORKERS  burst submission workers       (default: 32)
#   PORT_BASE   first TCP port                 (default: 27050)
#   LOGDIR      where node logs go             (default: ./cluster-logs)
#   RESCUE      0 = boot every node with -rescue=false (default: 1, the
#               nodes' own default: post-order re-execution on)
#   CHAOS       1 = kill-the-leader failover   (default: 0)
set -euo pipefail

SYSTEMS=${SYSTEMS:-"fabric# focc-l"}
ACCOUNTS=${ACCOUNTS:-28}
WORKLOAD=${WORKLOAD:-msmallbank}
TARGET_TPS=${TARGET_TPS:-150}
OL_WORKERS=${OL_WORKERS:-32}
PORT_BASE=${PORT_BASE:-27050}
LOGDIR=${LOGDIR:-cluster-logs}
RESCUE=${RESCUE:-1}
CHAOS=${CHAOS:-0}
BIN=$(mktemp -d)

# fabricnode runs with rescue unless told otherwise; RESCUE=0 is the
# -rescue=false coverage (the paper's plain systems, cycle aborts and all).
RESCUE_FLAG=""
if [ "$RESCUE" != "1" ]; then
  RESCUE_FLAG="-rescue=false"
fi

if [ "$CHAOS" = "1" ]; then
  OL_DURATION=${OL_DURATION:-8s}
else
  OL_DURATION=${OL_DURATION:-4s}
fi

# Every node installs the scenario's genesis (identical cluster-wide), so
# the burst finds its account pool seeded at block 0.
WL_FLAGS="-workload $WORKLOAD -accounts $ACCOUNTS"

mkdir -p "$LOGDIR"
go build -o "$BIN" ./cmd/fabricnode ./cmd/sharpnet

PIDS=()
teardown() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${PIDS[@]:-}"; do
    wait "$pid" 2>/dev/null || true
  done
  PIDS=()
}
trap teardown EXIT

# ---------------------------------------------------------------------------
# Chaos shape: 3 Raft orderers + 2 peers, two leader kills mid-load.
# ---------------------------------------------------------------------------
if [ "$CHAOS" = "1" ]; then
  system=$(printf '%s' "$SYSTEMS" | awk '{print $1}')
  slug=chaos
  RAFT_DIR=$(mktemp -d)
  DATA_DIR=$(mktemp -d)
  C0="127.0.0.1:$PORT_BASE";      C1="127.0.0.1:$((PORT_BASE+1))"; C2="127.0.0.1:$((PORT_BASE+2))"
  R0="127.0.0.1:$((PORT_BASE+3))"; R1="127.0.0.1:$((PORT_BASE+4))"; R2="127.0.0.1:$((PORT_BASE+5))"
  P0="127.0.0.1:$((PORT_BASE+6))"; P1="127.0.0.1:$((PORT_BASE+7))"
  ORDS="$C0,$C1,$C2"
  PEERS="$P0,$P1"
  CLUSTER="$R0,$R1,$R2"
  REDIRECTS="$R0=$C0,$R1=$C1,$R2=$C2"
  declare -A ORD_PID=()

  start_orderer() { # $1 = index (0..2)
    local caddr raddr
    case "$1" in
      0) caddr=$C0; raddr=$R0 ;;
      1) caddr=$C1; raddr=$R1 ;;
      2) caddr=$C2; raddr=$R2 ;;
    esac
    "$BIN/fabricnode" -role orderer -listen "$caddr" \
        -peers peer0,peer1 -system "$system" -block-size 50 -block-timeout 50ms \
        -orderers 1 $RESCUE_FLAG $WL_FLAGS \
        -raft-id "$raddr" -raft-cluster "$CLUSTER" -raft-redirects "$REDIRECTS" \
        -raft-dir "$RAFT_DIR/member$1" -raft-election-timeout 150ms \
        >> "$LOGDIR/orderer$1-$slug.log" 2>&1 &
    ORD_PID[$caddr]=$!
    PIDS+=($!)
  }

  # current_leader prints the leader's client address ("" mid-election).
  current_leader() {
    "$BIN/sharpnet" status -orderer "$ORDS" -dial-timeout 2s 2>/dev/null \
      | sed -n 's/.* leader=\([^ ][^ ]*\) .*/\1/p' | head -1
  }

  # wait_leader polls until a leader differing from $1 emerges.
  wait_leader() {
    local avoid="${1:-}" leader deadline=$((SECONDS+60))
    while [ "$SECONDS" -lt "$deadline" ]; do
      leader=$(current_leader)
      if [ -n "$leader" ] && [ "$leader" != "$avoid" ]; then
        printf '%s' "$leader"
        return 0
      fi
      sleep 0.3
    done
    echo "chaos: no leader (re-)elected within 60s" >&2
    return 1
  }

  start_peer() { # $1 = index (0..1)
    local addr=$P0
    [ "$1" = 1 ] && addr=$P1
    "$BIN/fabricnode" -role peer -name "peer$1" -listen "$addr" \
        -orderer "$ORDS" -peers peer0,peer1 -system "$system" $RESCUE_FLAG $WL_FLAGS \
        -data-dir "$DATA_DIR/peer$1" \
        >> "$LOGDIR/peer$1-$slug.log" 2>&1 &
    PEER_PID=$!
    PIDS+=($!)
  }

  echo "=== chaos smoke: $system (orderers $ORDS, raft $CLUSTER, peers $PEERS) ==="
  rm -f "$LOGDIR/peer0-$slug.log" "$LOGDIR/peer1-$slug.log"
  start_orderer 0; start_orderer 1; start_orderer 2
  start_peer 0
  start_peer 1
  PEER1_PID=$PEER_PID

  # The burst endorses on peer0 alone: peer1 is the replica that gets
  # killed, and a wire client does not redial a peer. The closing check
  # covers both.
  "$BIN/sharpnet" load -orderer "$ORDS" -peer-addrs "$P0" \
      -target-tps "$TARGET_TPS" -duration "$OL_DURATION" -workers "$OL_WORKERS" $WL_FLAGS \
      > "$LOGDIR/load-$slug.log" 2>&1 &
  LOAD_PID=$!
  PIDS+=($LOAD_PID)

  # kill_and_restart SIGKILLs the current leader, waits for a successor,
  # and only then restarts the killed member: the cluster rides out the gap
  # on two of three, and the burst's closing trace drain finds all five
  # nodes up.
  kill_and_restart() {
    local victim successor
    victim=$(wait_leader)
    echo "chaos: killing leader $victim (pid ${ORD_PID[$victim]})"
    kill -9 "${ORD_PID[$victim]}" 2>/dev/null || true
    successor=$(wait_leader "$victim")
    echo "chaos: new leader $successor; restarting the killed member"
    case "$victim" in
      "$C0") start_orderer 0 ;;
      "$C1") start_orderer 1 ;;
      "$C2") start_orderer 2 ;;
    esac
  }

  sleep 2  # let the burst get going before the first kill
  kill_and_restart
  echo "chaos: killing peer1 (pid $PEER1_PID) mid-commit"
  kill -9 "$PEER1_PID" 2>/dev/null || true
  sleep 1  # more load under the new leader, peer1 down
  kill_and_restart
  echo "chaos: restarting peer1 on $DATA_DIR/peer1"
  start_peer 1

  if ! wait "$LOAD_PID"; then
    echo "chaos: load run failed (see $LOGDIR/load-$slug.log)" >&2
    tail -20 "$LOGDIR/load-$slug.log" >&2
    exit 1
  fi
  cat "$LOGDIR/load-$slug.log"
  OFFERED=$(sed -n 's/^offered  *\([0-9][0-9]*\) scheduled.*/\1/p' "$LOGDIR/load-$slug.log")
  if [ -z "$OFFERED" ] || [ "$OFFERED" -lt 500 ]; then
    echo "chaos: only ${OFFERED:-0} transactions offered, need 500+ (raise TARGET_TPS/OL_DURATION)" >&2
    exit 1
  fi
  COMMITTED=$(sed -n 's/^COMMITTED_TOTAL //p' "$LOGDIR/load-$slug.log")
  if [ -z "$COMMITTED" ] || [ "$COMMITTED" -le 0 ]; then
    echo "chaos: no committed-transaction tally in the load log" >&2
    exit 1
  fi
  "$BIN/sharpnet" check -orderer "$ORDS" -peer-addrs "$PEERS" \
      -expect-committed "$COMMITTED" | tee "$LOGDIR/check-$slug.log"

  # The killed peer came back from its own store: its second start names
  # the block it resumed at, and that is above 1.
  RESUMED=$(sed -n 's/.* resumes at block \([0-9][0-9]*\)$/\1/p' "$LOGDIR/peer1-$slug.log" | tail -1)
  if [ "$(grep -c ' resumes at block ' "$LOGDIR/peer1-$slug.log")" -ne 2 ] || [ "${RESUMED:-0}" -le 1 ]; then
    echo "chaos: restarted peer1 resumed at block ${RESUMED:-?}; want its stored height, above 1" >&2
    cat "$LOGDIR/peer1-$slug.log" >&2
    exit 1
  fi

  teardown
  echo "=== chaos smoke: OK ($COMMITTED of $OFFERED offered transactions committed, two leader kills, peer1 killed and resumed at block $RESUMED) ==="
  exit 0
fi

port=$PORT_BASE
for system in $SYSTEMS; do
  slug=$(printf '%s' "$system" | tr -c 'a-z0-9' '-')
  orderer_port=$port; peer0_port=$((port+1)); peer1_port=$((port+2))
  port=$((port+3))
  echo "=== cluster smoke: $system (orderer :$orderer_port, peers :$peer0_port :$peer1_port) ==="

  "$BIN/fabricnode" -role orderer -listen "127.0.0.1:$orderer_port" \
      -peers peer0,peer1 -system "$system" -block-size 50 -block-timeout 50ms \
      $RESCUE_FLAG $WL_FLAGS \
      > "$LOGDIR/orderer-$slug.log" 2>&1 &
  PIDS+=($!)
  "$BIN/fabricnode" -role peer -name peer0 -listen "127.0.0.1:$peer0_port" \
      -orderer "127.0.0.1:$orderer_port" -peers peer0,peer1 -system "$system" \
      $RESCUE_FLAG $WL_FLAGS \
      > "$LOGDIR/peer0-$slug.log" 2>&1 &
  PIDS+=($!)
  "$BIN/fabricnode" -role peer -name peer1 -listen "127.0.0.1:$peer1_port" \
      -orderer "127.0.0.1:$orderer_port" -peers peer0,peer1 -system "$system" \
      $RESCUE_FLAG $WL_FLAGS \
      > "$LOGDIR/peer1-$slug.log" 2>&1 &
  PIDS+=($!)

  # The wire client retries dials, so no explicit readiness wait is needed.
  # The load exits nonzero unless every peer converged bit for bit; on top
  # of that the pacer must sustain >=95% of the target rate, and the merged
  # stage traces must cover >=99% of the committed transactions end to end.
  echo "--- open-loop burst: $TARGET_TPS tx/s for $OL_DURATION ($WORKLOAD) ---"
  "$BIN/sharpnet" load -orderer "127.0.0.1:$orderer_port" \
      -peer-addrs "127.0.0.1:$peer0_port,127.0.0.1:$peer1_port" \
      -target-tps "$TARGET_TPS" -duration "$OL_DURATION" -workers "$OL_WORKERS" $WL_FLAGS \
      | tee "$LOGDIR/openloop-$slug.log"
  ACHIEVED=$(sed -n 's/^ACHIEVED_TPS //p' "$LOGDIR/openloop-$slug.log")
  COVERAGE=$(sed -n 's/^TRACE_COVERAGE_PCT //p' "$LOGDIR/openloop-$slug.log")
  if [ -z "$ACHIEVED" ] || [ -z "$COVERAGE" ]; then
    echo "open-loop: ACHIEVED_TPS / TRACE_COVERAGE_PCT machine lines missing" >&2
    exit 1
  fi
  if ! awk -v a="$ACHIEVED" -v t="$TARGET_TPS" 'BEGIN{exit !(a >= 0.95*t)}'; then
    echo "open-loop: achieved $ACHIEVED tx/s, need >=95% of $TARGET_TPS" >&2
    exit 1
  fi
  if ! awk -v c="$COVERAGE" 'BEGIN{exit !(c >= 99)}'; then
    echo "open-loop: trace coverage $COVERAGE%, need >=99%" >&2
    exit 1
  fi
  echo "open-loop: $ACHIEVED tx/s achieved, $COVERAGE% trace coverage"

  teardown
  echo "=== $system: OK ==="
done
echo "cluster smoke passed for: $SYSTEMS"
