#!/usr/bin/env bash
# batch-smoke: end-to-end differential of the horizon-batched conductor.
#
# Runs each of five small sweeps twice with sitm-bench — once
# with horizon batching (the default) and once with -per-event — and
# verifies for each that:
#   - the rendered figure bytes are identical,
#   - the batched run actually batched (sched_stats.batched_events > 0),
#   - the per-event run batched nothing,
#   - the batched run's coroutine-switch count is strictly lower.
# Both runs of a sweep share one result cache, the batched run first, so
# the per-event check also fails if the cache key lets per-event cells
# reuse the batched run's results.
# The Figure 7 List sweep reads mostly L1 hits; the Figure 7 Array
# sweep's long reads scan past L1, so its batched events are mostly
# private L2 hits. The Figure 8 Genome sweep runs every thread count and
# allocates nodes inside transactions, so 2PL and SONTM batch reads right
# up to txlib's allocator, which must fence through tm.Txn.Fence, and
# parks its waiters at the phase barrier. The Figure 8 Intruder and
# Vacation sweep runs list and tree lookups that promise each key read's
# follow-up read under the kernels' reserves (tm.Txn.ReserveReads) for
# the lookups still to come. The Figure OLTP sweep on kv@0.99 and ledger@0.99 runs the serving tier's
# long scans and point-read sessions, which promise their reads
# (tm.Txn.PromiseReads) while skewed writers doom them.
set -euo pipefail

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

cd "$(dirname "$0")/.."
go build -o "$workdir/sitm-bench" ./cmd/sitm-bench

# Pull one integer counter out of the sched_stats JSON object.
counter() { # counter <file> <name>
  sed -n "s/^ *\"$2\": \([0-9]*\),*$/\1/p" "$1" | head -n 1
}

smoke() { # smoke <name> <sitm-bench flags...>
  local name="$1"
  shift
  local common=("$@" -seeds 1 -workers 2 -cache-dir "$workdir/cache-$name")
  # Drop the "wrote <path>" status line: it names the -json file, which
  # legitimately differs between the two runs.
  "$workdir/sitm-bench" "${common[@]}" -json "$workdir/batched.json" | grep -v '^wrote ' >"$workdir/batched.txt"
  "$workdir/sitm-bench" "${common[@]}" -per-event -json "$workdir/per-event.json" | grep -v '^wrote ' >"$workdir/per-event.txt"

  if ! cmp -s "$workdir/batched.txt" "$workdir/per-event.txt"; then
    echo "batch-smoke: $name: figure bytes diverge between batched and per-event conductors" >&2
    diff "$workdir/per-event.txt" "$workdir/batched.txt" >&2 || true
    exit 1
  fi

  switches_batched="$(counter "$workdir/batched.json" coroutine_switches)"
  switches_per_event="$(counter "$workdir/per-event.json" coroutine_switches)"
  batched_events="$(counter "$workdir/batched.json" batched_events)"
  batched_events_per_event="$(counter "$workdir/per-event.json" batched_events)"

  echo "batch-smoke: $name: coroutine_switches batched=$switches_batched per-event=$switches_per_event, batched_events=$batched_events"

  if [ -z "$switches_batched" ] || [ -z "$switches_per_event" ]; then
    echo "batch-smoke: $name: could not read coroutine_switches from the -json reports" >&2
    exit 1
  fi
  if [ "$batched_events" -eq 0 ]; then
    echo "batch-smoke: $name: batched run reports zero batched_events — batching never engaged" >&2
    exit 1
  fi
  if [ "$batched_events_per_event" -ne 0 ]; then
    echo "batch-smoke: $name: -per-event run reports $batched_events_per_event batched_events" >&2
    exit 1
  fi
  if [ "$switches_batched" -ge "$switches_per_event" ]; then
    echo "batch-smoke: $name: batching did not reduce coroutine switches ($switches_batched >= $switches_per_event)" >&2
    exit 1
  fi
  echo "batch-smoke: $name OK"
}

smoke List -fig 7 -workload List
smoke Array -fig 7 -workload Array
smoke Genome -fig 8 -workload Genome
smoke IntruderVacation -fig 8 -workload Intruder,Vacation
smoke OLTP -oltp -workload kv@0.99,ledger@0.99
echo "batch-smoke: OK"
