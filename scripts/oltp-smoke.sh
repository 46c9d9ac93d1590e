#!/usr/bin/env bash
# oltp-smoke: end-to-end determinism check of the serving-workload tier.
#
# Renders a small figure-oltp sweep (a KV cell grid at a mild skew and a
# ledger cell grid at a steep one) three times with sitm-bench — twice at
# -workers 1 and once at -workers 2 — and verifies the figure bytes are
# identical across runs and across worker counts: the Zipfian generator,
# the paged store, the commit-latency histogram and both workloads'
# validators, which scan only the pages a cell stored to, are all
# deterministic end to end.
set -euo pipefail

workdir="$(mktemp -d)"
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

cd "$(dirname "$0")/.."
go build -o "$workdir/sitm-bench" ./cmd/sitm-bench

common=(-oltp -workload kv@0.50,ledger@0.99 -seeds 1)
"$workdir/sitm-bench" "${common[@]}" -workers 1 >"$workdir/run1.txt"
"$workdir/sitm-bench" "${common[@]}" -workers 1 >"$workdir/run2.txt"
"$workdir/sitm-bench" "${common[@]}" -workers 2 >"$workdir/run3.txt"

if ! cmp -s "$workdir/run1.txt" "$workdir/run2.txt"; then
  echo "oltp-smoke: figure bytes diverge across identical runs" >&2
  diff "$workdir/run1.txt" "$workdir/run2.txt" >&2 || true
  exit 1
fi
if ! cmp -s "$workdir/run1.txt" "$workdir/run3.txt"; then
  echo "oltp-smoke: figure bytes depend on -workers" >&2
  diff "$workdir/run1.txt" "$workdir/run3.txt" >&2 || true
  exit 1
fi

# The render must actually contain both serving-tier tables with their
# quantile columns, not an empty header.
if ! grep -q 'kv@0.50' "$workdir/run1.txt" || ! grep -q 'ledger@0.99' "$workdir/run1.txt" ||
  ! grep -q 'p999' "$workdir/run1.txt"; then
  echo "oltp-smoke: render is missing the kv or ledger table or the quantile columns" >&2
  cat "$workdir/run1.txt" >&2
  exit 1
fi
echo "oltp-smoke: OK"
