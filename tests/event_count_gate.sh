#!/usr/bin/env bash
# Event-count gate: runs fig_throughput at a small fixed scale and compares
# its exact columns — ring size, workers, coalescing, tuples, simulator
# events, notifications and per-class hops — with a committed expected
# file. A change to the per-hop path must leave traffic bit-identical, so
# any difference here fails the suite; wall-clock columns are ignored.
#
# Usage: event_count_gate.sh <fig_throughput> <expected file>
#        event_count_gate.sh <fig_throughput> --print   (regenerate)
set -u

abspath() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
BIN=$(abspath "$1")
EXPECTED=$2
[ "$EXPECTED" = "--print" ] || EXPECTED=$(abspath "$EXPECTED")
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# The figure writes BENCH_throughput.json into its working directory.
cd "$WORKDIR" || exit 2
if ! CONTJOIN_SCALE=0.3 "$BIN" > out.txt; then
  echo "event_count_gate: fig_throughput failed" >&2
  exit 1
fi
# Table rows start with the ring size. Columns: nodes threads coalesce
# tuples events parallel_batches seconds events_per_sec tuples_per_sec
# notifications hops_by_class.
awk -F'\t' '/^[0-9]/ { print $1, $2, $3, $4, $5, $10, $11 }' out.txt \
  > actual.txt
if [ ! -s actual.txt ]; then
  echo "event_count_gate: no table rows in fig_throughput output" >&2
  exit 1
fi

if [ "$EXPECTED" = "--print" ]; then
  cat actual.txt
  exit 0
fi
if ! diff -u "$EXPECTED" actual.txt; then
  echo "event_count_gate: events, hops or notifications changed" >&2
  exit 1
fi
echo "event_count_gate: $(wc -l < actual.txt) runs match"
