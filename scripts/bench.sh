#!/usr/bin/env bash
# bench.sh — regenerate the repo's performance trajectory file.
#
# Runs the codec / cache / resolver / farm micro-benchmarks, the loopback
# loadgen bursts, and the parallel experiment-sweep timing in-process
# (cmd/benchjson) and writes the report to benchjson's default output file
# at the repo root (the -o default in cmd/benchjson, the one place the name
# is set). Pass --smoke for the fast CI variant that skips the multi-second
# sweep timings and writes BENCH_SMOKE.json instead.
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
for a in "$@"; do
  case "$a" in
    --smoke) args+=("-smoke" "-o" "BENCH_SMOKE.json") ;;
    *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
  esac
done

go run ./cmd/benchjson "${args[@]}"
