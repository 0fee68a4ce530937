#!/usr/bin/env bash
# ci_smoke.sh — run a bench/experiment smoke and validate its JSON emission.
#
#   tools/ci_smoke.sh <json-path> <command> [args...]
#
# Runs the command, then fails the step if <json-path> is missing or not
# well-formed JSON (python3 -m json.tool is the validator, as for the
# micro_bench smoke). Every CI smoke step goes through this script, so a
# binary that silently writes truncated or empty JSON cannot pass; the
# command's own exit status already fails the step on any [FAIL] verdict.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <json-path> <command> [args...]" >&2
  exit 2
fi

out="$1"
shift

"$@"

if [ ! -s "$out" ]; then
  echo "ci_smoke: $out missing or empty after: $*" >&2
  exit 1
fi
python3 -m json.tool "$out" > /dev/null
echo "ci_smoke: $out OK"
