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
#
# When the repository is a git work tree and the JSON carries a "meta"
# block (every exp_* emission does), its meta.git_sha must equal
# `git describe --always --dirty --abbrev=7` of the tree: the build stamp
# (cmake/git_stamp.cmake) must name the code that ran, dirty state
# included.
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

root="$(cd "$(dirname "$0")/.." && pwd)"
if git -C "$root" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  want="$(git -C "$root" describe --always --dirty --abbrev=7)"
  python3 - "$out" "$want" << 'PY'
import json
import sys

path, want = sys.argv[1], sys.argv[2]
with open(path) as f:
    meta = json.load(f).get("meta")
if meta is not None and meta.get("git_sha") != want:
    sys.exit(f"ci_smoke: {path} meta.git_sha is {meta.get('git_sha')!r}, "
             f"the tree is {want!r}")
PY
fi
echo "ci_smoke: $out OK"
