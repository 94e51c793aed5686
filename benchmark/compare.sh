#!/usr/bin/env bash
# benchmark/compare.sh A.jsonl [B.jsonl]: see compare.py.
exec python3 "$(dirname "$0")/compare.py" "$@"
