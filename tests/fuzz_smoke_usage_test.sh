#!/bin/sh
# fuzz_smoke must refuse malformed arguments with its usage text and exit
# status 2, never run a sweep it was not asked for and print PASS.
#
# Usage: fuzz_smoke_usage_test.sh <path to fuzz_smoke>
bin=$1
for args in "--iterations abc" "--iterations 0" "--iterations" \
            "--iterations -3" "--seed 12x" "--seed" "--unknown 1"; do
  status=0
  # $args is split on purpose: each case is a flag and its value.
  # shellcheck disable=SC2086
  "$bin" $args >/dev/null 2>&1 || status=$?
  if [ "$status" != 2 ]; then
    echo "fuzz_smoke $args exited with $status, expected 2"
    exit 1
  fi
done
echo "fuzz_smoke rejects malformed arguments"
