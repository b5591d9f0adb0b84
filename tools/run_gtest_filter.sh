#!/usr/bin/env bash
# Runs a GoogleTest binary under --gtest_filter, but first fails if any
# single colon-separated positive pattern of the filter selects no test.
#
# GoogleTest exits 0 when a filter matches nothing, so a renamed suite
# silently drops out of a filtered CI step. Listing each pattern on its
# own catches that: one dead pattern fails the step even when its
# siblings still match.
#
# Usage: tools/run_gtest_filter.sh <test-binary> '<pattern>[:<pattern>...]'
#        (patterns after a '-' are exclusions and are not checked)

set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <test-binary> '<pattern>[:<pattern>...]'" >&2
  exit 2
fi
bin="$1"
filter="$2"

IFS=':' read -ra patterns <<< "${filter%%-*}"
if [ "${#patterns[@]}" -eq 0 ]; then
  echo "error: empty filter for $bin" >&2
  exit 1
fi
for pattern in "${patterns[@]}"; do
  # Test lines of --gtest_list_tests are indented; suite lines are not.
  listed="$("$bin" --gtest_list_tests --gtest_filter="$pattern")"
  if ! grep -q '^  ' <<< "$listed"; then
    echo "error: pattern '$pattern' selects no tests in $bin" >&2
    exit 1
  fi
done
exec "$bin" --gtest_filter="$filter"
