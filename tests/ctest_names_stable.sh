#!/usr/bin/env bash
# Stable CTest names: gtest_discover_tests names a parameterized case
# after the text gtest prints for its parameter. A parameter type
# without a PrintTo prints as a hex dump of its bytes, padding included,
# so the name can change from one build or discovery to the next and a
# pass/fail history keyed by name breaks. This lists every gtest binary
# twice and fails when the two listings differ or a name holds a hex
# dump.
#
#   ctest_names_stable.sh <gtest binary>...
set -u

die() { echo "ctest_names_stable: $*" >&2; exit 1; }

[ $# -ge 1 ] || die "usage: $0 <gtest binary>..."

for bin in "$@"; do
  first=$("$bin" --gtest_list_tests) || die "$bin: listing failed"
  second=$("$bin" --gtest_list_tests) || die "$bin: listing failed"
  [ "$first" = "$second" ] || die "$bin: two listings differ"
  if grep -F -- "-byte object" <<<"$first" >&2; then
    die "$bin: a parameter prints as a hex dump; give its type a PrintTo"
  fi
done

echo "ok: $# gtest binaries list stable names"
