#!/bin/sh
# Prints a many-obligation relaxc program: K renamed copies of
# water_modular's `interf` (interf0 .. interf<K-1>), copy j with its own
# `f0 <= 1000 + j` bound in both preconditions so that no two copies'
# obligations print alike, and water_modular's `main`, which calls
# interf0. Each copy adds 3 |-o and 7 |-r obligations to main's 8 and 10.
#
# Without the second argument the program is the parallelism item's
# (ROADMAP.md): main's loop invariants do not bound N, so interf0's call
# site cannot show its bound and exactly two obligations fail (one per
# pass). With `verifying`, both invariants also carry `N <= 8`, and the
# program verifies.
#
# Usage, from the root of a checkout:
#   sh bench/interf_copies.sh <K> [verifying] > copies.rlx
#   ./build/relaxc verify copies.rlx --jobs=4 --solver-stats
set -eu
k=$1
src=examples/programs/water_modular.rlx
main_edits='s/call interf(/call interf0(/'
if [ "${2:-}" = verifying ]; then
  main_edits="$main_edits"'
s/invariant (0 <= i && i <= N \&\& /&N <= 8 \&\& /
s/rinvariant (i<o> == i<r> \&\& N<o> == N<r> \&\& /&N<o> <= 8 \&\& /'
fi

sed -n '/^int N/,/^array RS;/p' "$src"
j=0
while [ "$j" -lt "$k" ]; do
  echo
  sed -n '/^proc interf/,/^}/p' "$src" | sed \
    -e "s/^proc interf(/proc interf$j(/" \
    -e "s/ 0 <= f0 && / 0 <= f0 \&\& f0 <= 1000 + $j \&\& /" \
    -e "s/ 0 <= f0<o> && / 0 <= f0<o> \&\& f0<o> <= 1000 + $j \&\& /"
  j=$((j + 1))
done
echo
sed -n '/^proc main/,$p' "$src" | sed -e "$main_edits"
