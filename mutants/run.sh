#!/usr/bin/env bash
# Replay the mutations under mutants/: each must fail the one test it names.
#
# Usage: mutants/run.sh [MUTANT.diff ...]   (default: every mutants/*.diff)
#
# Each file is a unified diff against the tree, after a header of `#` lines:
#
#   # test:   the one test, as `cargo test` prints its name
#   # cargo:  the `cargo test` arguments that select its target
#   # guards: the fix or rule the mutation undoes
#   # expect: a fixed string the failing test's output must contain
#
# The tree is copied (tracked and untracked, not ignored, files) to a
# temporary directory, and every check runs there, so the tree itself is
# never touched.
# All mutants share one target directory, `$CARGO_TARGET_DIR` when set, so
# the builds stay incremental.  For each file the script checks that:
#   1. the patch applies;
#   2. the named test passes unmutated;
#   3. it fails mutated, with the expected text in its output;
#   4. the patch reverts cleanly, leaving the copy as it was.
set -euo pipefail

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$work/target}

mkdir "$work/tree"
git -C "$root" ls-files -z --cached --others --exclude-standard >"$work/files"
(cd "$root" && tar --null -T "$work/files" -cf -) | tar -xmf - -C "$work/tree"

if [ $# -eq 0 ]; then
  set -- "$root"/mutants/*.diff
fi

field() { sed -n "s/^# $1: *//p" "$2" | head -n 1; }
snapshot() { (cd "$work/tree" && xargs -0 sha256sum <"$work/files"); }

before=$(snapshot)
failures=0
declare -A passes
for mutant in "$@"; do
  name=$(basename "$mutant")
  test=$(field test "$mutant")
  args=$(field cargo "$mutant")
  expect=$(field expect "$mutant")
  if [ -z "$test" ] || [ -z "$args" ] || [ -z "$expect" ]; then
    echo "FAIL $name: the header needs test, cargo and expect lines"
    failures=$((failures + 1))
    continue
  fi
  run() { (cd "$work/tree" && RUST_BACKTRACE=0 cargo test -q $args -- --exact "$test" 2>&1); }

  if ! patch -d "$work/tree" -p1 -s -f --dry-run --no-backup-if-mismatch <"$mutant"; then
    echo "FAIL $name: the patch does not apply"
    failures=$((failures + 1))
    continue
  fi
  key="$args $test"
  if [ -z "${passes[$key]:-}" ]; then
    if out=$(run) && grep -q "1 passed" <<<"$out"; then
      passes[$key]=yes
    else
      passes[$key]=no
      echo "$out" | tail -n 20
    fi
  fi
  if [ "${passes[$key]}" != yes ]; then
    echo "FAIL $name: $test does not pass unmutated"
    failures=$((failures + 1))
    continue
  fi

  patch -d "$work/tree" -p1 -s -f --no-backup-if-mismatch <"$mutant"
  if out=$(run); then
    echo "FAIL $name: $test passes mutated"
    failures=$((failures + 1))
  elif ! grep -qF -- "$expect" <<<"$out"; then
    echo "FAIL $name: $test fails mutated, but without \"$expect\":"
    echo "$out" | tail -n 20
    failures=$((failures + 1))
  else
    echo "ok   $name: $test fails with \"$expect\""
  fi
  patch -d "$work/tree" -p1 -s -f -R --no-backup-if-mismatch <"$mutant"
  if [ "$(snapshot)" != "$before" ]; then
    echo "FAIL $name: reverting the patch did not restore the copy"
    exit 1
  fi
done

echo "$# mutant(s), $failures failure(s)"
[ "$failures" -eq 0 ]
