#!/bin/sh
# Ratchet on the library's exported surface: every `val` in lib/**/*.mli
# is looked up, by name, in the other .ml/.mli files under lib/, bin/,
# bench/, examples/ and test/ (its own module's .ml and .mli excluded).
# An export whose name appears only under test/ is test-only; one whose
# name appears nowhere has no user.  The scan is a name match, so a name
# that another module also uses hides its export from it.
#
# Prints each test-only export and fails if there are more than
# $max_test_only, or if any export has no user.  A change that removes
# test-only exports lowers $max_test_only to the new count.
#
# Usage: sh scripts/ci/test_only_exports.sh   (from the repository root)
set -eu

max_test_only=32

files=$(find lib bin bench examples test -name '*.ml' -o -name '*.mli' | sort)
test_only=0
unused=0
for mli in $(find lib -name '*.mli' | sort); do
  ml="${mli%i}"
  others=$(printf '%s\n' $files | grep -v -x -e "$mli" -e "$ml")
  for name in $(sed -n "s/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    users=$(printf '%s\n' $others | xargs grep -l -w -F -e "$name" 2>/dev/null || true)
    if [ -z "$users" ]; then
      echo "no user: $mli $name"
      unused=$((unused + 1))
    elif [ -z "$(printf '%s\n' $users | grep -v '^test/' || true)" ]; then
      echo "test-only: $mli $name"
      test_only=$((test_only + 1))
    fi
  done
done

echo "test-only exports: $test_only (at most $max_test_only); exports with no user: $unused"
if [ "$unused" -gt 0 ]; then
  echo "exports with no user: delete them" >&2
  exit 1
fi
if [ "$test_only" -gt "$max_test_only" ]; then
  echo "test-only exports rose above $max_test_only: test through the public path, or delete" >&2
  exit 1
fi
