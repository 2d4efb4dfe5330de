#!/bin/sh
# Build-flag guard.  Reads the native compile rule of every module under
# lib/ twice with `dune rules` (it builds nothing): once under the default
# profile (release, from dune-workspace) and once under --profile dev.
# Fails if any module compiles with -opaque under the default profile,
# which would stop calls across module boundaries from being inlined, or
# if any module's flags before its include paths (the warning spec,
# -strict-sequence, -strict-formats, -short-paths, -keep-locs, -g) differ
# from the dev profile's, so lint can never quietly weaken.
#
#   sh scripts/check_build_flags.sh
#
# Run from anywhere inside the repository.  Exit 0 = flags as required,
# 1 = a module is opaque, its flags differ, or no rule was found.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

archives=$(sed -n 's/.*(name \(regionsel_[a-z_]*\)).*/\1/p' lib/*/dune |
  while read -r lib; do
    echo "_build/default/lib/${lib#regionsel_}/$lib.cmxa"
  done)

# One line per compiled implementation: "<source> <opaque 0|1> <flags>",
# where <flags> are the arguments between ocamlopt and the first -I.
# `dune rules` prints one S-expression atom per line inside a (run ...).
compile_flags() {
  # shellcheck disable=SC2086
  dune rules --root . -r "$@" $archives 2>/dev/null | awk '
    /^ *\(run$/ { inrun = 1; n = 0; next }
    inrun {
      a = $1
      last = (a ~ /\)$/)
      sub(/\)+$/, "", a)
      args[n++] = a
      if (last) { inrun = 0; emit() }
    }
    function emit(   i, src, opaque, flags, in_flags) {
      if (args[0] !~ /ocamlopt/) return
      src = ""; opaque = 0; flags = ""; in_flags = 1
      for (i = 1; i < n; i++) {
        if (args[i] == "-I") in_flags = 0
        if (in_flags) flags = flags " " args[i]
        if (args[i] == "-opaque") opaque = 1
        if (args[i] == "-impl" && i + 1 < n) src = args[i + 1]
      }
      if (src ~ /^lib\//) print src, opaque, substr(flags, 2)
    }' | sort
}

release=$(compile_flags)
dev=$(compile_flags --profile dev)

status=0
n=$(printf '%s\n' "$release" | grep -c . || true)
if [ "$n" -eq 0 ]; then
  echo "check_build_flags: no lib/ compile rules found under the default profile"
  exit 1
fi

opaque=$(printf '%s\n' "$release" | awk '$2 == 1 { print $1 }')
if [ -n "$opaque" ]; then
  echo "check_build_flags: compiled with -opaque under the default profile:"
  printf '  %s\n' $opaque
  status=1
fi

# The generated alias modules (*.ml-gen, one per wrapped library, holding
# only module aliases) take dune's built-in profile flags, which no env
# stanza reaches; they are held to the -opaque check above only.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
flags_of() { printf '%s\n' "$1" | awk '$1 !~ /\.ml-gen$/ { $2 = ""; print }'; }
flags_of "$dev" > "$work/dev"
flags_of "$release" > "$work/default"
if ! diff -u "$work/dev" "$work/default"; then
  echo "check_build_flags: the default profile's flags differ from the dev profile's (above)"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_build_flags: $n lib/ modules, none opaque, flags equal to the dev profile's"
fi
exit "$status"
