#!/bin/sh
# Optimization flags never change a reported number: the stuck-at and
# bridging lines of `fstg sim` must be byte-identical with and without
# each of --threads, --lane-bits, --static-prune and --cache-dir (cold,
# then warm).
#
#   usage: cli_sim_flag_invariance.sh FSTG WORKDIR
set -eu
fstg=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

report() {  # circuit, then extra flags
  c=$1
  shift
  "$fstg" sim "$c" "$dir/$c.tests" "$@" | grep -E '^(stuck-at|bridging) :'
}

for c in lion dk17; do
  "$fstg" gen "$c" -o "$dir/$c.tests" 2>/dev/null
  report "$c" > "$dir/$c.ref"
  test "$(wc -l < "$dir/$c.ref")" -eq 2
  for flags in "--threads 0" "--threads 1" "--threads 8" "--lane-bits 64" \
               "--lane-bits 512" "--static-prune" "--cache-dir $dir/cache" \
               "--cache-dir $dir/cache"; do
    # shellcheck disable=SC2086  # flags is a word list on purpose
    report "$c" $flags > "$dir/$c.out"
    if ! cmp -s "$dir/$c.ref" "$dir/$c.out"; then
      echo "fstg sim $c $flags changed a reported number:"
      diff "$dir/$c.ref" "$dir/$c.out"
      exit 1
    fi
  done
done
echo "fstg sim reports are flag-invariant"
