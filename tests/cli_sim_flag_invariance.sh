#!/bin/sh
# Optimization flags never change a reported number: the stuck-at and
# bridging lines of `fstg sim` must be byte-identical with and without
# each of --threads, --static-prune and --cache-dir (cold, then warm).
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

check() {  # circuit, then the flag sets that must not change its report
  c=$1
  shift
  "$fstg" gen "$c" -o "$dir/$c.tests" 2>/dev/null
  compare "$c" "$@"
}

compare() {  # circuit, then flag sets, over the test file already written
  c=$1
  shift
  report "$c" > "$dir/$c.ref"
  test "$(wc -l < "$dir/$c.ref")" -eq 2
  for flags in "$@"; do
    # shellcheck disable=SC2086  # flags is a word list on purpose
    report "$c" $flags > "$dir/$c.out"
    if ! cmp -s "$dir/$c.ref" "$dir/$c.out"; then
      echo "fstg sim $c $flags changed a reported number:"
      diff "$dir/$c.ref" "$dir/$c.out"
      exit 1
    fi
  done
}

# cse's longest test (3,442 vectors) runs time-sliced, 64 segments of 54
# cycles as the lanes of one batch.
for c in lion dk17 cse; do
  check "$c" "--threads 0" "--threads 1" "--threads 8" "--static-prune" \
        "--cache-dir $dir/cache" "--cache-dir $dir/cache"
done
# rie's longest test (21,403 vectors) runs time-sliced too, 64 segments of
# 335 cycles as the lanes of one batch: its fault region spreads the live
# faults over the slots, and a fault continued past a diverged segment end
# runs its continuation passes inside its slot's chunk. --threads 3 adds a
# slot count that divides neither the 64 lanes nor the default fault
# chunking. rie's static prune takes seconds and this script also runs
# under the sanitizer presets, so rie gets the --threads rows only.
check rie "--threads 0" "--threads 1" "--threads 3" "--threads 8"
# mark1 is a second sliced circuit: 16 outputs, ORs of 11-32 fanins, and
# 162 faults continued past a diverged segment end. A continuation pass
# tracks one segment's lane, so the lane mask, not the 64 lanes, decides
# which of its cycles take the overlay.
check mark1 "--threads 0" "--threads 1" "--threads 3" "--threads 8"
# dk16's longest test is the heaviest sliced continuation: its segment
# start states take 21 fixpoint rounds, and 1,005 faults continue past a
# diverged segment. Its static prune leaves 10 bridging faults out, so the
# bridging list's offset into the one simulated list moves under pruning.
check dk16 "--threads 0" "--threads 1" "--threads 3" "--threads 8" \
      "--static-prune"
# keyb has the most diverged cycles of the default suite (18,880, more
# than rie's 15,896). They share packed sweeps with the other faults of
# their worker chunk, so what each sweep holds depends on the thread
# count; the reported numbers must not.
check keyb "--threads 0" "--threads 1" "--threads 3" "--threads 8"
# Files of each circuit's two shortest generated tests leave most faults
# missed, so redundancy classification has work: dk17's (40/212 stuck-at
# and 107/736 bridging faults detected) and keyb's (about 4,700 misses)
# run their exhaustive length-one tests through the engine, in parallel
# above one thread. dk17's cache rows get a directory of their own, so the
# first of them is cold.
shortest_two() {  # circuit: keep its two shortest tests (ties: file order)
  f=$dir/$1.tests
  grep -E '^[.#]' "$f" | sed 's/^\.tests .*/.tests 2/' > "$f.two"
  grep -vE '^[.#]' "$f" | awk 'NF { print gsub(/,/, ","), NR, $0 }' |
    sort -s -k1,1n -k2,2n | head -n 2 | cut -d' ' -f3- >> "$f.two"
  mv "$f.two" "$f"
}
shortest_two dk17
compare dk17 "--threads 0" "--threads 1" "--threads 3" "--threads 8" \
        "--static-prune" \
        "--cache-dir $dir/cache-two" "--cache-dir $dir/cache-two"
shortest_two keyb
compare keyb "--threads 0" "--threads 1" "--threads 3" "--threads 8"
echo "fstg sim reports are flag-invariant"
