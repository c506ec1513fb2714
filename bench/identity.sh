#!/bin/sh
# Byte-identity of two modemerge binaries on presets A-F.
#
#   bench/identity.sh PARENT_BIN NEW_BIN PRESETS_DIR [WORK_DIR]
#
# PRESETS_DIR holds one directory per preset, as written by
# `dune exec bench/main.exe -- presets PRESETS_DIR`. For each preset at
# -j 1 and -j 2, both binaries run:
#   - merge with --audit, --dot, --progress, --events and --metrics
#     (merged SDC, audit JSON, dot files; --progress checks that the
#     stderr renderer leaves the results alone; the event journal and
#     the metrics JSON are compared with every number masked, which
#     covers the ts/t_ns stamps and the timings);
#   - merge --annotate (annotated merged SDC);
#   - sta --paths 3 on the first three modes, runtime column masked;
#   - check -m merged_0.sdc against the members of the first `group [`
#     line (the one-shot comparison behind equivalence checking), and
#     relations on the first mode, stdout compared with runtimes masked.
# The outputs, the exit codes and the merge `group [` stdout lines (output
# directory stripped) must match. Prints one line per preset and job
# count; exits 1 on any difference, 2 on a usage error.
set -u

[ $# -ge 3 ] || { echo "usage: $0 PARENT_BIN NEW_BIN PRESETS_DIR [WORK_DIR]" >&2; exit 2; }
parent=$1 new=$2 presets=$3
work=${4:-$(mktemp -d)}
for b in "$parent" "$new"; do
  [ -x "$b" ] || { echo "$0: not executable: $b" >&2; exit 2; }
done

# run BIN PRESET JOBS OUT: write one binary's outputs for a preset to OUT.
run() {
  bin=$1 p=$2 j=$3 out=$4
  rm -rf "$out" && mkdir -p "$out"
  "$bin" merge -n "$p/design.nl" -o "$out/plain" --audit "$out/audit.json" \
    --dot --progress --events "$out/events.raw" --metrics "$out/metrics.raw" \
    -j "$j" "$p"/*.sdc > "$out/stdout" 2> "$out/stderr"
  echo "merge $?" > "$out/codes"
  for f in events metrics; do
    sed -E 's/([:,[])-?[0-9][0-9.eE+-]*/\1N/g' "$out/$f.raw" > "$out/$f.txt"
  done
  "$bin" merge -n "$p/design.nl" -o "$out/ann" --annotate -j "$j" \
    "$p"/*.sdc > /dev/null 2>&1
  echo "annotate $?" >> "$out/codes"
  "$bin" sta -n "$p/design.nl" --paths 3 $(ls "$p"/*.sdc | head -3) \
    > "$out/sta.raw" 2>&1
  echo "sta $?" >> "$out/codes"
  sed -E 's/, [0-9.]+s$/, Xs/' "$out/sta.raw" > "$out/sta.txt"
  members=$(sed -n 's/^ *group \[\([^]]*\)\].*/\1/p' "$out/stdout" | head -1 |
    tr -d ',' | sed "s|[^ ][^ ]*|$p/&.sdc|g")
  "$bin" check -n "$p/design.nl" -m "$out/plain/merged_0.sdc" $members \
    > "$out/check.raw" 2>&1
  echo "check $?" >> "$out/codes"
  "$bin" relations -n "$p/design.nl" $(ls "$p"/*.sdc | head -1) \
    > "$out/relations.raw" 2>&1
  echo "relations $?" >> "$out/codes"
  for f in check relations; do
    sed -E 's/ [0-9.]+s\b/ Xs/g' "$out/$f.raw" > "$out/$f.txt"
  done
  grep '^ *group \[' "$out/stdout" | sed "s|$out/||g" > "$out/groups.txt"
  rm -f "$out/stdout" "$out/stderr" "$out"/*.raw
}

status=0
for p in "$presets"/*/; do
  p=${p%/}
  name=$(basename "$p")
  for j in 1 2; do
    run "$parent" "$p" "$j" "$work/$name.j$j/parent"
    run "$new" "$p" "$j" "$work/$name.j$j/new"
    if d=$(diff -rq "$work/$name.j$j/parent" "$work/$name.j$j/new"); then
      n=$(find "$work/$name.j$j/new" -type f | wc -l)
      echo "$name -j $j: identical ($n files)"
    else
      echo "$name -j $j: DIFFERENT"
      echo "$d" | sed 's/^/  /'
      status=1
    fi
  done
done
exit $status
