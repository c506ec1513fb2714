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
#   - sta --paths 3 on the first three modes, and on every merged mode
#     the merge wrote, at the same -j, runtime column masked;
#   - check -m merged_0.sdc against the members of the first `group [`
#     line (the one-shot comparison behind equivalence checking),
#     relations on every mode, lint on the first mode, and explain four
#     ways (no query, --pair of the first and last mode, --id
#     merged_0#c0, --line with the second line of merged_0.sdc), stdout
#     compared with runtimes masked;
#   - gen (the files it writes and its stdout);
#   - three error paths: an unknown --budget stage, a missing netlist
#     and an SDC syntax error under --strict.
# The outputs, the exit codes, the merge `group [` stdout lines and the
# stderr of merge --annotate and of the error paths (output directory
# stripped, runtimes masked) must match. Prints one line per preset and job
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
    "$p"/*.sdc > /dev/null 2> "$out/merge.err"
  echo "annotate $?" >> "$out/codes"
  "$bin" sta -n "$p/design.nl" --paths 3 -j "$j" $(ls "$p"/*.sdc | head -3) \
    > "$out/sta.raw" 2>&1
  echo "sta $?" >> "$out/codes"
  "$bin" sta -n "$p/design.nl" --paths 3 -j "$j" "$out/plain"/merged_*.sdc \
    > "$out/sta_merged.raw" 2>&1
  echo "sta_merged $?" >> "$out/codes"
  members=$(sed -n 's/^ *group \[\([^]]*\)\].*/\1/p' "$out/stdout" | head -1 |
    tr -d ',' | sed "s|[^ ][^ ]*|$p/&.sdc|g")
  "$bin" check -n "$p/design.nl" -m "$out/plain/merged_0.sdc" $members \
    > "$out/check.raw" 2>&1
  echo "check $?" >> "$out/codes"
  first=$(ls "$p"/*.sdc | head -1) last=$(ls "$p"/*.sdc | tail -1)
  "$bin" relations -n "$p/design.nl" "$p"/*.sdc > "$out/relations.raw" 2>&1
  echo "relations $?" >> "$out/codes"
  "$bin" lint -n "$p/design.nl" "$first" > "$out/lint.raw" 2>&1
  echo "lint $?" >> "$out/codes"
  line=$(sed -n 2p "$out/plain/merged_0.sdc")
  i=0
  for q in "" "--pair $(basename "$first" .sdc),$(basename "$last" .sdc)" \
    "--id merged_0#c0" "--line"; do
    i=$((i + 1))
    if [ "$q" = --line ]; then set -- --line "$line"; else set -- $q; fi
    "$bin" explain -n "$p/design.nl" -j "$j" "$@" "$p"/*.sdc \
      > "$out/explain$i.raw" 2>&1
    echo "explain$i $?" >> "$out/codes"
  done
  "$bin" gen -o "$out/gen" --seed 3 --domains 2 --regs 8 --families 2,1 \
    > "$out/gen.raw" 2>&1
  echo "gen $?" >> "$out/codes"
  "$bin" merge -n "$p/design.nl" -o "$out/e1" --budget nosuch=1 "$first" \
    > /dev/null 2> "$out/err_budget.raw"
  echo "err_budget $?" >> "$out/codes"
  "$bin" merge -n "$p/nosuch.nl" -o "$out/e2" "$first" \
    > /dev/null 2> "$out/err_netlist.raw"
  echo "err_netlist $?" >> "$out/codes"
  { cat "$first"; printf 'create_clock -period 5 -name c [get_ports\n'; } \
    > "$out/broken.sdc"
  "$bin" merge -n "$p/design.nl" -o "$out/e3" --strict "$out/broken.sdc" \
    "$last" > /dev/null 2> "$out/err_syntax.raw"
  echo "err_syntax $?" >> "$out/codes"
  mv "$out/merge.err" "$out/merge_err.raw"
  for f in check relations lint explain1 explain2 explain3 explain4 gen \
    err_budget err_netlist err_syntax merge_err; do
    sed -E -e 's/ [0-9.]+s\b/ Xs/g' -e "s|$out/||g" "$out/$f.raw" \
      > "$out/$f.txt"
  done
  for f in sta sta_merged; do
    sed -E -e 's/, [0-9.]+s$/, Xs/' -e "s|$out/||g" "$out/$f.raw" \
      > "$out/$f.txt"
  done
  grep '^ *group \[' "$out/stdout" | sed "s|$out/||g" > "$out/groups.txt"
  rm -f "$out/stdout" "$out/stderr" "$out"/*.raw "$out/broken.sdc"
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
