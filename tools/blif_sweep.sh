#!/usr/bin/env bash
# Byte-identity sweep: runs one bdsmaj_cli build over the paper suite and
# writes every optimized network (--out) and mapped netlist (--map-out) as
# BLIF into OUTDIR, so two builds can be compared with `diff -r`.
#
#   tools/blif_sweep.sh CLI OUTDIR [flags...]
#
# Runs the 17 suite circuits at quick widths under every preset of
# `CLI --list-presets` and both BDS flows (--flow bdsmaj|bdspga), then
# through the ABC and DC baselines (--flow abc|dc), plus the 17 full-size
# circuits under --preset paper, all with --no-verify: with the
# five-preset catalog that is 221 runs and 442 files. Extra flags
# (e.g. --no-cone-cache) are passed to every run. OUTDIR is created if
# missing; existing files in it are overwritten. Exits non-zero on the
# first failing run. docs/performance.md ("Byte-identity sweep") has the
# parent-vs-change recipe.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 CLI OUTDIR [flags...]" >&2
    exit 2
fi
CLI="$1"
OUT="$2"
shift 2
mkdir -p "$OUT"

CIRCUITS=(alu2 apex6 bigkey dalu f51m misex3 seq vda C1355 C6288
          "4-Op ADD 16 bit" "CLA 64 bit" "Div 18 bit" "MAC 16 bit"
          "Rev (1/X) 19 bit" "SQRT 32 bit" "Wallace 16 bit")
mapfile -t PRESETS < <("$CLI" --list-presets | awk 'NR > 1 { print $1 }')

# One run: file stem from the label, then --out/--map-out beside it.
run() {
    local stem="$1"
    shift
    "$CLI" --quiet --no-verify "$@" --out "$OUT/$stem.opt.blif" \
        --map-out "$OUT/$stem.map.blif" > /dev/null
}

# Circuit names carry spaces, slashes and parentheses; file names do not.
safe() { printf '%s' "$1" | tr -c 'A-Za-z0-9_-' '_'; }

for circuit in "${CIRCUITS[@]}"; do
    name="$(safe "$circuit")"
    for preset in "${PRESETS[@]}"; do
        for flow in bdsmaj bdspga; do
            run "quick.$name.$preset.$flow" --quick --preset "$preset" \
                --flow "$flow" "$@" "@$circuit"
        done
    done
    for flow in abc dc; do
        run "quick.$name.$flow" --quick --flow "$flow" "$@" "@$circuit"
    done
    run "full.$name.paper.bdsmaj" --preset paper --flow bdsmaj "$@" "@$circuit"
done

echo "$(find "$OUT" -name '*.blif' | wc -l) BLIF files in $OUT"
