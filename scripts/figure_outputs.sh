#!/bin/sh
# Print every fig/table bench at NVFS_SCALE 0.05, 0.2 and 1.0, plus
# `nvfs_sim sweep --trace 3 --scale 0.05`, one file each, so two build
# trees (e.g. SIMD and -DNVFS_SCALAR_FALLBACK=ON) can be diffed:
#
#   scripts/figure_outputs.sh build out-simd
#   scripts/figure_outputs.sh build-scalar out-scalar
#   diff -r out-simd out-scalar
#
# Exits non-zero if any binary fails.
set -eu

build=$1
out=$2
mkdir -p "$out"

for scale in 0.05 0.2 1.0; do
    for bench in "$build"/bench/fig[0-9]* "$build"/bench/table[0-9_]*; do
        [ -f "$bench" ] && [ -x "$bench" ] || continue
        name=$(basename "$bench")
        NVFS_SCALE=$scale "$bench" > "$out/$name-$scale.txt"
    done
done
"$build"/tools/nvfs_sim sweep --trace 3 --scale 0.05 \
    > "$out/nvfs_sim_sweep_t3-0.05.txt"
