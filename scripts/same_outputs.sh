#!/usr/bin/env bash
# Write the deterministic outputs of every metd command into one directory,
# so that two checkouts can be compared with `diff -r`.
#
#   scripts/same_outputs.sh <checkout> <outdir>
#
# For configs/synthetic.cfg at seeds 7 and 8, for a projected-mean, SGD,
# count_scope = batch variant of it, for a variant with 3 descriptors
# per class on 2 subclusters (so purity matches 3 x 2 tables), and for a
# "clips" variant whose units are sequences of up to 4 frames, this runs
# synth, train, eval, decode (against configs/vocab.tsv, so a token_dim
# other than 16 records the dimension-mismatch exit), compare and fdcheck
# with <checkout>/src on PYTHONPATH.  A "bad-rows" case evals the seed-7
# checkpoint on a copy of its test split whose third line has label 99,
# so a dataset error message is compared too.  A "bad-files" case evals
# a copy of the seed-7 checkpoint whose header says temperature=-1, and
# decodes the seed-7 checkpoint against a copy of configs/vocab.tsv whose
# fourth line repeats the word of its second, so a checkpoint header
# error and a vocabulary row error are compared as well.  It keeps the datasets,
# checkpoints, metrics logs, eval reports and every command's stdout,
# stderr and exit status.  Wall times and the directory part of printed
# paths vary from run to run and are dropped.  Example:
#
#   scripts/same_outputs.sh . /tmp/after
#   scripts/same_outputs.sh ../parent /tmp/before
#   diff -r /tmp/before /tmp/after && echo identical
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <checkout> <outdir>" >&2
    exit 2
fi
checkout=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

# The config at $1 with each "key = value" of $2.. replacing that key's line.
override() {
    local base=$1
    shift
    local keys
    keys=$(printf '%s\n' "$@" | sed 's/ *=.*//' | paste -sd '|')
    grep -vE "^(${keys}) *=" "$base"
    printf '%s\n' "$@"
}

# Run one metd command; keep its stdout, with paths made relative to the
# case directory and wall times removed, its stderr, with paths made
# relative, and its exit status.
run() {
    local dir=$1 name=$2
    shift 2
    local status=0
    PYTHONPATH="$checkout/src" python3 -m metd "$@" >"$dir/$name.raw" 2>"$dir/$name.err.raw" \
        || status=$?
    sed -e "s|$dir/||g" -e 's/ wall_time=[^ ]*//' "$dir/$name.raw" >"$dir/$name.out"
    sed -e "s|$dir/||g" "$dir/$name.err.raw" >"$dir/$name.err"
    rm "$dir/$name.raw" "$dir/$name.err.raw"
    echo "$name exit $status" >>"$dir/status"
}

# Make case directory $1 with the config overrides $2.. and synth its data.
synth_case() {
    local dir="$out/$1"
    shift
    rm -rf "$dir"
    mkdir -p "$dir"
    override "$checkout/configs/synthetic.cfg" "$@" >"$dir/run.cfg"
    run "$dir" synth synth --config "$dir/run.cfg" "$dir/data"
}

# Train, eval, decode, compare and fdcheck case $1 on its data.
run_case() {
    local dir="$out/$1"
    run "$dir" train train --config "$dir/run.cfg" "$dir/data" "$dir/model.ckpt"
    run "$dir" eval eval --out "$dir/eval.txt" "$dir/model.ckpt" "$dir/data/test.tsv"
    run "$dir" decode decode --config "$dir/run.cfg" "$dir/model.ckpt" \
        "$checkout/configs/vocab.tsv"
    run "$dir" compare compare --config "$dir/run.cfg" "$dir/data"
    run "$dir" fdcheck fdcheck --config "$dir/run.cfg"
}

case_dir() {
    synth_case "$@"
    run_case "$1"
}

# Rewrite dataset $1 in place so each run of up to 4 rows with the same
# class and subcluster is one sequence.  With $2 = drop, every other
# class-0 sequence is left out, so oversampling has to duplicate sequences.
regroup() {
    awk -F'\t' -v OFS='\t' -v drop="$2" '
        NR == 1 { print; next }
        ($1 FS $3) != key || n == 4 { key = $1 FS $3; n = 0; seq++; if ($1 == 0) zero++ }
        { n++; $2 = seq }
        !(drop == "drop" && $1 == 0 && zero % 2 == 0)
    ' "$1" >"$1.tmp"
    mv "$1.tmp" "$1"
}

case_dir seed7 "seed = 7"
case_dir seed8 "seed = 8"
case_dir projected-sgd-batch "seed = 7" \
    "encoder_kind = projected-mean" "token_dim = 12" \
    "stage1_optimizer = sgd-momentum" "stage2_optimizer = sgd-momentum" \
    "stage1_schedule = cosine" "count_scope = batch" "oversample = true" \
    "stage1_epochs = 4" "stage2_epochs = 4"
case_dir three-descriptors "seed = 7" "n_subclasses = 3"
synth_case clips "seed = 7" "oversample = true" "stage1_epochs = 4" "stage2_epochs = 4"
regroup "$out/clips/data/train.tsv" drop
regroup "$out/clips/data/test.tsv" keep
run_case clips

bad="$out/bad-rows"
rm -rf "$bad"
mkdir -p "$bad"
awk -F'\t' -v OFS='\t' 'NR == 3 { $1 = 99 } { print }' "$out/seed7/data/test.tsv" >"$bad/test.tsv"
run "$bad" eval eval "$out/seed7/model.ckpt" "$bad/test.tsv"

bad="$out/bad-files"
rm -rf "$bad"
mkdir -p "$bad"
sed '1s/temperature=[^ ]*/temperature=-1/' "$out/seed7/model.ckpt" >"$bad/model.ckpt"
run "$bad" eval eval "$bad/model.ckpt" "$out/seed7/data/test.tsv"
awk -F'\t' -v OFS='\t' 'NR == 2 { word = $1 } NR == 4 { $1 = word } { print }' \
    "$checkout/configs/vocab.tsv" >"$bad/vocab.tsv"
run "$bad" decode decode --config "$out/seed7/run.cfg" "$out/seed7/model.ckpt" "$bad/vocab.tsv"
