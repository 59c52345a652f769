#!/usr/bin/env bash
# Write the deterministic outputs of every metd command into one directory,
# so that two checkouts can be compared with `diff -r`.
#
#   scripts/same_outputs.sh <checkout> <outdir>
#
# For configs/synthetic.cfg at seeds 7 and 8, for a projected-mean, SGD,
# count_scope = batch variant of it, for a "decay" variant with stage-1
# weight decay 0.05 and a stage-2 momentum SGD without decay (so a
# one-array fit with decay, in stage 1 and in the learnable-context
# baseline, and a two-array momentum fit without it), for a variant
# with 3 descriptors per class on 2 subclusters (so purity matches
# 3 x 2 tables), for the term-list edge shapes (a "one-descriptor"
# variant with 1 descriptor per class, a "two-classes" variant with
# 2 classes, and a "wide-grid" variant with 5 classes of 3 descriptors,
# whose term lists of 13 and 12 entries pass NumPy's 8-wide pairwise
# sums), and for a "clips" variant whose units are sequences of up
# to 4 frames, this runs synth, train, eval, decode (against
# configs/vocab.tsv, so a token_dim
# other than 16 records the dimension-mismatch exit), compare and fdcheck
# with <checkout>/src on PYTHONPATH.  A "bad-rows" case evals the seed-7
# checkpoint on a copy of its test split whose third line has label 99,
# on two more copies whose line 40 holds a malformed float or one value
# too few, and on two whose line 2 or line 40 holds one value too many,
# and evals the clips checkpoint on four copies of its test split that
# each break one rule (a sequence that mixes labels, one that mixes
# subcluster ids, one that is not contiguous, a negative subcluster id),
# so nine dataset error messages are compared too.  A
# "bad-files" case evals a copy of the seed-7 checkpoint whose header
# says temperature=-1 and one whose header says seed=-1, evals the seed-7
# checkpoint on a copy of its test split whose third line holds the byte
# 0xff, which is not UTF-8, and decodes the seed-7 checkpoint against a
# copy of configs/vocab.tsv whose fourth line repeats the word of its
# second, and against a vocabulary whose header says dim=0, and runs
# fdcheck with a config whose second line holds the byte 0xe9, so two
# checkpoint header errors, two vocabulary errors and a config error are
# compared as well.  A "bad-bytes" case puts two faults in one file, a
# fault on one line and the byte 0xff on the next, so the order in which
# a reader meets them is compared: it evals the seed-7 checkpoint on a copy
# of its test split whose line 3 holds a malformed float and whose line 4
# holds 0xff, decodes against a copy of configs/vocab.tsv with the same two
# faults, and runs fdcheck with a config whose line 1 has no "=" and whose
# line 3 holds 0xff.  A "partial-ids" case evals the seed-7 checkpoint on a
# copy of its test split with every third subcluster id set to "-", and on
# one with all of them set to "-", so purity over a split that mixes known
# and unknown ids, and its absence, are compared.  A "bad-configs" case
# runs fdcheck with one config per config error class (unknown key,
# duplicate key, missing "=", empty value, bad integer, non-finite float,
# bad bool, n_tokens = 0, a negative seed, unknown encoder_kind, unknown
# strategy, duplicate strategy, and the identity-mean and residual
# conflicts), so each config error's text, key and line are compared too,
# and runs train on the seed-7 data at temperature = 1e-320, whose
# reciprocal overflows.  An "fdcheck-wide" case runs
# fdcheck on 60 instances at seeds 0 and 101, which cover both encoder
# kinds and both adapter kinds, and once more at seed 0 with
# fdcheck_corrupt = true, the control that must fail.  An "fdcheck-step"
# case runs fdcheck at fdcheck_step = 1e-3 and 1e-7, where x + h and
# x - h round differently than at the default step.  A "synth-edge" case
# runs synth at the geometry limits of the default 3 classes x 2
# subclusters: at feature_dim = 6, at feature_dim = 5, which must exit 2
# without writing anything, and with 3 subclusters at the simplex-limit
# intra_class_angle = 120.  An "empty-split" case runs compare with
# strategies = linear-probe, metd on a copy of the seed-7 data whose
# train.tsv holds only its header, and on one whose test.tsv does, and
# runs train with oversample = true on the copy with the empty train.tsv,
# so the empty-split errors are compared too.  A "zero-unit" case runs
# train and compare on a copy of the seed-7 data whose train unit 217
# (line 219) has all-zero features, which neither stage 1 nor the
# learnable-context baseline can score.  It keeps the datasets,
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
case_dir decay "seed = 7" "stage1_weight_decay = 0.05" \
    "stage2_optimizer = sgd-momentum" "stage2_weight_decay = 0" \
    "stage1_epochs = 4" "stage2_epochs = 4"
case_dir three-descriptors "seed = 7" "n_subclasses = 3"
case_dir one-descriptor "seed = 7" "n_subclasses = 1"
case_dir two-classes "seed = 7" "n_classes = 2"
case_dir wide-grid "seed = 7" "n_classes = 5" "n_subclasses = 3"
synth_case clips "seed = 7" "oversample = true" "stage1_epochs = 4" "stage2_epochs = 4"
regroup "$out/clips/data/train.tsv" drop
regroup "$out/clips/data/test.tsv" keep
run_case clips

bad="$out/bad-rows"
rm -rf "$bad"
mkdir -p "$bad"
awk -F'\t' -v OFS='\t' 'NR == 3 { $1 = 99 } { print }' "$out/seed7/data/test.tsv" >"$bad/test.tsv"
run "$bad" eval eval "$out/seed7/model.ckpt" "$bad/test.tsv"
awk -F'\t' -v OFS='\t' 'NR == 40 { sub(/,/, "x,", $4) } { print }' \
    "$out/seed7/data/test.tsv" >"$bad/test-bad-float.tsv"
run "$bad" eval-bad-float eval "$out/seed7/model.ckpt" "$bad/test-bad-float.tsv"
awk -F'\t' -v OFS='\t' 'NR == 40 { sub(/,[^,]*$/, "", $4) } { print }' \
    "$out/seed7/data/test.tsv" >"$bad/test-short-row.tsv"
run "$bad" eval-short-row eval "$out/seed7/model.ckpt" "$bad/test-short-row.tsv"
# One value too many on the first data row, whose width the parser checks
# itself, and on line 40, whose width loadtxt checks against the first row's.
for line in 2 40; do
    awk -F'\t' -v OFS='\t' -v n="$line" 'NR == n { $4 = $4 ",0.5" } { print }' \
        "$out/seed7/data/test.tsv" >"$bad/test-long-row-$line.tsv"
    run "$bad" "eval-long-row-$line" eval "$out/seed7/model.ckpt" "$bad/test-long-row-$line.tsv"
done
# Four copies of the clips test split, each breaking one sequence or id rule
# past line 20: the first row that continues a sequence gets another label,
# or another subcluster id; the first row that starts a sequence takes the
# id of the file's first sequence; line 25 gets subcluster id -1.
clips_rule() {
    awk -F'\t' -v OFS='\t' "NR == 2 { first = \$2 } { seq = \$2 } $2 { prev = seq; print }" \
        "$out/clips/data/test.tsv" >"$bad/clips-$1.tsv"
    run "$bad" "eval-clips-$1" eval "$out/clips/model.ckpt" "$bad/clips-$1.tsv"
}
clips_rule mixed-labels 'NR > 20 && !done && seq == prev { $1 = ($1 + 1) % 3; done = 1 }'
clips_rule mixed-subclusters 'NR > 20 && !done && seq == prev { $3 = $3 + 1; done = 1 }'
clips_rule not-contiguous 'NR > 20 && !done && seq != prev { $2 = first; done = 1 }'
clips_rule negative-subcluster 'NR == 25 { $3 = -1 }'

bad="$out/bad-files"
rm -rf "$bad"
mkdir -p "$bad"
sed '1s/temperature=[^ ]*/temperature=-1/' "$out/seed7/model.ckpt" >"$bad/model.ckpt"
run "$bad" eval eval "$bad/model.ckpt" "$out/seed7/data/test.tsv"
sed '1s/seed=[^ ]*$/seed=-1/' "$out/seed7/model.ckpt" >"$bad/negative-seed.ckpt"
run "$bad" eval-negative-seed eval "$bad/negative-seed.ckpt" "$out/seed7/data/test.tsv"
awk 'NR == 3 { sub(/\t/, "\t\377") } { print }' "$out/seed7/data/test.tsv" >"$bad/not-utf8.tsv"
run "$bad" eval-not-utf8 eval "$out/seed7/model.ckpt" "$bad/not-utf8.tsv"
awk -F'\t' -v OFS='\t' 'NR == 2 { word = $1 } NR == 4 { $1 = word } { print }' \
    "$checkout/configs/vocab.tsv" >"$bad/vocab.tsv"
run "$bad" decode decode --config "$out/seed7/run.cfg" "$out/seed7/model.ckpt" "$bad/vocab.tsv"
printf 'metd-vocab v1 dim=0\na\t\n' >"$bad/vocab-dim0.tsv"
run "$bad" decode-dim0 decode --config "$out/seed7/run.cfg" "$out/seed7/model.ckpt" \
    "$bad/vocab-dim0.tsv"
printf 'seed = 7\n# caf\351\n' >"$bad/not-utf8.cfg"
run "$bad" fdcheck-not-utf8 fdcheck --config "$bad/not-utf8.cfg"

bytes="$out/bad-bytes"
rm -rf "$bytes"
mkdir -p "$bytes"
awk -F'\t' -v OFS='\t' 'NR == 3 { sub(/,/, "x,", $4) } NR == 4 { sub(/\t/, "\t\377") } { print }' \
    "$out/seed7/data/test.tsv" >"$bytes/test.tsv"
run "$bytes" eval eval "$out/seed7/model.ckpt" "$bytes/test.tsv"
awk -F'\t' -v OFS='\t' 'NR == 3 { sub(/,/, "x,", $2) } NR == 4 { sub(/\t/, "\t\377") } { print }' \
    "$checkout/configs/vocab.tsv" >"$bytes/vocab.tsv"
run "$bytes" decode decode --config "$out/seed7/run.cfg" "$out/seed7/model.ckpt" "$bytes/vocab.tsv"
printf 'seed 7\nfdcheck_instances = 2\n# caf\377\n' >"$bytes/run.cfg"
run "$bytes" fdcheck fdcheck --config "$bytes/run.cfg"

ids="$out/partial-ids"
rm -rf "$ids"
mkdir -p "$ids"
awk -F'\t' -v OFS='\t' 'NR > 1 && (NR - 1) % 3 == 0 { $3 = "-" } { print }' \
    "$out/seed7/data/test.tsv" >"$ids/every-third.tsv"
awk -F'\t' -v OFS='\t' 'NR > 1 { $3 = "-" } { print }' "$out/seed7/data/test.tsv" >"$ids/none.tsv"
for split in every-third none; do
    run "$ids" "eval-$split" eval --out "$ids/eval-$split.txt" "$out/seed7/model.ckpt" \
        "$ids/$split.tsv"
done

cfgs="$out/bad-configs"
rm -rf "$cfgs"
mkdir -p "$cfgs"
# Config $1 holds a comment line, then the lines $2.., so errors are at line 2 or later.
bad_config() {
    local name=$1
    shift
    printf '# %s\n' "$name" >"$cfgs/$name.cfg"
    printf '%s\n' "$@" >>"$cfgs/$name.cfg"
    run "$cfgs" "fdcheck-$name" fdcheck --config "$cfgs/$name.cfg"
}
bad_config unknown-key "sigmaa = 0.1"
bad_config duplicate-key "seed = 1" "seed = 2"
bad_config missing-equals "seed 5"
bad_config empty-value "seed ="
bad_config bad-integer "n_classes = 1.5"
bad_config non-finite "sigma = inf"
bad_config bad-bool "oversample = yes"
bad_config zero-tokens "seed = 1" "n_tokens = 0"
bad_config negative-seed "seed = -1"
bad_config unknown-encoder "encoder_kind = mystery"
bad_config unknown-strategy "strategies = metd, warp"
bad_config duplicate-strategy "strategies = metd, metd"
bad_config identity-mean-conflict "token_dim = 8"
bad_config residual-conflict "feature_dim = 8"
override "$out/seed7/run.cfg" "temperature = 1e-320" >"$cfgs/tiny-temperature.cfg"
run "$cfgs" train-tiny-temperature train --config "$cfgs/tiny-temperature.cfg" \
    "$out/seed7/data" "$cfgs/tiny-temperature.ckpt"

wide="$out/fdcheck-wide"
rm -rf "$wide"
mkdir -p "$wide"
for seed in 0 101; do
    printf 'seed = %s\nfdcheck_instances = 60\n' "$seed" >"$wide/seed$seed.cfg"
    run "$wide" "fdcheck-seed$seed" fdcheck --config "$wide/seed$seed.cfg"
done
printf 'seed = 0\nfdcheck_instances = 60\nfdcheck_corrupt = true\n' >"$wide/corrupt.cfg"
run "$wide" fdcheck-corrupt fdcheck --config "$wide/corrupt.cfg"

step="$out/fdcheck-step"
rm -rf "$step"
mkdir -p "$step"
for h in 1e-3 1e-7; do
    printf 'seed = 7\nfdcheck_step = %s\n' "$h" >"$step/step$h.cfg"
    run "$step" "fdcheck-step$h" fdcheck --config "$step/step$h.cfg"
done

edge="$out/synth-edge"
rm -rf "$edge"
mkdir -p "$edge"
printf 'samples_per_subcluster = 5\nfeature_dim = 6\nembed_dim = 6\ntoken_dim = 6\n' \
    >"$edge/tight.cfg"
printf 'samples_per_subcluster = 5\nfeature_dim = 5\nembed_dim = 5\ntoken_dim = 5\n' \
    >"$edge/narrow.cfg"
printf 'samples_per_subcluster = 5\nsubclusters_per_class = 3\nintra_class_angle = 120\n' \
    >"$edge/simplex.cfg"
for name in tight narrow simplex; do
    run "$edge" "synth-$name" synth --config "$edge/$name.cfg" "$edge/$name"
done
# The narrow case must leave no directory behind.
ls "$edge" >"$edge/listing"

empty="$out/empty-split"
rm -rf "$empty"
mkdir -p "$empty"
override "$out/seed7/run.cfg" "strategies = linear-probe, metd" >"$empty/run.cfg"
for split in train test; do
    mkdir -p "$empty/$split"
    cp "$out/seed7/data/train.tsv" "$out/seed7/data/test.tsv" "$empty/$split/"
    head -n 1 "$out/seed7/data/$split.tsv" >"$empty/$split/$split.tsv"
    run "$empty" "compare-empty-$split" compare --config "$empty/run.cfg" "$empty/$split"
done
override "$empty/run.cfg" "oversample = true" >"$empty/oversample.cfg"
run "$empty" train-empty-oversample train --config "$empty/oversample.cfg" "$empty/train" \
    "$empty/train/model.ckpt"

zero="$out/zero-unit"
rm -rf "$zero"
mkdir -p "$zero/data"
cp "$out/seed7/data/test.tsv" "$zero/data/"
awk -F'\t' -v OFS='\t' 'NR == 219 { gsub(/[^,]+/, "0", $4) } { print }' \
    "$out/seed7/data/train.tsv" >"$zero/data/train.tsv"
run "$zero" train train --config "$out/seed7/run.cfg" "$zero/data" "$zero/model.ckpt"
run "$zero" compare compare --config "$out/seed7/run.cfg" "$zero/data"
