#!/bin/sh
# Code lines per crate: non-blank, non-comment lines before the first
# `#[cfg(test)]` or `#![cfg(test)]` of each file (a file of the latter
# kind, a test-only module, counts nothing), summed over every `*.rs` under
# crates/*/src (recursively: submodules and `src/bin/` count) and
# src/bin/lnpram.rs. The measure ROADMAP's "the variable to minimise is
# concepts and lines" refers to; run from the repository root.
count() {
    find "$@" -name '*.rs' -exec awk '
        FNR==1{t=0} /^#!?\[cfg\(test\)\]/{t=1} t{next}
        {s=$0; sub(/^[ \t]+/,"",s); if (s=="" || s ~ /^\/\//) next; n++}
        END{print n+0}' {} + | awk '{n+=$1} END{print n+0}'
}
total=0
for dir in crates/*/src; do
    lines=$(count "$dir")
    printf '%s\t%s\n' "$(basename "$(dirname "$dir")")" "$lines"
    total=$((total + lines))
done
lines=$(count src/bin/lnpram.rs)
printf 'lnpram (bin)\t%s\n' "$lines"
printf 'total\t%s\n' $((total + lines))

# Second table: raw `.rs` line counts (blank lines, comments and test
# modules included) of the Rust the first table does not see, so a
# deletion outside crates/*/src shows up too. A missing directory reads 0.
raw() {
    find "$@" -name '*.rs' -exec cat {} + 2>/dev/null | wc -l | tr -d ' '
}
printf '\nraw .rs lines outside crates/*/src\n'
total=0
for dir in bench_layers/src tests examples 'crates/*/tests' vendor; do
    # shellcheck disable=SC2086 # the crates/*/tests entry is a glob
    lines=$(raw $dir)
    printf '%s\t%s\n' "$dir" "$lines"
    total=$((total + lines))
done
printf 'total\t%s\n' "$total"
