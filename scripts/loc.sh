#!/bin/sh
# Code lines per crate: non-blank, non-comment lines before the first
# `#[cfg(test)]` of each file, summed over every `*.rs` under
# crates/*/src (recursively: submodules and `src/bin/` count) and
# src/bin/lnpram.rs. The measure ROADMAP's "the variable to minimise is
# concepts and lines" refers to; run from the repository root.
count() {
    find "$@" -name '*.rs' -exec awk '
        FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} t{next}
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
