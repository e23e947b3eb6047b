#!/usr/bin/env bash
# Net lines added (+) or removed (-) between two trees, in four buckets:
#
#   program  `.rs` lines before a file's first top-level `#[cfg(test)]`
#   test     the `.rs` lines from there on, plus every file under
#            `tests/` and `crates/*/tests/`
#   bench    every file under `perfbench/` and `crates/bench/benches/`
#   docs     `*.md` files
#
# Other files (manifests, scripts, scenarios) are not counted.
#
# Usage: scripts/net_lines.sh BASE [HEAD]
# BASE and HEAD are any git tree-ish (commit, branch, `$(git write-tree)`
# for the staged index); HEAD defaults to `HEAD`. Both trees are read
# through git only, so the work tree is never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE [HEAD]" >&2
    exit 2
fi
base=$1
head=${2:-HEAD}

# `count REV PATH`: prints "program test bench docs" for one file at REV
# (all zero when the file does not exist there).
count() {
    local rev=$1 path=$2
    if ! git cat-file -e "$rev:$path" 2>/dev/null; then
        echo "0 0 0 0"
        return
    fi
    case "$path" in
    perfbench/* | crates/bench/benches/*)
        git cat-file -p "$rev:$path" | awk 'END { print 0, 0, NR, 0 }' ;;
    *.md)
        git cat-file -p "$rev:$path" | awk 'END { print 0, 0, 0, NR }' ;;
    tests/* | crates/*/tests/*)
        git cat-file -p "$rev:$path" | awk 'END { print 0, NR, 0, 0 }' ;;
    *.rs)
        git cat-file -p "$rev:$path" |
            awk '/^#\[cfg\(test\)\]/ { t = 1 } { if (t) test++; else prog++ }
                 END { print prog + 0, test + 0, 0, 0 }' ;;
    *)
        echo "0 0 0 0" ;;
    esac
}

net=(0 0 0 0)
while IFS= read -r path; do
    read -r -a old <<<"$(count "$base" "$path")"
    read -r -a new <<<"$(count "$head" "$path")"
    for i in 0 1 2 3; do
        net[i]=$((net[i] + new[i] - old[i]))
    done
done < <(git diff --no-renames --name-only "$base" "$head")

names=(program test bench docs)
for i in 0 1 2 3; do
    printf '%-8s %+d\n' "${names[i]}" "${net[i]}"
done
