#!/usr/bin/env bash
# Byte-identity against a parent commit's cmocc.
#
# Usage: tools/parent_identity.sh <rev>
#
# Builds <rev>'s cmocc in a temporary git worktree and this working
# tree's cmocc (both --offline, over the vendored crates), then runs
# the two binaries side by side — each in its own directory, with the
# same relative arguments — and cmp's everything they write:
#
#   * --report-json, --trace, and stdout (--emit-asm plus the --run
#     output) on both examples/mlc program sets, at +O1 / +O2 / +O4 /
#     +O4 +P train.db / +O4 +P train.db --sel 20 x -j1 / -j4 x no
#     budget / --budget 0, after comparing the +I training runs and
#     profile databases themselves. +O1 is the one level with the
#     block-local LLO effort; --sel 20 is the production flow (the
#     benchmark's), the only one that runs the hlo.select phase and
#     emits select_site / select_module events, and at 20 % the
#     util+hot+prog set's report keeps 2 of its 3 modules CMO
#     (cmo_modules < total_modules);
#   * the -c objects of both sets and what -c printed, an uncached
#     +O4 +P train.db link of those objects at -j1 / -j4 (stdout,
#     --report-json, --trace), and a +O4 --isolate --run per set at
#     -j1 and at -j4 — the object, make-flow and isolation paths of
#     the front door;
#   * a cold +O4 +P --cache-dir build by each binary (outputs and the
#     cache files it commits), then a warm build by each of a copy of
#     the cache the *parent* wrote — the change's warm build must hit
#     on every module and replay the whole build. When the two trees'
#     CACHE_FORMAT differ, every key moved by design: the change's warm
#     build must instead miss on every module, replay nothing, and
#     print exactly what its own cold build printed.
#
# Prints one line per difference and a summary; exits non-zero if any
# comparison differs or the parent's cache did not replay.
set -euo pipefail

rev="${1:?usage: tools/parent_identity.sh <rev>}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
cleanup() {
    git -C "$repo_root" worktree remove --force "$work/tree" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$repo_root" worktree add --quiet --detach "$work/tree" "$rev"
echo "parent_identity: building $rev"
CARGO_TARGET_DIR="$work/target" cargo build --release --offline --quiet -p cmo \
    --manifest-path "$work/tree/Cargo.toml"
echo "parent_identity: building the working tree"
cargo build --release --offline --quiet -p cmo --manifest-path "$repo_root/Cargo.toml"
parent="$work/target/release/cmocc"
change="${CARGO_TARGET_DIR:-$repo_root/target}/release/cmocc"
change="$(cd "$(dirname "$change")" && pwd)/cmocc"
cache_format() {
    sed -n 's/^pub const CACHE_FORMAT: u32 = \([0-9]*\);$/\1/p' "$1/crates/core/src/cache.rs"
}
parent_format="$(cache_format "$work/tree")"
change_format="$(cache_format "$repo_root")"
[[ -n $parent_format && -n $change_format ]] \
    || { echo "parent_identity: cannot read CACHE_FORMAT" >&2; exit 2; }
if [[ $parent_format != "$change_format" ]]; then
    echo "parent_identity: CACHE_FORMAT $parent_format -> $change_format: the parent's cache must miss"
fi

mkdir -p "$work/p" "$work/c"
cp "$repo_root"/examples/mlc/*.mlc "$work/p/"
cp "$repo_root"/examples/mlc/*.mlc "$work/c/"

checks=0
fails=0
fail() {
    echo "DIFF $*"
    fails=$((fails + 1))
}
# same <file>...: the parent's and the change's copies are identical.
same() {
    local f
    for f in "$@"; do
        checks=$((checks + 1))
        cmp -s "$work/p/$f" "$work/c/$f" || fail "$f"
    done
}
# both <tag> <args>...: runs each binary in its own directory, stdout
# to <tag>.out.
both() {
    local tag=$1
    shift
    (cd "$work/p" && "$parent" "$@" > "$tag.out")
    (cd "$work/c" && "$change" "$@" > "$tag.out")
}

for set in "lib.mlc app.mlc:500" "util.mlc hot.mlc prog.mlc:50"; do
    read -ra srcs <<< "${set%:*}"
    input="${set#*:}"
    name="${srcs[0]%.mlc}"
    db="$name-train.db"
    both "$name-train" +I --run "$input" --profile-out "$db" "${srcs[@]}"
    same "$name-train.out" "$db"

    objs=("${srcs[@]/%.mlc/.cmo}")
    both "$name-c" -c "${srcs[@]}"
    same "$name-c.out" "${objs[@]}"
    for j in 1 4; do
        tag="$name-objects-j$j"
        both "$tag" +O4 +P "$db" "-j$j" --run "$input" --emit-asm \
            --report-json "$tag.json" --trace "$tag.jsonl" "${objs[@]}"
        same "$tag.out" "$tag.json" "$tag.jsonl"
    done
    for j in 1 4; do
        both "$name-isolate-j$j" +O4 "-j$j" --run "$input" --isolate "${srcs[@]}"
        same "$name-isolate-j$j.out"
    done

    for level in O1 O2 O4 O4P O4PS; do
        case $level in
            O1) flags=(+O1) ;;
            O2) flags=(+O2) ;;
            O4) flags=(+O4) ;;
            O4P) flags=(+O4 +P "$db") ;;
            O4PS) flags=(+O4 +P "$db" --sel 20) ;;
        esac
        for j in 1 4; do
            for budget in roomy tight; do
                extra=()
                [[ $budget == tight ]] && extra=(--budget 0)
                tag="$name-$level-j$j-$budget"
                both "$tag" "${flags[@]}" "-j$j" "${extra[@]}" --run "$input" --emit-asm \
                    --report-json "$tag.json" --trace "$tag.jsonl" "${srcs[@]}"
                same "$tag.out" "$tag.json" "$tag.jsonl"
            done
        done
    done

    for j in 1 4; do
        tag="$name-cache-j$j"
        args=(+O4 +P "$db" "-j$j" --run "$input" --emit-asm --cache-dir "$tag")
        both "$tag-cold" "${args[@]}" --report-json "$tag-cold.json" \
            --trace "$tag-cold.jsonl" "${srcs[@]}"
        same "$tag-cold.out" "$tag-cold.json" "$tag-cold.jsonl" \
            "$tag/repo.naim" "$tag/manifest.tsv" "$tag/commit.journal"
        rm -rf "${work:?}/c/$tag"
        cp -r "$work/p/$tag" "$work/c/$tag"
        both "$tag-warm" "${args[@]}" --report-json "$tag-warm.json" \
            --trace "$tag-warm.jsonl" "${srcs[@]}"
        warm="$work/c/$tag-warm.jsonl"
        if [[ $parent_format == "$change_format" ]]; then
            same "$tag-warm.out" "$tag-warm.json" "$tag-warm.jsonl"
            expect=hit
            grep -q '"action":"replay","scope":"build"' "$warm" \
                || fail "$tag-warm: the parent's cache did not replay the build"
        else
            checks=$((checks + 1))
            cmp -s <(grep -v '^wrote ' "$work/c/$tag-warm.out") \
                <(grep -v '^wrote ' "$work/c/$tag-cold.out") \
                || fail "$tag-warm.out: differs from the change's own cold build"
            expect=miss
            ! grep -q '"action":"replay"' "$warm" \
                || fail "$tag-warm: a cache of another format replayed the build"
        fi
        for src in "${srcs[@]}"; do
            grep -q "\"action\":\"$expect\",\"scope\":\"module\",\"name\":\"${src%.mlc}\"" \
                "$warm" || fail "$tag-warm: no module $expect for ${src%.mlc}"
        done
    done
done

echo "parent_identity: $checks comparisons against $rev, $fails differ"
[[ $fails -eq 0 ]]
