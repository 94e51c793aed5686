#!/usr/bin/env bash
# Runs every cmocc invocation documented in README.md against the MLC
# sources in examples/mlc/, so the docs cannot drift from the CLI.
#
# Usage: tools/check_docs.sh [path-to-cmocc]
#
# Builds target/release/cmocc when no binary is given. Exits non-zero
# on the first invocation that fails or documented claim that does not
# hold (warm-cache report replay, mmap on/declined byte identity).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cmocc="${1:-}"
if [[ -z "$cmocc" ]]; then
    (cd "$repo_root" && cargo build --release -p cmo --quiet)
    cmocc="$repo_root/target/release/cmocc"
fi
cmocc="$(cd "$(dirname "$cmocc")" && pwd)/$(basename "$cmocc")"
[[ -x "$cmocc" ]] || { echo "check_docs: $cmocc is not executable" >&2; exit 1; }

work="$(mktemp -d)"
daemon_pid=""
trap '[[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null; rm -rf "$work"' EXIT
cp "$repo_root"/examples/mlc/*.mlc "$work/"
cd "$work"

step=0
run() {
    step=$((step + 1))
    echo "check_docs [$step]: cmocc $*"
    "$cmocc" "$@"
}

# --- Quickstart: separate compilation, train, ship, parallel build ---
run -c lib.mlc app.mlc
[[ -f lib.cmo && -f app.cmo ]] || { echo "check_docs: -c did not emit .cmo objects" >&2; exit 1; }
run +I --run 500 --profile-out train.db lib.cmo app.cmo
[[ -f train.db ]] || { echo "check_docs: training did not write train.db" >&2; exit 1; }
run +O4 +P train.db --report --run 500 lib.cmo app.cmo
run -j4 +O4 --report --run 500 lib.cmo app.cmo

# --- Object bytes feed every cache key: they may not drift ---
# (examples/mlc/OBJECTS.cksum is regenerated only with a CACHE_FORMAT bump.)
run -c app.mlc hot.mlc lib.mlc prog.mlc util.mlc
cksum app.cmo hot.cmo lib.cmo prog.cmo util.cmo | diff "$repo_root/examples/mlc/OBJECTS.cksum" - \
    || { echo "check_docs: examples/mlc objects differ from OBJECTS.cksum" >&2; exit 1; }

# --- Structured telemetry: --report-json / --trace ---
run +O4 +P train.db --report-json r.json --trace t.jsonl lib.cmo app.cmo
grep -q '"cmo.report.v1"' r.json || { echo "check_docs: r.json missing cmo.report.v1 schema" >&2; exit 1; }
grep -q '"cmo.trace.v1"' t.jsonl || { echo "check_docs: t.jsonl missing cmo.trace.v1 schema" >&2; exit 1; }

# --- NAIM under the tightest budget: same image, bounded effort ---
# (Mirrors CI's tight-budget step: --budget 0 compacts and offloads on
# every unload; the assembly must equal the unbudgeted build's at -j1
# and -j4, the two budgeted reports must be identical, and each pool is
# compacted at most three times per build.)
cp "$repo_root"/examples/mlc/{util,hot,prog}.mlc .
for files in "lib.mlc app.mlc" "util.mlc hot.mlc prog.mlc"; do
    for j in 1 4; do
        step=$((step + 1))
        echo "check_docs [$step]: cmocc +O4 --budget 0 -j$j --report-json naim-j$j.json --emit-asm $files"
        "$cmocc" +O4 --budget 0 -j$j --report-json naim-j$j.json --emit-asm $files \
            | grep -v '^wrote ' > naim-j$j.asm
    done
    step=$((step + 1))
    echo "check_docs [$step]: cmocc +O4 --emit-asm $files"
    "$cmocc" +O4 --emit-asm $files | grep -v '^wrote ' > naim-roomy.asm
    cmp naim-j1.asm naim-j4.asm && cmp naim-j1.asm naim-roomy.asm \
        || { echo "check_docs: --budget 0 changed the image ($files)" >&2; exit 1; }
    cmp naim-j1.json naim-j4.json \
        || { echo "check_docs: budgeted report differs between -j1 and -j4 ($files)" >&2; exit 1; }
    pools=$(sed -n 's/^ *"pools": \([0-9]*\),*$/\1/p' naim-j1.json)
    compactions=$(sed -n 's/^ *"compactions": \([0-9]*\),*$/\1/p' naim-j1.json)
    [[ $compactions -gt 0 && $compactions -le $((3 * pools)) ]] \
        || { echo "check_docs: $compactions compactions over $pools pools ($files): want 1..3x" >&2; exit 1; }
done

# --- Incremental recompilation: --cache-dir cold then warm ---
run +O4 --cache-dir .cmo-cache --report-json cold.json lib.mlc app.mlc
[[ -f .cmo-cache/repo.naim && -f .cmo-cache/manifest.tsv ]] \
    || { echo "check_docs: cache dir missing repo.naim/manifest.tsv" >&2; exit 1; }
committed="$(cd .cmo-cache && cksum repo.naim manifest.tsv commit.journal)"
run +O4 --cache-dir .cmo-cache --report-json warm.json lib.mlc app.mlc
cmp cold.json warm.json || { echo "check_docs: warm cache report differs from cold" >&2; exit 1; }
# A build that changes nothing commits nothing: no byte of the cache moves.
[[ "$(cd .cmo-cache && cksum repo.naim manifest.tsv commit.journal)" == "$committed" ]] \
    || { echo "check_docs: the warm build rewrote the cache it only read" >&2; exit 1; }

# --- Zero-copy toggle: declining the mmap (CMO_NO_MMAP=1) must not change the report ---
step=$((step + 1))
echo "check_docs [$step]: CMO_NO_MMAP=1 cmocc +O4 --cache-dir .cmo-cache-nomap --report-json nomap.json lib.mlc app.mlc"
env CMO_NO_MMAP=1 "$cmocc" +O4 --cache-dir .cmo-cache-nomap --report-json nomap.json lib.mlc app.mlc
cmp cold.json nomap.json || { echo "check_docs: CMO_NO_MMAP=1 changed the report" >&2; exit 1; }

# --- Cache compaction: --gc-cache shrinks repo.naim, replay intact ---
# (An edit commits a second generation; its index segment orphans the
# first one, which is the dead weight the compaction reclaims.)
printf '\nfn check_docs_touched(x: int) -> int { return x; }\n' >> lib.mlc
run +O4 --cache-dir .cmo-cache lib.mlc app.mlc
cp "$repo_root/examples/mlc/lib.mlc" lib.mlc
before=$(wc -c < .cmo-cache/repo.naim)
run --gc-cache --cache-dir .cmo-cache
after=$(wc -c < .cmo-cache/repo.naim)
[[ $after -lt $before ]] \
    || { echo "check_docs: --gc-cache did not shrink repo.naim ($before -> $after)" >&2; exit 1; }
run +O4 --cache-dir .cmo-cache --report-json gc-warm.json lib.mlc app.mlc
cmp cold.json gc-warm.json || { echo "check_docs: post-gc warm report differs from cold" >&2; exit 1; }

# --- A retrain reuses every front-end object; only the build re-runs ---
run -c util.mlc hot.mlc prog.mlc
run +I --run 50 --profile-out rt-train.db util.cmo hot.cmo prog.cmo
run +O4 +P rt-train.db --cache-dir .cmo-cache-rt --report-json rt-cold.json util.mlc hot.mlc prog.mlc
run +I --run 500 --profile-out rt-retrain.db util.cmo hot.cmo prog.cmo
rt_warm="$("$cmocc" +O4 +P rt-retrain.db --cache-dir .cmo-cache-rt --report util.mlc hot.mlc prog.mlc)"
step=$((step + 1))
echo "check_docs [$step]: cmocc +O4 +P rt-retrain.db --cache-dir .cmo-cache-rt --report util.mlc hot.mlc prog.mlc"
grep -q 'cache: 3 module hits, 0 misses' <<< "$rt_warm" \
    || { echo "check_docs: retrain-warm build did not reuse all 3 module entries" >&2; exit 1; }
grep -q 'build replay: no' <<< "$rt_warm" \
    || { echo "check_docs: retrain-warm build replayed a build of the old profile" >&2; exit 1; }

# --- The code tier: an edit re-lowers only the routines it changed ---
# (Mirrors CI's incr-edit job. A routine nothing calls is appended to
# one module: every live routine's lowering is replayed from its code
# slot, no slot is rewritten, the trace is the same at -j1 and -j4 and
# the image is an uncached build's. Then one line of a live routine's
# body changes: exactly its module's slot is stored again.)
asm() { # asm <file> <cmocc args>: the disassembly alone, into <file>
    local out="$1"
    shift
    step=$((step + 1))
    echo "check_docs [$step]: cmocc $* --emit-asm > $out"
    "$cmocc" "$@" --emit-asm | grep -v '^wrote ' > "$out"
}
cp "$repo_root"/examples/mlc/{util,hot,prog}.mlc .
run +O4 +P rt-train.db --cache-dir .cmo-cache-ie util.mlc hot.mlc prog.mlc
printf '\nfn check_docs_spare(x: int) -> int { return x; }\n' >> util.mlc
cp -r .cmo-cache-ie .cmo-cache-ie4
asm ie-j1.asm +O4 +P rt-train.db -j1 --cache-dir .cmo-cache-ie --trace ie-j1.jsonl util.mlc hot.mlc prog.mlc
asm ie-j4.asm +O4 +P rt-train.db -j4 --cache-dir .cmo-cache-ie4 --trace ie-j4.jsonl util.mlc hot.mlc prog.mlc
cmp ie-j1.jsonl ie-j4.jsonl || { echo "check_docs: the edit's trace differs between -j1 and -j4" >&2; exit 1; }
asm ie-uncached.asm +O4 +P rt-train.db util.mlc hot.mlc prog.mlc
cmp ie-j1.asm ie-uncached.asm && cmp ie-j4.asm ie-uncached.asm \
    || { echo "check_docs: the edit's cached image differs from an uncached build" >&2; exit 1; }
grep -q '"action":"hit","scope":"code"' ie-j1.jsonl \
    || { echo "check_docs: the edit fetched no code slot" >&2; exit 1; }
if grep -q '"action":"store","scope":"code"' ie-j1.jsonl; then
    echo "check_docs: an edit that changed no live routine rewrote a code slot" >&2; exit 1
fi
sed -i 's/a = a + 2;/a = a + 3;/' hot.mlc
run +O4 +P rt-train.db --cache-dir .cmo-cache-ie --trace ie-live.jsonl util.mlc hot.mlc prog.mlc
[[ "$(grep -c '"action":"store","scope":"code"' ie-live.jsonl)" -eq 1 ]] \
    || { echo "check_docs: a one-line body edit should store exactly one code slot" >&2; exit 1; }
grep -q '"action":"store","scope":"code","name":"hot"' ie-live.jsonl \
    || { echo "check_docs: the rewritten slot is not the edited module's" >&2; exit 1; }
cp "$repo_root"/examples/mlc/{util,hot}.mlc .

# --- Shared remote cache: cold through the daemon, dead-daemon build
# --- degrades but succeeds, fresh machine replays warm from the daemon
cmocached="$(dirname "$cmocc")/cmocached"
[[ -x "$cmocached" ]] || { echo "check_docs: $cmocached is not executable (built alongside cmocc)" >&2; exit 1; }
"$cmocached" --store daemon-store --listen 127.0.0.1:0 > daemon.out &
daemon_pid=$!
for _ in $(seq 50); do grep -q 'listening on' daemon.out 2>/dev/null && break; sleep 0.1; done
addr="$(sed -n 's/^listening on //p' daemon.out)"
[[ -n "$addr" ]] || { echo "check_docs: cmocached never reported its address" >&2; exit 1; }
run +O4 --cache-dir .cmo-cache-r1 --remote-cache "$addr" --report-json rc-cold.json lib.mlc app.mlc
run +O4 --cache-dir .cmo-cache-r2 --remote-cache "$addr" --report-json rc-warm.json lib.mlc app.mlc
cmp rc-cold.json rc-warm.json || { echo "check_docs: remote-warm report differs from cold" >&2; exit 1; }
kill "$daemon_pid"; wait "$daemon_pid" 2>/dev/null || true; daemon_pid=""
run +O4 --cache-dir .cmo-cache-r3 --remote-cache "$addr" --remote-timeout-ms 200 --remote-retries 1 --report-json rc-dead.json lib.mlc app.mlc
grep -q '"breaker_open": true' rc-dead.json \
    || { echo "check_docs: dead-daemon build did not record the demotion" >&2; exit 1; }

# --- Removed flags are unknown options (usage error, exit 2) ---
for flag in --no-cache --no-mmap; do
    set +e
    "$cmocc" +O4 "$flag" --cache-dir .cmo-cache lib.mlc app.mlc 2>/dev/null
    rc=$?
    set -e
    [[ $rc -eq 2 ]] || { echo "check_docs: $flag should exit 2, got $rc" >&2; exit 1; }
done

echo "check_docs: all $step documented invocations behave as described"
