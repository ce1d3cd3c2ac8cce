#!/usr/bin/env bash
# inline_check: fails if the compiler stops inlining the reference hit
# path. A cache hit is one out-of-line call, machine.(*Proc).access
# (DESIGN.md "References"): the data accessors that reach it, the hit
# helpers it calls and the DistArray address helpers the kernels call
# must each stay within the inliner's budget, and access must inline
# every hit helper. A later edit that pushes one over — a fmt call in a
# panic path, say — would give the gain back without failing any test,
# so this names the function instead.
#
# Usage: bash scripts/inline_check.sh (run by `make vet`)
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(go build -gcflags=-m ./internal/sim ./internal/cache ./internal/vm ./internal/machine ./internal/apps/... 2>&1)

# file and function, as `go build -gcflags=-m` prints them.
inlinable=(
    "internal/sim/context.go (*Context).TryTick"
    "internal/cache/tlb.go (*TLB).Has"
    "internal/cache/cache.go (*Cache).Hit"
    "internal/vm/vm.go (*PageTable).Record"
    "internal/machine/proc.go (*Proc).ReadU64"
    "internal/machine/proc.go (*Proc).WriteU64"
    "internal/machine/proc.go (*Proc).ReadF64"
    "internal/machine/proc.go (*Proc).WriteF64"
    "internal/apps/apps.go (*DistArray).At"
    "internal/apps/apps.go (*DistArray).AtGlobal"
    "internal/apps/appbt/appbt.go (*App).at"
    "internal/apps/ocean/ocean.go (*App).at"
    "internal/apps/barnes/barnes.go (*App).bodyAt"
    "internal/apps/barnes/barnes.go (*App).cellAt"
    "internal/apps/mp3d/mp3d.go (*App).cellAt"
    "internal/apps/mp3d/mp3d.go (*App).partAt"
)
# calls access must inline, as printed at their call sites in proc.go
# (resolve makes none of them).
inlined=(
    "sim.(*Context).TryTick"
    "cache.(*TLB).Has"
    "cache.(*Cache).Hit"
)

# has <awk condition>: whether some line of the compiler's output meets it.
has() { awk -v f="$1" -v fn="$2" "$3 {found = 1} END {exit !found}" <<<"$out"; }

fail=0
for entry in "${inlinable[@]}"; do
    file=${entry%% *} fn=${entry#* }
    if ! has "$file" "$fn" 'index($1, f ":") == 1 && $2 " " $3 == "can inline" && $4 == fn'; then
        echo "inline_check: $file: $fn is no longer inlinable" >&2
        fail=1
    fi
done
for fn in "${inlined[@]}"; do
    if ! has internal/machine/proc.go "$fn" 'index($1, f ":") == 1 && $2 " " $3 " " $4 == "inlining call to" && $5 == fn'; then
        echo "inline_check: internal/machine/proc.go: access no longer inlines $fn" >&2
        fail=1
    fi
done
exit $fail
