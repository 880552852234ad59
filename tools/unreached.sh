#!/usr/bin/env bash
# Lists the src/ functions that no shipped binary links: the examples/
# and bench/ programs and perfbench. Code only tests reach shows up here.
#
# Usage: tools/unreached.sh [scratch-dir]   (default: build-unreached)
#
# Every target is built with -ffunction-sections and linked with
# --gc-sections, so a binary's symbol table keeps exactly the functions
# something in it can call; -fno-inline keeps small functions visible as
# symbols. A function defined in a src/ library (by file and line, from
# the debug line table) that no binary keeps is printed as
#   <file>:<line> <function>
# Functions that match a pattern in tools/unreached.allow (extended
# regular expressions over the demangled name; test seams only) are
# listed separately. Exits 1 if any other function is unreached.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
scratch=$(mkdir -p "${1:-$root/build-unreached}" && cd "${1:-$root/build-unreached}" && pwd)
allow="$root/tools/unreached.allow"
jobs=$(nproc 2>/dev/null || echo 2)

configure() { # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Unreached \
    -DCMAKE_CXX_FLAGS_UNREACHED="-O1 -g1 -fno-inline -ffunction-sections -fdata-sections -DNDEBUG" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
}

targets=$(sed -n 's/^truediff_add_\(example\|bench\)(\([A-Za-z0-9_]*\).*/\2/p' \
  "$root/examples/CMakeLists.txt" "$root/bench/CMakeLists.txt")

log="$scratch/build.log"
build() { # <source dir> <build dir> <target>...
  local src=$1 dir=$2
  shift 2
  configure "$src" "$dir" >>"$log" 2>&1 &&
    cmake --build "$dir" -j "$jobs" --target "$@" >>"$log" 2>&1 ||
    { cat "$log" >&2; echo "unreached: build failed" >&2; exit 2; }
}
: >"$log"
# shellcheck disable=SC2086
build "$root" "$scratch/main" $targets
build "$root/perfbench" "$scratch/perfbench" perfbench

# Every function the binaries keep, by demangled name.
reached="$scratch/reached.txt"
{
  for t in $targets; do
    for bin in "$scratch/main/examples/$t" "$scratch/main/bench/$t"; do
      [ -x "$bin" ] && nm -C --defined-only "$bin"
    done
  done
  nm -C --defined-only "$scratch/perfbench/perfbench"
} | awk '{ split($0, f, " ") }
        f[2] ~ /^[TtWw]$/ { print substr($0, length(f[1]) + length(f[2]) + 3) }' |
  sort -u >"$reached"

# Every function of the project's own namespaces that the src/ libraries
# define in a src/ file, as "<name>\t<file>:<line>", first site only.
# Library template instantiations (std::) and lambdas, which go with the
# function that holds them, are left out.
defined="$scratch/defined.txt"
find "$scratch/main/src" -name '*.a' -print0 | xargs -0 nm -C -l --defined-only |
  awk -F'\t' -v src="$root/src/" '
    NF == 2 && index($2, src) == 1 {
      split($1, f, " "); if (f[2] !~ /^[TtWw]$/) next
      name = substr($1, length(f[1]) + length(f[2]) + 3)
      if (name !~ /^(truediff::|\(anonymous namespace\)::)/ || name ~ /\{lambda/) next
      if (!(name in seen)) { seen[name] = 1; print name "\t" substr($2, length(src) - 3) }
    }' | sort -t"$(printf '\t')" -k1,1 >"$defined"

unreached="$scratch/unreached.txt"
awk -F'\t' 'NR == FNR { kept[$0] = 1; next } !($1 in kept)' "$reached" "$defined" |
  sort -t"$(printf '\t')" -k2,2 >"$unreached"

patterns=$(grep -v '^[[:space:]]*\(#\|$\)' "$allow" || true)

allowed=0 flagged=0
while IFS=$'\t' read -r name site; do
  if [ -n "$patterns" ] && grep -qE -f <(printf '%s\n' "$patterns") <<<"$name"; then
    allowed=$((allowed + 1))
    echo "allowed   $site $name"
  else
    flagged=$((flagged + 1))
    echo "UNREACHED $site $name"
  fi
done <"$unreached"

echo "# $flagged unreached src/ function(s), $allowed allowed test seam(s)"
[ "$flagged" -eq 0 ]
