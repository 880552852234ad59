#!/usr/bin/env bash
# A line-level CPU profile of one perfbench workload, for machines without
# perf.
#
# Usage: tools/lineprof.sh <workload> <seconds> [seed]   (seed default 1)
#
# Builds .bench_build/perfbench through perfbench/run.py (one short run,
# not sampled, so the build is not in the profile), builds the LD_PRELOAD
# sampler tools/lineprof_sampler.c, and runs the unmodified perfbench
# binary under it for <seconds> of measurement. The sampler records the
# interrupted program counter once per millisecond of CPU time; each
# address is mapped back through the process's own /proc/self/maps and
# addr2line. Prints the top functions and the top file:line entries, each
# with its share of all samples (the workload's setup and checked pass
# included), innermost inlined frame first. Samples, maps and perfbench's
# output stay in .bench_build/lineprof/. Exits 1 if no sample resolves.
#
# corpus_diff only: the serving workloads block in poll, socket and fsync
# calls whose loops are not shown to retry when a SIGPROF interrupts them
# with EINTR, so their profile could differ from their run.
set -euo pipefail

usage() {
  echo "usage: tools/lineprof.sh <workload> <seconds> [seed]" >&2
  exit 2
}
[ $# -ge 2 ] || usage
workload=$1 seconds=$2 seed=${3:-1}
case "$workload" in
corpus_diff) ;;
serve_write | serve_read_mixed)
  echo "lineprof: $workload is not supported: its event loops and socket" \
    "calls are not shown to tolerate EINTR from SIGPROF" >&2
  exit 2
  ;;
*) usage ;;
esac

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build/lineprof"
mkdir -p "$out"

echo "lineprof: building perfbench (one unsampled run)" >&2
python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 0.1 \
  --trace 0 >"$out/build-run.txt" 2>"$out/build.log" ||
  { tail -20 "$out/build.log" >&2; echo "lineprof: build failed" >&2; exit 2; }
cc -O2 -shared -fPIC -o "$out/lineprof_sampler.so" "$root/tools/lineprof_sampler.c"

rm -f "$out/run.samples" "$out/run.maps"
echo "lineprof: sampling $workload for ${seconds}s (seed $seed)" >&2
LINEPROF_OUT="$out/run" LD_PRELOAD="$out/lineprof_sampler.so" \
  "$root/.bench_build/perfbench" --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0 --out "$out/results" --work "$out/work" \
  >"$out/perfbench.txt"
tail -1 "$out/perfbench.txt"

python3 - "$out/run" "$root" <<'EOF'
import collections, re, subprocess, sys

base, root = sys.argv[1], sys.argv[2] + "/"
maps = []
for line in open(base + ".maps"):
    f = line.split()
    if len(f) >= 6 and "x" in f[1]:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        maps.append((lo, hi, int(f[2], 16), f[5]))
samples = [int(l, 16) for l in open(base + ".samples") if l.strip()]

def load_segments(path):
    """(file offset, vaddr, size) of each PT_LOAD segment of path."""
    segs = []
    text = subprocess.run(["readelf", "-lW", path], capture_output=True,
                          text=True).stdout
    for line in text.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs

# Each sample as (object file, address in that file's vaddr space).
per_file = collections.defaultdict(collections.Counter)
unmapped = 0
for pc in samples:
    for lo, hi, off, path in maps:
        if lo <= pc < hi:
            per_file[path][pc - lo + off] += 1
            break
    else:
        unmapped += 1

func_count = collections.Counter()
line_count = collections.Counter()
for path, offsets in per_file.items():
    segs = load_segments(path) if path.startswith("/") else []
    addrs = {}
    for fileoff in offsets:
        for soff, svaddr, ssize in segs:
            if soff <= fileoff < soff + ssize:
                addrs[fileoff] = fileoff - soff + svaddr
                break
    name = path.rsplit("/", 1)[-1]
    resolved = {}
    if addrs:
        text = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
            input="\n".join("%x" % a for a in addrs.values()),
            capture_output=True, text=True).stdout.splitlines()
        cur = None
        for l in text:
            # -a starts each address's record with the address itself.
            if re.fullmatch(r"0x[0-9a-f]+", l):
                cur = int(l, 16)
                resolved[cur] = []
            elif cur is not None:
                resolved[cur].append(l)
    for fileoff, n in offsets.items():
        frames = resolved.get(addrs.get(fileoff), [])
        if len(frames) >= 2 and frames[0] != "??":
            func_count[frames[0]] += n
            loc = frames[1].split(" (discriminator")[0]
            if loc.startswith(root):
                loc = loc[len(root):]
            line_count[loc] += n
        else:
            func_count["?? (" + name + ")"] += n
            line_count["?? (" + name + ")"] += n

total = len(samples)
print("lineprof: %d samples (%d outside any mapped object)" % (total, unmapped))
if not func_count:
    print("lineprof: no sample resolved", file=sys.stderr)
    sys.exit(1)
for title, counts in (("function (innermost inlined)", func_count),
                      ("file:line", line_count)):
    print("\n%7s %6s  %s" % ("samples", "share", title))
    for key, n in counts.most_common(25):
        print("%7d %5.1f%%  %s" % (n, 100.0 * n / total, key[:150]))
EOF
