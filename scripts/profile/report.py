#!/usr/bin/env python3
"""Summarize a prof.<pid>.txt written by sampler.c, symbolized by nm -C -S.

    python3 scripts/profile/report.py prof.1234.txt [--top 30] [--depth 3]
    python3 scripts/profile/report.py prof.1234.txt --match '^(send|recv)@'

Self and inclusive sample shares per function, then per caller chain of
--depth frames (self: the innermost ones; inclusive: any run on the stack).
--match REGEX prints instead the summed self share of the functions whose
names match (re.search), one line per function and a total.
"""

import argparse
import bisect
import collections
import functools
import re
import struct
import subprocess


def parse(path):
    samples, maps, in_maps = [], [], False
    for line in open(path):
        parts = line.split()
        if line.startswith("# maps"):
            in_maps = True
        elif in_maps and len(parts) >= 6 and "x" in parts[1]:
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            maps.append((lo, hi, int(parts[2], 16), parts[5]))
        elif not in_maps and parts and parts[0] != "#":
            samples.append([int(pc, 16) for pc in parts])
    return samples, sorted(maps)


def elf_loads(path):
    """(shared, [(p_offset, p_vaddr, p_filesz) of PT_LOAD]) of ELF64."""
    try:
        with open(path, "rb") as elf:
            data = elf.read()
    except OSError:  # [vdso] and the like
        return False, []
    if data[:5] != b"\x7fELF\x02":
        return False, []
    phoff, = struct.unpack_from("<Q", data, 32)
    size, count = struct.unpack_from("<HH", data, 54)
    rows = [struct.unpack_from("<IIQQQQ", data, phoff + i * size)
            for i in range(count)]
    return data[16] == 3, [(r[2], r[3], r[5]) for r in rows if r[0] == 1]


def symbols(path):
    """Sorted (address, end or None, name) of the text symbols of path."""
    for extra in ([], ["-D"]):  # stripped libraries keep dynamic symbols
        out = subprocess.run(["nm", "-C", "-S", "--defined-only"] + extra +
                             [path], capture_output=True, text=True).stdout
        table = []
        for parts in (line.split(" ", 3) for line in out.splitlines()):
            if len(parts) == 3:  # no size: the symbol runs to the next one
                parts = [parts[0], ""] + parts[1:]
            if len(parts) == 4 and parts[2] in "tTwWiI":
                addr, size = int(parts[0], 16), parts[1]
                table.append((addr, addr + int(size, 16) if size else None,
                              parts[3]))
        if table:
            return sorted(table, key=lambda s: s[0])
    return []


def symbolizer(maps):
    starts, files = [m[0] for m in maps], {}

    @functools.lru_cache(maxsize=None)
    def name(pc):
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            return "[unknown]"
        lo, _, offset, path = maps[i]
        if path not in files:
            shared, loads = elf_loads(path)
            table = symbols(path) if loads else []
            files[path] = shared, loads, table, [s[0] for s in table]
        shared, loads, table, addrs = files[path]
        addr = file_off = pc - lo + offset
        for off, vaddr, size in loads:
            if off <= file_off < off + size:
                addr = file_off - off + vaddr if shared else pc
        j = bisect.bisect_right(addrs, addr) - 1
        if j >= 0 and (table[j][1] is None or addr < table[j][1]):
            return table[j][2]
        return "[%s+%#x]" % (path.rsplit("/", 1)[-1], file_off)
    return name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--match", metavar="REGEX",
                        help="summed self share of the matching functions")
    opts = parser.parse_args()
    samples, maps = parse(opts.profile)
    if not samples:
        raise SystemExit("report.py: no samples in " + opts.profile)
    name, total = symbolizer(maps), len(samples)
    counts = [collections.Counter() for _ in range(4)]
    for stack in samples:
        # Callers are return addresses: resolve the call instruction.
        names = [name(pc - (k > 0)) for k, pc in enumerate(stack)]
        d = min(opts.depth, len(names))
        chains = [" < ".join(names[at:at + d])
                  for at in range(len(names) - d + 1)]
        for counter, keys in zip(counts, ([names[0]], set(names),
                                          [chains[0]], set(chains))):
            counter.update(keys)
    if opts.match is not None:
        pattern = re.compile(opts.match)
        hits = sorted((key for key in counts[0] if pattern.search(key)),
                      key=lambda k: (-counts[0][k], k))
        for key in hits:
            print("%6.2f  %s" % (100.0 * counts[0][key] / total, key))
        print("%6.2f  self share of /%s/ (%d functions, %d samples)" % (
            100.0 * sum(counts[0][k] for k in hits) / total, opts.match,
            len(hits), total))
        return
    for title, own, incl in (("functions", *counts[:2]),
                             ("caller chains, callee < caller", *counts[2:])):
        print("\n== %s: self%%, inclusive%% of %d samples" % (title, total))
        for key in sorted(incl, key=lambda k: (-incl[k], k))[:opts.top]:
            print("%6.2f %6.2f  %s" % (100.0 * own[key] / total,
                                       100.0 * incl[key] / total, key))


if __name__ == "__main__":
    main()
