#!/usr/bin/env python3
"""Turn a leafprof sample dump into a per-symbol table.

    python3 tools/leafprof/symbolize.py leafprof.<pid>.rips [--top N]

Reads the `.rips` file and the `.maps` file written beside it, maps every
sampled address to the object it fell in and that object's symbol (by `nm`,
nearest symbol at or below the address), and prints samples, share and
symbol, most-sampled first. Objects without a static symbol table (a
stripped libc) fall back to `nm -D`, whose exported symbols leave most of
the code unnamed. An address past the end of the nearest symbol below it
(by `nm -S`) is not that symbol's: it prints as `object+0xOFF (past
SYMBOL)`, every sample of that unnamed stretch pooled under the lowest
sampled address OFF — where to start `objdump -d`.
"""

import argparse
import bisect
import collections
import os
import struct
import subprocess
import sys


def read_maps(path):
    """Executable mappings as (start, end, file offset, object path)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return maps


def load_segments(path):
    """The ELF file's PT_LOAD segments as (file offset, vaddr, file size)."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2 or ident[5] != 1:
            return []  # Only 64-bit little-endian ELF.
        phoff, = struct.unpack_from("<Q", ident, 32)
        phentsize, phnum = struct.unpack_from("<HH", ident, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize
        )
        if p_type == 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def load_symbols(path):
    """Sorted (address, size, name) of the object's functions, by `nm -S`;
    size 0 where `nm` gives none."""
    for dynamic in ([], ["-D"]):
        out = subprocess.run(
            ["nm", "-n", "-S", "-C", "--defined-only", *dynamic, path],
            capture_output=True,
            text=True,
        ).stdout
        symbols = []
        for line in out.splitlines():
            parts = line.split(None, 3)
            if len(parts) >= 3 and len(parts[1]) == 1:  # no size column
                addr, size, kind, name = parts[0], "0", parts[1], line.split(None, 2)[2]
            elif len(parts) == 4:
                addr, size, kind, name = parts
            else:
                continue
            if len(kind) == 1 and kind in "tTwWiI":
                symbols.append((int(addr, 16), int(size, 16), name))
        if symbols:
            return symbols
    return []


class Objects:
    """Per-object segments and symbols, loaded on first use."""

    def __init__(self):
        self.cache = {}

    def get(self, path):
        if path not in self.cache:
            try:
                segments, symbols = load_segments(path), load_symbols(path)
            except OSError:
                segments, symbols = [], []
            self.cache[path] = (
                segments,
                [a for a, _, _ in symbols],
                [size for _, size, _ in symbols],
                [name for _, _, name in symbols],
            )
        return self.cache[path]

    def name(self, path, file_offset):
        """The symbol `file_offset` falls in; past the end of the nearest
        symbol below it, `(object, vaddr, that symbol)` instead."""
        segments, addrs, sizes, names = self.get(path)
        vaddr = next(
            (v + file_offset - o for o, v, n in segments if o <= file_offset < o + n),
            file_offset,
        )
        k = bisect.bisect_right(addrs, vaddr) - 1
        if k < 0:
            return f"{path}+{file_offset:#x}"
        if 0 < sizes[k] <= vaddr - addrs[k]:
            return (os.path.basename(path), vaddr, names[k])
        return names[k]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rips", help="leafprof.<pid>.rips")
    parser.add_argument("--maps", help="default: the .maps file beside RIPS")
    parser.add_argument("--top", type=int, default=40)
    args = parser.parse_args()
    maps = read_maps(args.maps or args.rips[: -len(".rips")] + ".maps")
    starts = [m[0] for m in maps]
    objects = Objects()
    counts = collections.Counter()
    lowest = {}  # (object, symbol) of an unnamed stretch -> lowest vaddr
    total = 0
    with open(args.rips) as f:
        for line in f:
            rip = int(line, 16)
            total += 1
            k = bisect.bisect_right(starts, rip) - 1
            if k < 0 or rip >= maps[k][1] or not maps[k][3].startswith("/"):
                counts["[unmapped or anonymous]"] += 1
                continue
            start, _end, offset, path = maps[k]
            where = objects.name(path, rip - start + offset)
            if isinstance(where, tuple):
                obj, vaddr, symbol = where
                where = (obj, symbol)
                lowest[where] = min(lowest.get(where, vaddr), vaddr)
            counts[where] += 1
    if total == 0:
        sys.exit("no samples")
    print(f"{total} samples")
    for where, n in counts.most_common(args.top):
        if isinstance(where, tuple):
            obj, symbol = where
            where = f"{obj}+{lowest[where]:#x} (past {symbol})"
        print(f"{n:8d} {100.0 * n / total:6.2f} %  {where}")


if __name__ == "__main__":
    main()
