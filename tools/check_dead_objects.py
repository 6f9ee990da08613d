#!/usr/bin/env python3
"""Fail when the core library carries an object the `genoc` CLI never links.

`genoc` links `libgenoc_core.a` statically, so the linker pulls in an
archive member only when the CLI needs one of its symbols. A member none
of whose strong (global, non-weak) symbols is defined in the `genoc`
binary is dead production code: at best a test-only helper, at worst a
module nothing reaches any more.

The test-only objects that remain are listed in TEST_ONLY below. The check
fails when
  * an object outside the list is dead (delete it, or move it to tests/),
  * a listed object is linked into `genoc` again (drop it from the list),
  * a listed object is gone from the library (drop it from the list),
so the list can only shrink.

Archive members carry only a base name (`render.cpp.o`). They are named
here by their source path under src/ without the extension
(`sim/render`). Where two sources share a base name (`obs/trace.cpp`,
`sim/trace.cpp`) the k-th such member is the k-th such path in sorted
order, the order the build globs and archives them in.

Usage: tools/check_dead_objects.py [LIB] [GENOC] [--src DIR]
  LIB    the core archive (default build/src/libgenoc_core.a)
  GENOC  the CLI binary (default build/genoc)
Exit 0 when only the listed objects are dead, 1 otherwise.
"""
import argparse
import collections
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Objects only the tests, benches and examples link. Shrink-only.
TEST_ONLY = {
    "core/injection_time",
    "deadlock/channel_dep",
    "deadlock/impact",
    "deadlock/scc_checker",
    "graph/johnson",
    "graph/tarjan",
    "sim/render",
    "sim/trace",
    "util/csv",
}

# nm type letters of global, non-weak definitions (W/V are weak, U is
# undefined, lower case is local).
STRONG = set("TDBRGSC")


def run(*args):
    return subprocess.run(args, check=True, capture_output=True,
                          text=True).stdout


def member_names(lib, src):
    """Archive members in archive order, named by their source path."""
    members = [m for m in run("ar", "t", str(lib)).split() if m]
    by_base = collections.defaultdict(list)
    for path in sorted(src.rglob("*.cpp")):
        by_base[path.name + ".o"].append(
            path.relative_to(src).with_suffix("").as_posix())
    seen = collections.Counter()
    names = []
    for member in members:
        candidates = by_base.get(member, [])
        index = seen[member]
        seen[member] += 1
        names.append(candidates[index] if index < len(candidates)
                     else member)
    return names


def strong_symbols_per_member(lib):
    """Strong symbols of each archive member, in archive order."""
    per_member = []
    for line in run("nm", "--defined-only", str(lib)).splitlines():
        if line.endswith(".o:"):
            per_member.append(set())
            continue
        parts = line.split()
        if len(parts) == 3 and parts[1] in STRONG and per_member:
            per_member[-1].add(parts[2])
    return per_member


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lib", nargs="?",
                        default=str(ROOT / "build/src/libgenoc_core.a"))
    parser.add_argument("genoc", nargs="?", default=str(ROOT / "build/genoc"))
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args()

    names = member_names(pathlib.Path(args.lib), pathlib.Path(args.src))
    symbols = strong_symbols_per_member(args.lib)
    if len(names) != len(symbols):
        print(f"ar lists {len(names)} members but nm reports "
              f"{len(symbols)}", file=sys.stderr)
        return 1
    linked = {parts[2] for parts in
              (line.split() for line in
               run("nm", "--defined-only", args.genoc).splitlines())
              if len(parts) == 3}

    dead = {name for name, syms in zip(names, symbols)
            if not syms & linked}
    problems = []
    for name in sorted(dead - TEST_ONLY):
        problems.append(f"{name}: no strong symbol of it is linked into "
                        "genoc; delete it or move it to tests/")
    for name in sorted((TEST_ONLY - dead) & set(names)):
        problems.append(f"{name}: listed as test-only but genoc links it; "
                        "drop it from TEST_ONLY")
    for name in sorted(TEST_ONLY - set(names)):
        problems.append(f"{name}: listed as test-only but not in the "
                        "library; drop it from TEST_ONLY")
    for problem in problems:
        print(problem)
    print(f"{len(names)} objects, {len(dead)} not linked into genoc "
          f"({len(TEST_ONLY)} listed test-only): "
          f"{'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
