#!/usr/bin/env python3
"""Check the handle barrier's inlining in a release binary.

Usage (from the repository root):

    dune build --profile release test/main.exe
    python3 bench/micro/check_barrier_inlining.py _build/default/test/main.exe

Disassembles the binary with `objdump -d` and fails (exit 1) when

  * `Collector.load_ref`, `Collector.use_handle_page`, `Vm.load_word` or
    `Vm.store_word` calls (or tail-jumps to) one of the leaf helpers that
    carry `[@inline]` -- a helper that grew a closure, a recursion or a
    `let rec` is no longer inlined and shows up here as a call; or
  * `Machine.load`/`Machine.store` stop being calls from them: inlining
    those measured 32% slower on graph-mc (DESIGN.md, "Hot path &
    performance").

Symbols are matched by name up to their numeric suffix, which moves from
build to build.  Exit 2 means the binary or objdump could not be read.
"""

import re
import subprocess
import sys

# The barrier entry points: every symbol of the form <prefix>_<digits>,
# including the `_inner` body an optional argument compiles to.
ENTRIES = {
    "Collector.load_ref": r"camlHcsgc_core__Collector\.load_ref_\d+",
    "Collector.use_handle_page": r"camlHcsgc_core__Collector\.use_handle_page_\d+",
    "Vm.load_word": r"camlHcsgc_runtime__Vm\.load_word_(inner_)?\d+",
    "Vm.store_word": r"camlHcsgc_runtime__Vm\.store_word_(inner_)?\d+",
}

# Leaf helpers that must be inlined into the entries above.
INLINED = {
    "camlHcsgc_util__Bitmap": ["check", "get", "set", "test_and_set"],
    "camlHcsgc_heap__Page": [
        "object_at", "bit_of", "bit_at", "mark_live", "mark_live_at",
        "get_ref", "set_ref", "flag_hot", "read", "write", "word_index",
        "get_word_at", "set_word_at",
    ],
    "camlHcsgc_heap__Heap_obj": [
        "ref_slot_addr", "payload_addr", "ref_slot_addr_at",
        "payload_addr_at", "live_addr", "addr", "checked",
    ],
    "camlHcsgc_heap__Addr": ["is_null", "addr", "has_color", "bit_of"],
    "camlHcsgc_heap__Heap": ["page_of_addr"],
    "camlHcsgc_heap__Page_table": ["page_of_addr"],
    "camlHcsgc_core__Collector": [
        "page_at", "page_of_obj", "slot_addr", "mark_on",
    ],
    "camlHcsgc_core__Gc_stats": ["on_barrier"],
}

# Entry -> the machine access it must still call out of line.
MACHINE_LOAD = ("Machine.load", r"camlHcsgc_memsim__Machine\.load_\d+")
MACHINE_STORE = ("Machine.store", r"camlHcsgc_memsim__Machine\.store_\d+")
MUST_CALL = {
    "Collector.load_ref": MACHINE_LOAD,
    "Vm.load_word": MACHINE_LOAD,
    "Vm.store_word": MACHINE_STORE,
}

FORBIDDEN = re.compile(
    "^(?:"
    + "|".join(
        re.escape(mod) + r"\.(?:" + "|".join(names) + r")_\d+"
        for mod, names in INLINED.items()
    )
    + ")$"
)

HEADER = re.compile(r"^[0-9a-f]+ <([^>]+)>:$")
BRANCH = re.compile(r"\s(?:call|jmp)q?\s+[0-9a-f]+\s+<([^>+]+)>")


def callees(binary):
    """Map each entry name to the set of functions its symbols branch to."""
    try:
        dis = subprocess.run(
            ["objdump", "-d", "--no-show-raw-insn", binary],
            check=True, capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"cannot disassemble {binary}: {e}", file=sys.stderr)
        sys.exit(2)
    entry_res = {k: re.compile("^" + v + "$") for k, v in ENTRIES.items()}
    found = {k: set() for k in ENTRIES}
    seen = {k: [] for k in ENTRIES}
    current = None
    for line in dis.splitlines():
        m = HEADER.match(line)
        if m:
            sym = m.group(1)
            current = None
            for k, r in entry_res.items():
                if r.match(sym):
                    current = k
                    seen[k].append(sym)
            continue
        if current is None:
            continue
        m = BRANCH.search(line)
        if m:
            found[current].add(m.group(1))
    return found, seen


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    found, seen = callees(sys.argv[1])
    failures = []
    for entry, syms in seen.items():
        if not syms:
            failures.append(f"{entry}: no symbol in the binary")
            continue
        bad = sorted(c for c in found[entry] if FORBIDDEN.match(c))
        for c in bad:
            failures.append(f"{entry} calls {c}, which should be inlined")
        if entry in MUST_CALL:
            name, pattern = MUST_CALL[entry]
            if not any(re.match("^" + pattern + "$", c) for c in found[entry]):
                failures.append(
                    f"{entry} no longer calls {name} out of line "
                    "(inlining Machine.load/store measured +32%)"
                )
        print(f"{entry} ({', '.join(syms)}): {len(found[entry])} callees, "
              f"{len(bad)} inlinable helper calls")
    for f in failures:
        print("FAIL: " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
