#!/usr/bin/env python3
"""Codegen tripwire for the interleaving verifier's zero-cost claim.

Compiles tools/verify_codegen_probe.cpp to assembly twice with the
project compiler:

  1. WITHOUT -DHEMLOCK_VERIFY: the assembly must contain NO verifier
     residue — no yield tag strings (``hemlock:queued`` etc.) and no
     reference to the ``tl_hook`` thread-local. This is the acceptance
     criterion that a normal build's instrumented headers compile to
     the same code as an uninstrumented tree (HEMLOCK_VERIFY_YIELD
     expands to ``((void)0)``).

  2. WITH -DHEMLOCK_VERIFY: the same residue MUST appear. This guards
     the first check against vacuity — if a refactor stopped the probe
     from instantiating instrumented code, check 1 would pass forever
     while proving nothing.

Usage:
  check_verify_off.py --compiler <c++> --source-dir <repo root>
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

# Residue markers: a few per-family yield tags (string literals land in
# .rodata of the -S output), a planted-mutant name, plus the verifier's
# thread-local.
RESIDUE = [
    "hemlock:queued",
    "hemlock:handover",
    "hemlock:deferred",
    "hemlock:speculated",
    "hemlock:announced",
    "hemlock:polite",
    "chain:rescan",
    "grant:ack",
    "mcs:queued",
    "clh:queued",
    "ticket:drawn",
    "anderson:slot",
    "rwlock:announced",
    "rwlock:gate-closed",
    "queue:published",
    "promote:table-read",
    "promote:skip-recheck",
    "memtable:hit",
    "memtable:recycle-early",
    "cache:hit",
    "cache:recycle-early",
    "tl_hook",
]


def compile_to_asm(compiler: str, source_dir: Path, out: Path,
                   verify_on: bool) -> str:
    probe = source_dir / "tools" / "verify_codegen_probe.cpp"
    cmd = [
        compiler,
        "-std=c++20",
        "-O2",
        "-S",
        "-I",
        str(source_dir / "src"),
        str(probe),
        "-o",
        str(out),
    ]
    if verify_on:
        cmd.insert(1, "-DHEMLOCK_VERIFY")
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(
            f"FAIL: probe compile ({'ON' if verify_on else 'OFF'}) failed:\n"
            f"{' '.join(cmd)}\n{res.stderr}"
        )
    return out.read_text(errors="replace")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--compiler", required=True)
    ap.add_argument("--source-dir", required=True, type=Path)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as td:
        asm_off = compile_to_asm(
            args.compiler, args.source_dir, Path(td) / "off.s", False
        )
        asm_on = compile_to_asm(
            args.compiler, args.source_dir, Path(td) / "on.s", True
        )

    leaked = [m for m in RESIDUE if m in asm_off]
    if leaked:
        print(
            "FAIL: verifier residue in the non-verify build's codegen "
            f"(HEMLOCK_VERIFY_YIELD is not zero-cost): {leaked}"
        )
        return 1

    present = [m for m in RESIDUE if m in asm_on]
    if len(present) < len(RESIDUE) // 2:
        print(
            "FAIL: verify-build assembly shows almost no instrumentation "
            f"(only {present}) — the probe no longer exercises the "
            "instrumented paths, so the OFF check above is vacuous"
        )
        return 1

    print(
        f"PASS: OFF assembly clean; ON assembly carries "
        f"{len(present)}/{len(RESIDUE)} residue markers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
