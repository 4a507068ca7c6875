#!/usr/bin/env python3
"""Codegen tripwire for the telemetry hooks' zero-cost-when-off claim.

Compiles tools/telemetry_codegen_probe.cpp to assembly twice with the
project compiler:

  1. WITH -DHEMLOCK_TELEMETRY_DISABLED (the -DHEMLOCK_TELEMETRY=OFF
     build): the assembly must contain NO telemetry residue — no
     slab/attribution thread-locals, no out-of-line hook calls. This
     is the acceptance criterion that the OFF build's hooked headers
     compile to the same code as an unhooked tree (every hook is an
     empty inline, every HEMLOCK_TM_* macro is ``((void)0)``, and the
     §5.4 profiler's switch is a constant false).

  2. WITHOUT the define (telemetry on, the default): the same residue
     MUST appear. This guards the first check against vacuity — if a
     refactor stopped the probe from instantiating hooked code, check
     1 would pass forever while proving nothing.

The residue markers are mangled-name fragments rather than the word
"telemetry": the assembly's .file/.loc debug directives name
telemetry.hpp in both configurations, so a plain substring would
false-positive.

Usage:
  check_telemetry_off.py --compiler <c++> --source-dir <repo root>
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

# Mangled fragments of the telemetry namespace's symbols: the
# thread-local slab cache and attribution (referenced by the inline
# hooks), the cold slab resolver, the out-of-line waiting-layer hooks
# (the parking tiers' park/unpark/retry/gate-skip counts included), the
# trace appender, and the handle lifecycle — plus the §5.4 profiler's
# switch, whose check the Hemlock lock body carries only with telemetry.
RESIDUE = [
    "9telemetry6t_slabE",
    "9telemetry6t_attrE",
    "9slab_slowEv",
    "12wl_contendedEv",
    "7wl_parkE",
    "9wl_unparkEv",
    "8wl_retryE",
    "12wl_gate_skipEv",
    "10trace_emitE",
    "15register_handleE",
    "14release_handleE",
    "10g_trace_onE",
    "12LockProfiler8enabled_E",
]


def compile_to_asm(compiler: str, source_dir: Path, out: Path,
                   telemetry_off: bool) -> str:
    probe = source_dir / "tools" / "telemetry_codegen_probe.cpp"
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
    if telemetry_off:
        cmd.insert(1, "-DHEMLOCK_TELEMETRY_DISABLED")
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(
            f"FAIL: probe compile ({'OFF' if telemetry_off else 'ON'}) "
            f"failed:\n{' '.join(cmd)}\n{res.stderr}"
        )
    return out.read_text(errors="replace")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--compiler", required=True)
    ap.add_argument("--source-dir", required=True, type=Path)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as td:
        asm_off = compile_to_asm(
            args.compiler, args.source_dir, Path(td) / "off.s", True
        )
        asm_on = compile_to_asm(
            args.compiler, args.source_dir, Path(td) / "on.s", False
        )

    leaked = [m for m in RESIDUE if m in asm_off]
    if leaked:
        print(
            "FAIL: telemetry residue in the -DHEMLOCK_TELEMETRY=OFF "
            f"build's codegen (the hooks are not zero-cost): {leaked}"
        )
        return 1

    present = [m for m in RESIDUE if m in asm_on]
    if len(present) < len(RESIDUE) // 2:
        print(
            "FAIL: telemetry-on assembly shows almost no instrumentation "
            f"(only {present}) — the probe no longer exercises the hooked "
            "paths, so the OFF check above is vacuous"
        )
        return 1

    print(
        f"PASS: OFF assembly clean; ON assembly carries "
        f"{len(present)}/{len(RESIDUE)} residue markers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
