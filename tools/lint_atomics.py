#!/usr/bin/env python3
"""Static lints for the concurrency-sensitive source tree.

Three checks, each wired as a ctest leg (and runnable standalone):

``mo`` — every ``memory_order_*`` operation in ``src/`` must carry a
``// mo: <why>`` justification. PR 8's ``retire()`` fence fix was
exactly an unjustified ordering: the code compiled, the tests passed,
and the bug waited for the right interleaving. The lint makes the
author state *why* an ordering is sufficient at the point it is
chosen, so review happens against a claim instead of a guess.

A "use" is any line whose code (comments and string literals stripped)
mentions ``memory_order``. Consecutive use-lines form one *cluster*
(a multi-line ``compare_exchange_strong`` call is one decision, not
two), and a cluster is justified when a ``mo:`` comment appears

  * on any line of the cluster (trailing comment), or
  * in the contiguous block of comment-only lines directly above it
    (a multi-line ``// mo: ...`` explanation counts as a whole).

``yield-tags`` — the yield-point tag inventory in
``docs/VERIFYING.md`` must equal the set of tags actually present in
the source (``HEMLOCK_VERIFY_YIELD("...")`` / ``yield_point("...")``
string literals, comment-stripped). The inventory is the documented
coverage map of the interleaving verifier; a marker added without
documentation — or documented but deleted — makes that map lie.
The inventory lives between ``<!-- yield-tag-inventory:begin -->``
and ``<!-- yield-tag-inventory:end -->`` markers as backticked tags;
``--print-inventory`` emits a fresh block to paste on mismatch.

``scenarios`` — every verifier scenario in the ``kScenarios`` table of
``src/verify/scenarios.cpp`` must have a ``verify_<name>`` ctest leg in
``CMakeLists.txt``, either through the ``HEMLOCK_VERIFY_SCENARIOS``
list or its own ``add_test``. The two are kept in step by hand; a row
added to only the table would never run in CI.

``--self-test`` runs every check against planted positive *and*
negative fixtures (anti-vacuity, like check_verify_off.py): a lint
that cannot fail its planted negatives proves nothing.

Usage:
  lint_atomics.py [--root <repo root>]
                  [--check mo|yield-tags|scenarios|all]
  lint_atomics.py --print-inventory
  lint_atomics.py --self-test
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

SOURCE_SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}
MO_TOKEN = "memory_order"
MO_JUSTIFIED = re.compile(r"(?:^|\s)mo:\s?\S")
YIELD_CALL = re.compile(
    r"\b(?:HEMLOCK_VERIFY_YIELD|yield_point)\s*\(\s*\"([^\"]+)\""
)
INVENTORY_BEGIN = "<!-- yield-tag-inventory:begin -->"
INVENTORY_END = "<!-- yield-tag-inventory:end -->"
BACKTICKED = re.compile(r"`([^`]+)`")
SCENARIO_TABLE = re.compile(r"kScenarios\[\]\s*=\s*\{(.*?)\n\};", re.S)
SCENARIO_ROW = re.compile(r"\{\s*\"([^\"]+)\"\s*,")
SCENARIO_LIST = re.compile(r"set\(\s*HEMLOCK_VERIFY_SCENARIOS\s+([^)]*)\)")
VERIFY_LEG = re.compile(r"add_test\(\s*NAME\s+verify_([\w.+-]+)")


def split_code_and_comments(text):
    """Per line, split source into (code, comments, code+strings).

    The *code* channel blanks string/char literal interiors so a
    ``memory_order`` inside a diagnostic string is not a "use"; the
    *comments* channel carries comment text only (so commented-out
    atomics are not uses either); the *code+strings* channel keeps
    literal contents but still strips comments (yield-tag collection
    reads tags out of string literals). Handles ``//``, ``/* ... */`` and
    escape sequences; raw strings are not used in this codebase (the
    self-test pins the constructs that are).
    """
    code_lines = [[]]
    comment_lines = [[]]
    literal_lines = [[]]
    state = "code"  # code | line_comment | block_comment | string | char
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            if state == "line_comment":
                state = "code"
            code_lines.append([])
            comment_lines.append([])
            literal_lines.append([])
            i += 1
            continue
        if state == "code":
            two = text[i : i + 2]
            if two == "//":
                state = "line_comment"
                i += 2
                continue
            if two == "/*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                state = "string"
                code_lines[-1].append('"')
                literal_lines[-1].append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                code_lines[-1].append("'")
                literal_lines[-1].append("'")
                i += 1
                continue
            code_lines[-1].append(ch)
            literal_lines[-1].append(ch)
        elif state == "line_comment":
            comment_lines[-1].append(ch)
        elif state == "block_comment":
            if text[i : i + 2] == "*/":
                state = "code"
                i += 2
                continue
            comment_lines[-1].append(ch)
        elif state in ("string", "char"):
            if ch == "\\":
                literal_lines[-1].append(text[i : i + 2])
                i += 2
                continue
            literal_lines[-1].append(ch)
            if (state == "string" and ch == '"') or (
                state == "char" and ch == "'"
            ):
                code_lines[-1].append(ch)
                state = "code"
        i += 1
    return (
        ["".join(parts) for parts in code_lines],
        ["".join(parts) for parts in comment_lines],
        ["".join(parts) for parts in literal_lines],
    )


# A code line ending mid-expression (trailing comma, open paren, binary
# operator) continues onto the next: the lines form one statement and
# therefore one justification cluster.
CONTINUES_BELOW = re.compile(r"[,(&|+\-*/=<]\s*$")


def find_mo_violations(text):
    """Return 1-based line numbers of unjustified memory_order clusters."""
    code, comments, _ = split_code_and_comments(text)
    n = len(code)
    uses = [MO_TOKEN in code[i] for i in range(n)]
    violations = []
    i = 0
    while i < n:
        if not uses[i]:
            i += 1
            continue
        start = i
        while i < n and uses[i]:
            i += 1
        end = i  # cluster is [start, end)
        # Pull the cluster's start up to the head of its statement, so
        # a multi-line call's earlier lines (and their comments) are in
        # scope for the justification.
        while start > 0 and CONTINUES_BELOW.search(code[start - 1].rstrip()):
            start -= 1
        justified = any(
            MO_JUSTIFIED.search(comments[j]) for j in range(start, end)
        )
        if not justified:
            # Walk the contiguous comment-only block directly above.
            j = start - 1
            while (
                j >= 0
                and not code[j].strip()
                and comments[j].strip()
            ):
                if MO_JUSTIFIED.search(comments[j]):
                    justified = True
                    break
                j -= 1
        if not justified:
            violations.append(start + 1)
    return violations


def iter_source_files(src_root):
    for path in sorted(src_root.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            yield path


def check_mo(root):
    src = root / "src"
    if not src.is_dir():
        print(f"FAIL: no src/ under {root}")
        return 1
    bad = []
    for path in iter_source_files(src):
        text = path.read_text(errors="replace")
        if MO_TOKEN not in text:
            continue
        for line in find_mo_violations(text):
            bad.append(f"{path.relative_to(root)}:{line}")
    if bad:
        print(
            f"FAIL: {len(bad)} memory_order use(s) without a "
            "same-or-previous-line '// mo: <why>' justification:"
        )
        for entry in bad:
            print(f"  {entry}")
        return 1
    print("PASS: every memory_order use in src/ carries a // mo: comment")
    return 0


def collect_source_tags(root):
    tags = set()
    for path in iter_source_files(root / "src"):
        channels = split_code_and_comments(path.read_text(errors="replace"))
        for line in channels[2]:  # code with string literals intact
            tags.update(YIELD_CALL.findall(line))
    return tags


def parse_inventory(doc_text):
    try:
        begin = doc_text.index(INVENTORY_BEGIN) + len(INVENTORY_BEGIN)
        end = doc_text.index(INVENTORY_END, begin)
    except ValueError:
        return None
    return set(BACKTICKED.findall(doc_text[begin:end]))


def format_inventory(tags):
    lines = [INVENTORY_BEGIN]
    for tag in sorted(tags):
        lines.append(f"`{tag}`")
    lines.append(INVENTORY_END)
    return "\n".join(lines)


def check_yield_tags(root, doc_path=None):
    doc = doc_path or (root / "docs" / "VERIFYING.md")
    if not doc.is_file():
        print(f"FAIL: {doc} not found")
        return 1
    documented = parse_inventory(doc.read_text(errors="replace"))
    if documented is None:
        print(
            f"FAIL: {doc.name} has no {INVENTORY_BEGIN} ... "
            f"{INVENTORY_END} block"
        )
        return 1
    actual = collect_source_tags(root)
    missing = sorted(actual - documented)
    stale = sorted(documented - actual)
    if missing or stale:
        if missing:
            print(
                "FAIL: yield tags in source but not in the "
                f"{doc.name} inventory: {missing}"
            )
        if stale:
            print(
                "FAIL: yield tags documented but absent from source "
                f"(stale inventory): {stale}"
            )
        print("Regenerate the block with: lint_atomics.py --print-inventory")
        return 1
    print(
        f"PASS: yield-tag inventory in sync ({len(actual)} tags)"
    )
    return 0


def check_scenarios(root):
    table_path = root / "src" / "verify" / "scenarios.cpp"
    cmake_path = root / "CMakeLists.txt"
    for path in (table_path, cmake_path):
        if not path.is_file():
            print(f"FAIL: {path} not found")
            return 1
    source = split_code_and_comments(table_path.read_text(errors="replace"))
    table = SCENARIO_TABLE.search("\n".join(source[2]))
    if table is None:
        print(f"FAIL: no kScenarios[] table in {table_path.name}")
        return 1
    scenarios = SCENARIO_ROW.findall(table.group(1))
    cmake = "\n".join(
        line.split("#", 1)[0]
        for line in cmake_path.read_text(errors="replace").splitlines()
    )
    legs = set(VERIFY_LEG.findall(cmake))
    for listed in SCENARIO_LIST.findall(cmake):
        legs.update(listed.split())
    missing = [name for name in scenarios if name not in legs]
    if missing:
        print(
            "FAIL: verifier scenarios with no verify_<name> ctest leg in "
            f"{cmake_path.name}: {missing}"
        )
        return 1
    print(f"PASS: all {len(scenarios)} verifier scenarios have a ctest leg")
    return 0


# ---------------------------------------------------------------------------
# Self-test fixtures. Each is (name, source, expected violation lines);
# the negatives MUST fail — a lint that passes everything checks nothing.

MO_FIXTURES = [
    (
        "justified-same-line",
        "v.store(1, std::memory_order_release);  // mo: publishes init\n",
        [],
    ),
    (
        "justified-previous-line",
        "// mo: acquire pairs with the release store in unlock()\n"
        "auto x = v.load(std::memory_order_acquire);\n",
        [],
    ),
    (
        "justified-multiline-comment-above",
        "// mo: doorstep SWAP is acq_rel — release publishes the node,\n"
        "// acquire observes the predecessor's publication.\n"
        "auto* p = tail.exchange(n, std::memory_order_acq_rel);\n",
        [],
    ),
    (
        "justified-multiline-statement",
        "// mo: acq_rel on success, relaxed on failure (no acquisition)\n"
        "ok = v.compare_exchange_strong(e, d,\n"
        "                               std::memory_order_acq_rel,\n"
        "                               std::memory_order_relaxed);\n",
        [],
    ),
    (
        "justified-inside-cluster",
        "ok = v.compare_exchange_strong(e, d,\n"
        "                               // mo: acq_rel pairs with unlock\n"
        "                               std::memory_order_acq_rel,\n"
        "                               std::memory_order_relaxed);\n",
        [],
    ),
    (
        "unjustified",  # planted negative: must be flagged
        "v.store(1, std::memory_order_release);\n",
        [1],
    ),
    (
        "unjustified-after-justified",  # second cluster unjustified
        "v.store(1, std::memory_order_relaxed);  // mo: init, pre-publish\n"
        "x = 42;\n"
        "v.store(2, std::memory_order_release);\n",
        [3],
    ),
    (
        "ordinary-comment-is-not-justification",
        "// release so the next acquirer sees our writes\n"
        "v.store(1, std::memory_order_release);\n",
        [2],
    ),
    (
        "comment-only-mention-is-not-a-use",
        "// a relaxed memory_order_relaxed load would race here\n"
        "x = 42;\n",
        [],
    ),
    (
        "string-literal-is-not-a-use",
        'const char* what = "unexpected memory_order_seq_cst";\n',
        [],
    ),
    (
        "blank-line-breaks-the-comment-walk",
        "// mo: this justifies nothing — it is detached\n"
        "\n"
        "v.store(1, std::memory_order_release);\n",
        [3],
    ),
    (
        "block-comment-above",
        "/* mo: seq_cst Dekker handshake with the writer's gate close */\n"
        "c.fetch_add(1, std::memory_order_seq_cst);\n",
        [],
    ),
]

YIELD_DOC_OK = f"""# Verifying
{INVENTORY_BEGIN}
`mcs:queued`
`rwlock:announced`
{INVENTORY_END}
"""

YIELD_DOC_STALE = f"""# Verifying
{INVENTORY_BEGIN}
`mcs:queued`
`rwlock:announced`
`ghost:tag`
{INVENTORY_END}
"""

YIELD_DOC_MISSING = f"""# Verifying
{INVENTORY_BEGIN}
`mcs:queued`
{INVENTORY_END}
"""

YIELD_SRC = """
void f() {
  HEMLOCK_VERIFY_YIELD("mcs:queued");
  verify::yield_point("rwlock:announced");
  // HEMLOCK_VERIFY_YIELD("commented:out") must not be collected
}
#define HEMLOCK_VERIFY_YIELD(tag) ((void)0)  // no literal: not collected
"""

SCENARIO_SRC = """
const Scenario kScenarios[] = {
    {"alpha", "first row", 2, &a::init, &a::exec, &a::fini, nullptr, false},
    {"beta",
     "a row whose name sits alone", 3, &b::init, &b::exec, &b::fini,
     nullptr, false},
    // {"ghost", "a commented-out row is not a scenario"},
};
"""

SCENARIO_CMAKE_OK = """
set(HEMLOCK_VERIFY_SCENARIOS
  alpha
)
add_test(NAME verify_beta COMMAND verify_runner --algo=beta --depth=8)
"""

SCENARIO_CMAKE_MISSING = """
set(HEMLOCK_VERIFY_SCENARIOS
  alpha  # beta
)
add_test(NAME verify_determinism COMMAND verify_runner --algo=alpha)
"""


def self_test():
    failures = []
    for name, source, expected in MO_FIXTURES:
        got = find_mo_violations(source)
        if got != expected:
            failures.append(
                f"mo fixture '{name}': expected violations at {expected}, "
                f"got {got}"
            )
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        (root / "src").mkdir()
        (root / "docs").mkdir()
        (root / "src" / "probe.hpp").write_text(YIELD_SRC)
        cases = [
            ("in-sync", YIELD_DOC_OK, 0),
            ("stale-tag", YIELD_DOC_STALE, 1),
            ("missing-tag", YIELD_DOC_MISSING, 1),
            ("no-inventory-block", "# Verifying\nno markers here\n", 1),
        ]
        for name, doc, expected_rc in cases:
            (root / "docs" / "VERIFYING.md").write_text(doc)
            rc = check_yield_tags(root)
            if rc != expected_rc:
                failures.append(
                    f"yield fixture '{name}': expected exit {expected_rc}, "
                    f"got {rc}"
                )
        (root / "src" / "verify").mkdir()
        (root / "src" / "verify" / "scenarios.cpp").write_text(SCENARIO_SRC)
        cases = [
            ("every-scenario-has-a-leg", SCENARIO_CMAKE_OK, 0),
            ("planted-missing-leg", SCENARIO_CMAKE_MISSING, 1),
        ]
        for name, cmake, expected_rc in cases:
            (root / "CMakeLists.txt").write_text(cmake)
            rc = check_scenarios(root)
            if rc != expected_rc:
                failures.append(
                    f"scenario fixture '{name}': expected exit "
                    f"{expected_rc}, got {rc}"
                )
    if failures:
        print(f"FAIL: {len(failures)} self-test failure(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"PASS: self-test — {len(MO_FIXTURES)} mo fixtures, 4 yield-tag "
        "fixtures and 2 scenario fixtures behave as planted"
    )
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="memory-order justification, yield-tag sync and "
        "verifier-scenario registration lints"
    )
    ap.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this script's grandparent)",
    )
    ap.add_argument(
        "--check",
        choices=["mo", "yield-tags", "scenarios", "all"],
        default="all",
    )
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument(
        "--print-inventory",
        action="store_true",
        help="emit a fresh yield-tag inventory block for VERIFYING.md",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.print_inventory:
        print(format_inventory(collect_source_tags(args.root)))
        return 0

    rc = 0
    if args.check in ("mo", "all"):
        rc |= check_mo(args.root)
    if args.check in ("yield-tags", "all"):
        rc |= check_yield_tags(args.root)
    if args.check in ("scenarios", "all"):
        rc |= check_scenarios(args.root)
    return rc


if __name__ == "__main__":
    sys.exit(main())
