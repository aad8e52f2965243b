#!/usr/bin/env python3
"""check_concurrency.py -- EBR/quiescence protocol lint for the poptrie tree.

Clang's thread-safety analysis (the POPTRIE_TSA build) checks everything a
capability annotation can express: lookup_batch REQUIRES the shared EBR
capability, compact() REQUIRES the writer role, reserve_headroom() REQUIRES
quiescence, GUARDED_BY fields need their mutex. This linter checks the
protocol shapes the analysis structurally cannot see -- cross-function,
cross-thread and by-convention rules:

  R1 (guard dominance): in src/dataplane, every `x.lookup_batch(...)` /
      `x.lookup_raw(...)` call -- and every call into the free-function
      batch walk `lookup_batch_pipelined(...)` -- must be lexically
      dominated by a live read-side claim: an engine reader `::Guard`, a
      psync capability section, or an enclosing function annotated
      POPTRIE_REQUIRES[_SHARED](...ebr...). The analysis enforces this only
      where the callee's type is visible; the lexical rule also covers
      template-erased engines (a dependent `decltype(reader)::Guard` is
      opaque to the analysis until instantiation, and instantiations of an
      unannotated baseline engine never check it at all).

  R2 (retire containment): EbrDomain::retire() is single-writer limbo-list
      machinery. Member calls `x.retire(...)` / `x->retire(...)` may appear
      only in the incremental updater, the compactor, and src/sync/ebr.*
      itself; anywhere else under src/ is a reclamation-protocol leak.
      (Tests exercise retire() directly by design, so R2 scopes to src/.)

  R4 (PauseGate encapsulation): the pause/park generation-counter handshake
      is correct only as a whole; any `.pause_` / `.parks_` member access
      outside src/sync/counters.hpp bypasses the protocol and is flagged.

  R5 (claim justification): constructing a psync capability section
      (EbrReadSection / EbrWriterSection / QuiescentSection) outside
      src/sync asserts a cross-thread fact the compiler cannot verify.
      Each construction must carry an adjacent comment naming the protocol
      that makes it true -- `// reader:` / `// writer:` / `// quiescent:`
      respectively (same line or one of the lines directly above).

Escape hatch: `check-concurrency: allow` on the line or the line directly
above suppresses all rules for that line. Use it with a reason; today's only
tree use is the LpmEngine concept's requires-expression, which spells a
lookup_batch call that is never executed.

Purely lexical: comments and string/char literals are stripped first (via
lintkit.split_code_and_comment), then the rules run over code text
with a brace-depth scope tracker. No compiler or clang python bindings
needed, so the lint runs in every environment the tests do.

Exit codes: 0 clean, 1 violations found, 2 usage error.
Usage: check_concurrency.py [--source-root DIR] [--self-test]
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lintkit import CorpusRunner, report, split_code_and_comment, walk_sources  # noqa: E402

# Directories (relative to the source root) the tree scan covers. src must
# exist; the others are scanned when present.
SCAN_DIRS = ("src", "tests", "bench", "tools", "examples", "fuzz")

ALLOW_RE = re.compile(r"check-concurrency:\s*allow")

# R1 -----------------------------------------------------------------------
# Member batch lookups, plus the free-function batch walk an engine could
# reach directly. A view read outside a claim races pool reclamation exactly
# like a member lookup would.
LOOKUP_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?:lookup_batch|lookup_raw)\b"
    r"|\blookup_batch_pipelined\s*[<(]"
)
# A live read-side claim: an engine/EBR reader guard object, or any psync
# capability section (writer and quiescent imply read access).
GUARD_RE = re.compile(r"::Guard\s+\w+|\bEbrReadSection\b|\bEbrWriterSection\b|\bQuiescentSection\b")
# A function-level claim: REQUIRES or REQUIRES_SHARED naming the EBR cap.
REQUIRES_EBR_RE = re.compile(r"POPTRIE_REQUIRES(?:_SHARED)?\s*\([^)]*ebr")

# R2 -----------------------------------------------------------------------
RETIRE_CALL_RE = re.compile(r"(?:\.|->)\s*retire\s*\(")
RETIRE_ALLOWED = {
    os.path.join("src", "poptrie", "updater.ipp"),
    os.path.join("src", "poptrie", "compactor.ipp"),
    os.path.join("src", "sync", "ebr.hpp"),
    os.path.join("src", "sync", "ebr.cpp"),
}

# R4 -----------------------------------------------------------------------
GATE_FIELD_RE = re.compile(r"(?:\.|->)\s*(?:pause_|parks_)(?!\w)")
GATE_HOME = os.path.join("src", "sync", "counters.hpp")

# R5 -----------------------------------------------------------------------
SECTION_MARKERS = {
    "EbrReadSection": "reader:",
    "EbrWriterSection": "writer:",
    "QuiescentSection": "quiescent:",
}
SECTION_RE = re.compile(r"\b(EbrReadSection|EbrWriterSection|QuiescentSection)\b")
R5_WINDOW = 6  # justification comments may span a few lines above the claim


def is_under(rel, *parts):
    prefix = os.path.join(*parts)
    return rel == prefix or rel.startswith(prefix + os.sep)


def check_file(path, rel, violations):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        violations.append((path, 0, f"unreadable: {e}"))
        return
    code, comments = split_code_and_comment(lines)

    in_sync = is_under(rel, "src", "sync")
    in_dataplane = is_under(rel, "src", "dataplane")
    in_src = is_under(rel, "src")

    # Brace-depth scope tracking for R1: guards live while the block they
    # were constructed in stays open.
    depth = 0
    guard_depths = []  # brace depth each live claim was made at
    pending_requires = False

    for idx, code_line in enumerate(code):
        lineno = idx + 1
        allowed = any(ALLOW_RE.search(c) for c in comments[max(0, idx - 1) : idx + 1])

        # -- scope tracking (R1) ------------------------------------------
        if GUARD_RE.search(code_line):
            guard_depths.append(depth)
        if REQUIRES_EBR_RE.search(code_line):
            pending_requires = True
        if pending_requires:
            if "{" in code_line:
                # The annotated function's body opens here; the claim covers
                # exactly that body.
                guard_depths.append(depth + 1)
                pending_requires = False
            elif ";" in code_line:
                pending_requires = False  # declaration without a body

        # -- R1: lookups dominated by a read-side claim -------------------
        if in_dataplane and LOOKUP_CALL_RE.search(code_line) and not allowed:
            if not guard_depths:
                violations.append(
                    (
                        path,
                        lineno,
                        "[R1] lookup call without a dominating read-side claim "
                        "(construct a reader ::Guard / psync section in an "
                        "enclosing scope, or annotate the enclosing function "
                        "POPTRIE_REQUIRES_SHARED(psync::cap::ebr))",
                    )
                )

        # -- R2: retire() containment -------------------------------------
        if (
            in_src
            and rel not in RETIRE_ALLOWED
            and RETIRE_CALL_RE.search(code_line)
            and not allowed
        ):
            violations.append(
                (
                    path,
                    lineno,
                    "[R2] retire() outside the update/compact paths "
                    "(allowed: src/poptrie/updater.ipp, "
                    "src/poptrie/compactor.ipp, src/sync/ebr.*) -- retirement "
                    "is single-writer machinery; route reclamation through "
                    "the updater or compactor",
                )
            )

        # -- R4: PauseGate handshake fields are private protocol ----------
        if rel != GATE_HOME and GATE_FIELD_RE.search(code_line) and not allowed:
            violations.append(
                (
                    path,
                    lineno,
                    "[R4] direct access to a PauseGate handshake field "
                    "(.pause_/.parks_) outside src/sync/counters.hpp -- use "
                    "request_pause()/parked_since()/resume()/enter_park(), "
                    "the generation-counter protocol is correct only whole",
                )
            )

        # -- R5: capability claims carry their justification --------------
        if not in_sync and not allowed:
            for m in SECTION_RE.finditer(code_line):
                marker = SECTION_MARKERS[m.group(1)]
                lo = max(0, idx - R5_WINDOW)
                if not any(marker in c for c in comments[lo : idx + 1]):
                    violations.append(
                        (
                            path,
                            lineno,
                            f"[R5] {m.group(1)} claim without an adjacent "
                            f"'// {marker}' justification comment (same line "
                            f"or the {R5_WINDOW} lines above) naming the "
                            "protocol that makes the claim true",
                        )
                    )

        # -- advance scope state ------------------------------------------
        depth += code_line.count("{") - code_line.count("}")
        while guard_depths and depth < guard_depths[-1]:
            guard_depths.pop()


def scan(source_root):
    if not os.path.isdir(os.path.join(source_root, "src")):
        print(
            f"check_concurrency: no src/ under source root: {source_root}",
            file=sys.stderr,
        )
        return None
    violations = []
    for path, rel in walk_sources(source_root, SCAN_DIRS):
        check_file(path, rel, violations)
    return violations


def self_test():
    """Known-bad corpus: every fixture violation must be flagged (and the
    clean twins must stay clean) or the linter itself is broken."""
    runner = CorpusRunner(scan)
    expect = runner.expect

    anchor = {"src/poptrie/poptrie.hpp": "struct Poptrie {};\n"}

    # R1: a naked lookup in the dataplane, then its three legal forms.
    bad_r1 = (
        "void worker(Engine& e, const unsigned* k, int* out) {\n"
        "    e.lookup_batch(k, out, 64);\n"
        "}\n"
    )
    guarded_r1 = (
        "void worker(Reader& r, Engine& e, const unsigned* k, int* out) {\n"
        "    const typename Reader::Guard guard{r};\n"
        "    e.lookup_batch(k, out, 64);\n"
        "}\n"
    )
    annotated_r1 = (
        "void serve(const unsigned* k, int* out) const noexcept\n"
        "    POPTRIE_REQUIRES_SHARED(psync::cap::ebr)\n"
        "{\n"
        "    fib().lookup_batch(k, out, 64);\n"
        "}\n"
    )
    scope_ended_r1 = (
        "void worker(Reader& r, Engine& e, const unsigned* k, int* out) {\n"
        "    {\n"
        "        const typename Reader::Guard guard{r};\n"
        "    }\n"
        "    e.lookup_batch(k, out, 64);\n"
        "}\n"
    )
    allowed_r1 = (
        "// check-concurrency: allow -- concept requires-expression\n"
        "{ ce.lookup_batch(keys, out, n) } noexcept;\n"
    )
    # The free-function batch walk needs the same claim: a naked call in an
    # engine races reclamation exactly like a member lookup_batch would.
    bad_pipelined = (
        "void drain(const View& v, const unsigned* k, int* out, unsigned long n) {\n"
        "    batch::lookup_batch_pipelined<true>(v, k, out, n, 18);\n"
        "}\n"
    )
    expect("R1 naked lookup flagged", {**anchor, "src/dataplane/w.hpp": bad_r1}, 1)
    expect("R1 guard dominates", {**anchor, "src/dataplane/w.hpp": guarded_r1}, 0)
    expect("R1 REQUIRES dominates", {**anchor, "src/dataplane/w.hpp": annotated_r1}, 0)
    expect("R1 closed scope is dead", {**anchor, "src/dataplane/w.hpp": scope_ended_r1}, 1)
    expect("R1 escape hatch", {**anchor, "src/dataplane/w.hpp": allowed_r1}, 0)
    expect(
        "R1 naked pipelined walk flagged",
        {**anchor, "src/dataplane/pe.hpp": bad_pipelined},
        1,
    )

    # R2: retirement outside the sanctioned paths (the fixture text is fine
    # inside updater.ipp, a leak from router code).
    retire_code = "void f(psync::EbrDomain& d) { d.retire([] {}); }\n"
    expect("R2 leak flagged", {**anchor, "src/router/router.cpp": retire_code}, 1)
    expect("R2 updater allowed", {**anchor, "src/poptrie/updater.ipp": retire_code}, 0)
    expect("R2 tests out of scope", {**anchor, "tests/test_ebr.cpp": retire_code}, 0)

    # R4: handshake bypass vs. prose about the fields.
    bad_r4 = "bool peek(psync::PauseGate& g) { return g.pause_.load(); }\n"
    prose_r4 = "// the gate's pause_ and parks_ fields are private protocol\nint x;\n"
    expect("R4 bypass flagged", {**anchor, "src/dataplane/churn.cpp": bad_r4}, 1)
    expect("R4 prose ignored", {**anchor, "src/dataplane/churn.cpp": prose_r4}, 0)

    # R5: unjustified claim, justified claim, wrong-kind marker.
    bad_r5 = "void t() { const psync::QuiescentSection q; }\n"
    good_r5 = (
        "void t() {\n"
        "    // quiescent: single-threaded test, no reader thread exists.\n"
        "    const psync::QuiescentSection q;\n"
        "}\n"
    )
    wrong_marker_r5 = (
        "void t() {\n"
        "    // writer: wrong kind of justification for a quiescence claim.\n"
        "    const psync::QuiescentSection q;\n"
        "}\n"
    )
    expect("R5 unjustified claim flagged", {**anchor, "tests/test_x.cpp": bad_r5}, 1)
    expect("R5 justified claim", {**anchor, "tests/test_x.cpp": good_r5}, 0)
    expect("R5 wrong marker flagged", {**anchor, "tests/test_x.cpp": wrong_marker_r5}, 1)

    return runner.finish("check_concurrency")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__, add_help=True)
    parser.add_argument(
        "--source-root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        metavar="DIR",
        help="repository root to scan (default: this script's repo)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in known-bad corpus instead of scanning",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    if args.self_test:
        return self_test()
    return report(scan(args.source_root), "check_concurrency")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
