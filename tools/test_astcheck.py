#!/usr/bin/env python3
"""End-to-end contract tests for tools/astcheck.

Each scenario copies the real src/ tree into a scratch root, optionally seeds
a violation, and runs astcheck as a subprocess — proving the analyzer catches
regressions in the *actual* tree, not only in its synthetic self-test corpus:

  * clean_copy           an unmodified copy scans clean (exit 0);
  * seeded_hp1_new       a heap allocation injected into the real
                         batch::lookup_one body (the one scalar walk every
                         lookup and batch tail shares) fails the scan with
                         HP1 (this is the CI-leg guarantee: hot-path `new`
                         cannot land);
  * seeded_hp1_new_file  a brand-new hot function allocating is also caught
                         (covers files the tree does not have yet);
  * seeded_hp2_shift     an unproven variable shift in src/poptrie fails
                         with HP2;
  * missing_db_clang     --frontend clang without a compile_commands.json is
                         a usage error (exit 2) with the configure hint.

Exit code: 0 when every scenario passes, 1 otherwise.
"""
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ASTCHECK = os.path.join(REPO, "tools", "astcheck")

LOOKUP_ONE_SIG = "rib::NextHop lookup_one(const View& view,"

SEEDED_HOT_FILE = """\
// seeded fixture written by tools/test_astcheck.py -- never committed.
#pragma once
#include "sync/annotations.hpp"

namespace poptrie {

POPTRIE_HOT inline int* seeded_hot_alloc()
{
    return new int(42);
}

}  // namespace poptrie
"""

SEEDED_SHIFT_FILE = """\
// seeded fixture written by tools/test_astcheck.py -- never committed.
#pragma once
#include <cstdint>

namespace poptrie {

inline std::uint64_t seeded_unbounded_shift(std::uint64_t x, unsigned n)
{
    return x << n;
}

}  // namespace poptrie
"""


def run_astcheck(root, *extra):
    return subprocess.run(
        [sys.executable, ASTCHECK, "--source-root", root, *extra],
        capture_output=True, text=True, timeout=120)


def copy_src(tmp):
    root = os.path.join(tmp, "tree")
    os.makedirs(root)
    shutil.copytree(os.path.join(REPO, "src"), os.path.join(root, "src"))
    return root


def inject_into_lookup_one(root, stmt):
    """Inserts `stmt` as the first statement of batch::lookup_one."""
    path = os.path.join(root, "src", "poptrie", "lookup_pipelined.ipp")
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        if LOOKUP_ONE_SIG in line:
            for j in range(i + 1, min(i + 4, len(lines))):
                if lines[j].strip() == "{":
                    lines.insert(j + 1, "    " + stmt + "\n")
                    with open(path, "w", encoding="utf-8") as f:
                        f.writelines(lines)
                    return
    raise AssertionError(
        "could not find batch::lookup_one in lookup_pipelined.ipp -- "
        "update LOOKUP_ONE_SIG in tools/test_astcheck.py")


def main():
    failures = []

    def check(name, cond, detail=""):
        if cond:
            print(f"  ok: {name}")
        else:
            failures.append(name)
            print(f"  FAIL: {name}{': ' + detail if detail else ''}")

    with tempfile.TemporaryDirectory(prefix="astcheck_e2e_") as tmp:
        root = copy_src(tmp)
        r = run_astcheck(root, "--frontend", "builtin")
        check("clean_copy", r.returncode == 0, r.stdout + r.stderr)

        inject_into_lookup_one(root, "auto* seeded = new int(0); (void)seeded;")
        r = run_astcheck(root, "--frontend", "builtin")
        check("seeded_hp1_new",
              r.returncode == 1 and "[HP1]" in r.stderr and "lookup_one" in r.stderr,
              f"exit={r.returncode} out={(r.stdout + r.stderr)[:400]}")

    with tempfile.TemporaryDirectory(prefix="astcheck_e2e_") as tmp:
        root = copy_src(tmp)
        with open(os.path.join(root, "src", "poptrie", "seeded_probe.hpp"), "w",
                  encoding="utf-8") as f:
            f.write(SEEDED_HOT_FILE)
        r = run_astcheck(root, "--frontend", "builtin")
        check("seeded_hp1_new_file",
              r.returncode == 1 and "[HP1]" in r.stderr and "seeded_probe" in r.stderr,
              f"exit={r.returncode} out={(r.stdout + r.stderr)[:400]}")

    with tempfile.TemporaryDirectory(prefix="astcheck_e2e_") as tmp:
        root = copy_src(tmp)
        with open(os.path.join(root, "src", "poptrie", "seeded_shift.hpp"), "w",
                  encoding="utf-8") as f:
            f.write(SEEDED_SHIFT_FILE)
        r = run_astcheck(root, "--frontend", "builtin")
        check("seeded_hp2_shift",
              r.returncode == 1 and "[HP2]" in r.stderr and "seeded_shift" in r.stderr,
              f"exit={r.returncode} out={(r.stdout + r.stderr)[:400]}")

    with tempfile.TemporaryDirectory(prefix="astcheck_e2e_") as tmp:
        root = copy_src(tmp)
        r = run_astcheck(root, "--frontend", "clang",
                         "--compile-commands", os.path.join(tmp, "nope", "compile_commands.json"))
        err = r.stdout + r.stderr
        check("missing_db_clang",
              r.returncode == 2 and "compile_commands.json" in err and "cmake" in err,
              f"exit={r.returncode} out={err[:400]}")

    if failures:
        print(f"test_astcheck: {len(failures)} scenario(s) FAILED: {', '.join(failures)}")
        return 1
    print("test_astcheck: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
