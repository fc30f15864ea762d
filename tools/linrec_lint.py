#!/usr/bin/env python3
"""linrec repo-invariant linter.

Checks invariants the compiler cannot express and the test suite can only
probe dynamically, against the *built* tree (compile_commands.json + the
library's object files):

  hot-atomic       An atomic marked `// lint: hot-atomic` must be
                   alignas(64). The marker is the author's claim that the
                   atomic is hammered from multiple threads (work-stealing
                   counters, budget ledgers, the version stamp); the lint
                   makes "hot implies cache-line-isolated" permanent.

  kernel-alloc     Kernel-path TUs (NO_STD_FUNCTION_TUS) must not
                   reference std::function symbols: a type-erased indirect
                   call inside a scan/probe kernel is a per-row cost the
                   zero-alloc steady-state guarantee forbids.

  ctest-registration
                   Every tests/*_test.cc must be registered with ctest —
                   a test binary that builds but never runs is a silent
                   coverage hole.

Usage:
  linrec_lint.py --build-dir BUILD [--source-dir SRC]   lint the tree
  linrec_lint.py --self-test                            lint the linter

The self-test feeds one seeded violation per rule (fixture files under
tools/lint_fixtures/) plus a clean twin through the same check functions
the real run uses, and fails unless every seeded violation is caught and
no clean fixture is flagged.

Exit status: 0 = clean, 1 = violations (or self-test failure),
2 = usage/environment error.
"""

import argparse
import os
import re
import subprocess
import sys

# --- rule configuration ----------------------------------------------------

# TUs whose objects must not reference std::function (type-erased calls
# have no place on the scan/probe path; the worker pool's std::function
# hand-off lives in common/parallel.cc and its callers, none of which is
# a kernel TU). No exception is sanctioned: a kernel TU that hands work
# to the WorkerPool is flagged like any other std::function reference.
NO_STD_FUNCTION_TUS = [
    "src/storage/relation.cc",
    "src/eval/apply.cc",
]

# std::function<...> in itanium mangling: libstdc++ and libc++ spellings.
STD_FUNCTION_SYMBOL = re.compile(r"(St8functionI|NSt3__18functionI)")

HOT_ATOMIC_MARKER = "// lint: hot-atomic"


class Violation:
    def __init__(self, rule, where, message):
        self.rule = rule
        self.where = where
        self.message = message

    def __str__(self):
        return f"[{self.rule}] {self.where}: {self.message}"


# --- pure check functions (what the self-test exercises) -------------------


def check_hot_atomic(source, path):
    """A `// lint: hot-atomic` marker requires alignas(64) on the
    declaration (the marker line plus up to three preceding lines, since
    declarations wrap)."""
    violations = []
    lines = source.splitlines()
    for idx, line in enumerate(lines):
        if HOT_ATOMIC_MARKER not in line:
            continue
        window = " ".join(lines[max(0, idx - 3):idx + 1])
        if "alignas(64)" not in window:
            violations.append(Violation(
                "hot-atomic", f"{path}:{idx + 1}",
                "atomic marked hot-atomic lacks alignas(64): a contended "
                "atomic sharing its cache line false-shares every "
                "neighbour"))
    return violations


def check_symbols(symbols, tu):
    """Scans one kernel-path object's symbol list (`nm` output lines) for
    std::function references."""
    violations = []
    for line in symbols.splitlines():
        parts = line.split()
        if not parts:
            continue
        name = parts[-1]
        if STD_FUNCTION_SYMBOL.search(name):
            violations.append(Violation(
                "kernel-alloc", tu,
                f"kernel-path TU references std::function ({name}); "
                "type-erased calls are banned on the kernel path"))
    return violations


def check_ctest_registration(test_sources, ctest_file_text):
    """Every tests/*_test.cc must appear as an add_test registration."""
    registered = set(re.findall(r"add_test\(\s*(\w+)", ctest_file_text))
    violations = []
    for src in sorted(test_sources):
        name = os.path.splitext(os.path.basename(src))[0]
        if name not in registered:
            violations.append(Violation(
                "ctest-registration", src,
                f"test binary {name} is not registered with ctest: it "
                "builds but never runs"))
    return violations


# --- tree walking ----------------------------------------------------------


def run(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    except FileNotFoundError:
        print(f"linrec_lint: required tool missing: {cmd[0]}",
              file=sys.stderr)
        sys.exit(2)
    except subprocess.CalledProcessError as e:
        print(f"linrec_lint: {' '.join(cmd)} failed: {e.stderr.strip()}",
              file=sys.stderr)
        sys.exit(2)
    return out.stdout


def library_objects(build_dir):
    """Object files of the linrec library: TU path (src/...) -> object.

    CMake lays library objects out as
    <build>/CMakeFiles/linrec.dir/src/<path>.cc.o — the relative source
    path is recoverable from the object path, no compile_commands lookup
    needed (and it works for every generator).
    """
    objects = {}
    lib_dir = os.path.join(build_dir, "CMakeFiles", "linrec.dir")
    for root, _dirs, files in os.walk(lib_dir):
        for f in files:
            if not f.endswith(".o") and not f.endswith(".obj"):
                continue
            obj = os.path.join(root, f)
            rel = os.path.relpath(obj, lib_dir)
            tu = re.sub(r"\.(o|obj)$", "", rel)
            objects[tu] = obj
    return objects


def source_files(source_dir):
    for sub in ("src", "tests", "bench", "tools", "examples"):
        base = os.path.join(source_dir, sub)
        for root, dirs, files in os.walk(base):
            # The fixtures carry seeded violations on purpose.
            dirs[:] = [d for d in dirs if d != "lint_fixtures"]
            for f in files:
                if f.endswith((".cc", ".h")):
                    yield os.path.join(root, f)


def lint_tree(build_dir, source_dir):
    violations = []

    # Source-level rules.
    for path in source_files(source_dir):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"linrec_lint: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        violations += check_hot_atomic(text,
                                       os.path.relpath(path, source_dir))

    # Object-level rules.
    objects = library_objects(build_dir)
    if not objects:
        print(f"linrec_lint: no linrec library objects under {build_dir} "
              f"(build the library first)", file=sys.stderr)
        sys.exit(2)
    for tu, obj in sorted(objects.items()):
        if tu in NO_STD_FUNCTION_TUS:
            violations += check_symbols(run(["nm", obj]), tu)

    # ctest registration.
    tests_dir = os.path.join(source_dir, "tests")
    test_sources = [f for f in os.listdir(tests_dir)
                    if f.endswith("_test.cc")]
    ctest_file = os.path.join(build_dir, "tests", "CTestTestfile.cmake")
    if os.path.exists(ctest_file):
        with open(ctest_file, encoding="utf-8") as f:
            violations += check_ctest_registration(test_sources, f.read())
    else:
        print(f"linrec_lint: note: {ctest_file} not found "
              f"(tests disabled in this build?); skipping "
              f"ctest-registration", file=sys.stderr)

    return violations


# --- self-test -------------------------------------------------------------


def self_test(fixtures_dir):
    """Feeds seeded violations (and clean twins) through every check."""
    failures = []

    def fixture(name):
        path = os.path.join(fixtures_dir, name)
        with open(path, encoding="utf-8") as f:
            return f.read()

    def expect(rule, name, got, want_violation):
        if want_violation and not got:
            failures.append(f"{rule}: seeded violation in {name} NOT caught")
        if not want_violation and got:
            failures.append(
                f"{rule}: clean fixture {name} falsely flagged: "
                + "; ".join(str(v) for v in got))

    # hot-atomic.
    bad = fixture("hot_atomic_bad.cc")
    good = fixture("hot_atomic_good.cc")
    expect("hot-atomic", "hot_atomic_bad.cc",
           check_hot_atomic(bad, "src/common/example.h"), True)
    expect("hot-atomic", "hot_atomic_good.cc",
           check_hot_atomic(good, "src/common/example.h"), False)

    # kernel-alloc.
    bad = fixture("symbols_bad.nm")
    good = fixture("symbols_good.nm")
    expect("kernel-alloc", "symbols_bad.nm",
           check_symbols(bad, "src/storage/relation.cc"), True)
    expect("kernel-alloc", "symbols_good.nm",
           check_symbols(good, "src/storage/relation.cc"), False)
    # No kernel TU may hand work to the WorkerPool: the Run reference
    # carries std::function in its mangling, and -O0 builds add the
    # caller's weak construct/destruct instantiations of the chunk-function
    # type. Both are flagged.
    expect("kernel-alloc", "symbols_bad.nm (WorkerPool hand-off)",
           check_symbols(
               "                 U _ZN6linrec10WorkerPool3RunEmRKSt8"
               "functionIFvimEE\n"
               "0000000000000000 W _ZNSt8functionIFvimEED1Ev\n",
               "src/storage/relation.cc"), True)

    # ctest-registration: fixture registers only one of the two tests.
    ctest = fixture("ctest_registrations.cmake")
    expect("ctest-registration", "ctest_registrations.cmake (missing)",
           check_ctest_registration(
               ["alpha_test.cc", "orphan_test.cc"], ctest), True)
    expect("ctest-registration", "ctest_registrations.cmake (registered)",
           check_ctest_registration(["alpha_test.cc"], ctest), False)

    if failures:
        print("linrec_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("linrec_lint self-test OK: every seeded violation caught, "
          "no clean fixture flagged")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="linrec repo-invariant linter")
    parser.add_argument("--build-dir", help="CMake build directory "
                        "(objects + CTestTestfile)")
    parser.add_argument("--source-dir", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own seeded-violation suite")
    args = parser.parse_args()

    if args.self_test:
        fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "lint_fixtures")
        return self_test(fixtures)

    if not args.build_dir:
        parser.error("--build-dir is required (or use --self-test)")
    if not os.path.isdir(args.build_dir):
        print(f"linrec_lint: build dir {args.build_dir} does not exist",
              file=sys.stderr)
        return 2

    violations = lint_tree(args.build_dir, args.source_dir)
    if violations:
        print(f"linrec_lint: {len(violations)} violation(s):",
              file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print("linrec_lint: OK (hot-atomic, kernel-alloc, ctest-registration)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
