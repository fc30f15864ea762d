#!/usr/bin/env python3
"""linrec repo-invariant linter.

Checks invariants the compiler cannot express and the test suite can only
probe dynamically, against the *built* tree (compile_commands.json + the
library's object files):

  isa-leak         AVX2 / widened-ISA instructions (any ymm/zmm register
                   use) may appear only in the whitelisted kernel TUs
                   (src/storage/relation.cc, src/eval/apply.cc get per-TU
                   -mavx2; everything else must stay baseline x86-64 so
                   LINREC_SIMD_AVX2=OFF builds run on pre-AVX2 hosts).
                   Inside the whitelisted objects, a *linrec-namespace*
                   weak (COMDAT) symbol may carry widened instructions
                   only if it is a declared `*Kernel*` member template:
                   the linker may hand a weak definition to other TUs'
                   callers, so our own API surface must not silently
                   export AVX2 code. Compiler-generated std:: COMDATs
                   (auto-vectorized std::vector members at -O3 and the
                   like) are exempt — with AVX2=ON the binary as a whole
                   targets AVX2 hosts (there is no runtime dispatch), so
                   an AVX2-compiled std instantiation winning the COMDAT
                   pick is ISA-consistent on every supported host.

  kernel-include   common/simd_kernels.h may be included only by the
                   whitelisted kernel TUs. The kernels assume they may be
                   compiled with a widened ISA; including them elsewhere
                   reintroduces the leak at the source level.

  hot-atomic       An atomic marked `// lint: hot-atomic` must be
                   alignas(64). The marker is the author's claim that the
                   atomic is hammered from multiple threads (work-stealing
                   counters, budget ledgers, the version stamp); the lint
                   makes "hot implies cache-line-isolated" permanent.

  kernel-alloc     Kernel-path TUs must not reference operator new (the
                   NO_ALLOC_TUS list) or std::function (NO_STD_FUNCTION_TUS)
                   symbols: an allocation or a type-erased indirect call
                   inside a scan/probe kernel is a per-row cost the
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

# TUs allowed to compile with the widened ISA and to include the vector
# kernels (CMakeLists.txt sets their per-source -mavx2; keep in sync).
KERNEL_TU_WHITELIST = [
    "src/storage/relation.cc",
    "src/eval/apply.cc",
]

# TUs whose objects must not reference the operator new family. These are
# the leaf kernels: pure loops over raw pointers, no setup phase.
NO_ALLOC_TUS = [
    "src/common/simd_scalar.cc",
]

# TUs whose objects must not reference std::function (type-erased calls
# have no place on the scan/probe path; the worker pool's std::function
# hand-off lives in common/parallel.cc and its callers, none of which is
# a kernel TU). No exception is sanctioned: a kernel TU that hands work
# to the WorkerPool is flagged like any other std::function reference.
NO_STD_FUNCTION_TUS = [
    "src/common/simd_scalar.cc",
    "src/storage/relation.cc",
    "src/eval/apply.cc",
]

# Registers whose appearance marks a widened-ISA instruction. AVX (ymm)
# and AVX-512 (zmm) both count: the baseline the non-kernel TUs target is
# SSE2-era x86-64.
WIDE_REGISTER = re.compile(r"%[yz]mm\d+")

# The weak-symbol subcheck applies to our own API surface: weak (COMDAT)
# symbols in the linrec namespace. A linrec weak symbol carrying ymm/zmm
# must match WEAK_ISA_ALLOWED — the declared kernel entry points, which
# are member templates (hence COMDAT) and exist only behind the library's
# SIMD surface. Anything else in the namespace — a helper template, an
# inline function in a shared header — is a leak: the linker may hand
# that AVX2 copy to another TU's caller, silently widening a path the
# header promised was baseline. Weak symbols OUTSIDE the namespace
# (compiler-generated std:: instantiations) are governed by the
# binary-level ISA contract instead (see module docstring) and pass.
# "In the namespace" means the mangled name's outermost scope is linrec
# (_ZN6linrec / _ZNK6linrec / _ZZN6linrec for function-local statics) —
# NOT a std:: template merely instantiated with a linrec type argument
# (std::vector<const linrec::HashIndex*>::_M_fill_assign mangles with
# 6linrec in the middle but belongs to libstdc++'s surface, not ours).
WEAK_ISA_SCOPE = re.compile(r"^_ZZ?N[KVOR]*6linrec")
WEAK_ISA_ALLOWED = re.compile(r"6linrec.*Kernel")

# operator new / operator new[] (plus the aligned/nothrow variants, which
# also start _Znw/_Zna after the itanium prefix).
ALLOC_SYMBOL = re.compile(r"^_Zn[wa]")

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


def check_isa_leak(disasm, tu, whitelisted, weak_symbols=frozenset()):
    """Scans one object's disassembly for widened-ISA register use.

    `disasm` is objdump -d output. Non-whitelisted TUs may not use
    ymm/zmm at all; whitelisted TUs may not use them inside weak (COMDAT)
    linrec-namespace functions other than the declared kernels — the
    linker could export those definitions to other TUs.
    """
    violations = []
    current_symbol = None
    symbol_line = re.compile(r"^[0-9a-fA-F]+ <(.+)>:$")
    for lineno, line in enumerate(disasm.splitlines(), 1):
        m = symbol_line.match(line.strip())
        if m:
            current_symbol = m.group(1)
            continue
        if not WIDE_REGISTER.search(line):
            continue
        if not whitelisted:
            violations.append(Violation(
                "isa-leak", f"{tu}:{lineno}",
                f"widened-ISA instruction outside the kernel whitelist "
                f"(in {current_symbol or '<unknown>'}): {line.strip()}"))
        elif (current_symbol in weak_symbols
              and WEAK_ISA_SCOPE.search(current_symbol)
              and not WEAK_ISA_ALLOWED.search(current_symbol)):
            violations.append(Violation(
                "isa-leak", f"{tu}:{lineno}",
                f"widened-ISA instruction in WEAK (COMDAT) linrec-"
                f"namespace function {current_symbol} — only declared "
                f"*Kernel* member templates may export AVX2 COMDAT "
                f"definitions the linker could hand to other TUs"))
    return violations


def check_kernel_include(source, path, whitelisted):
    """Flags #include of the vector kernels outside the whitelist."""
    if whitelisted:
        return []
    violations = []
    include = re.compile(r'^\s*#\s*include\s*[<"].*simd_kernels\.h[">]')
    for lineno, line in enumerate(source.splitlines(), 1):
        if include.match(line):
            violations.append(Violation(
                "kernel-include", f"{path}:{lineno}",
                "simd_kernels.h may only be included by the kernel TUs "
                f"({', '.join(KERNEL_TU_WHITELIST)}): they alone get the "
                "per-TU widened-ISA flags"))
    return violations


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


def check_symbols(symbols, tu, no_alloc, no_std_function):
    """Scans one object's symbol list (`nm` output lines) for forbidden
    references in kernel-path TUs."""
    violations = []
    for line in symbols.splitlines():
        parts = line.split()
        if not parts:
            continue
        name = parts[-1]
        if no_alloc and ALLOC_SYMBOL.search(name):
            violations.append(Violation(
                "kernel-alloc", tu,
                f"kernel-path TU references operator new ({name}); the "
                "scan kernels must not allocate"))
        if no_std_function and STD_FUNCTION_SYMBOL.search(name):
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


def weak_function_symbols(obj):
    """Weak/unique defined symbols of one object (COMDAT candidates)."""
    out = run(["nm", "-C", "--defined-only", obj])
    weak = set()
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in ("W", "w", "V", "v", "u"):
            weak.add(parts[2])
    # nm -C demangles; objdump -d prints mangled names. Collect both.
    out_mangled = run(["nm", "--defined-only", obj])
    for line in out_mangled.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in ("W", "w", "V", "v", "u"):
            weak.add(parts[2])
    return weak


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
    whitelist_abs = {os.path.normpath(os.path.join(source_dir, p))
                     for p in KERNEL_TU_WHITELIST}
    for path in source_files(source_dir):
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"linrec_lint: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        rel = os.path.relpath(path, source_dir)
        whitelisted = os.path.normpath(path) in whitelist_abs
        violations += check_kernel_include(text, rel, whitelisted)
        violations += check_hot_atomic(text, rel)

    # Object-level rules.
    objects = library_objects(build_dir)
    if not objects:
        print(f"linrec_lint: no linrec library objects under {build_dir} "
              f"(build the library first)", file=sys.stderr)
        sys.exit(2)
    for tu, obj in sorted(objects.items()):
        whitelisted = tu in KERNEL_TU_WHITELIST
        disasm = run(["objdump", "-d", "--no-show-raw-insn", obj])
        weak = weak_function_symbols(obj) if whitelisted else frozenset()
        violations += check_isa_leak(disasm, tu, whitelisted, weak)
        no_alloc = tu in NO_ALLOC_TUS
        no_fn = tu in NO_STD_FUNCTION_TUS
        if no_alloc or no_fn:
            symbols = run(["nm", obj])
            violations += check_symbols(symbols, tu, no_alloc, no_fn)

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

    # isa-leak: ymm in a non-whitelisted TU / in a weak symbol of a
    # whitelisted TU; clean scalar disassembly passes both ways.
    bad = fixture("isa_leak_bad.disasm")
    good = fixture("isa_leak_good.disasm")
    expect("isa-leak", "isa_leak_bad.disasm",
           check_isa_leak(bad, "src/eval/selection.cc", False), True)
    expect("isa-leak", "isa_leak_bad.disasm (weak, whitelisted)",
           check_isa_leak(bad, "src/storage/relation.cc", True,
                          weak_symbols={"_ZN6linrec4WeakEv"}), True)
    expect("isa-leak", "isa_leak_good.disasm",
           check_isa_leak(good, "src/eval/selection.cc", False), False)
    expect("isa-leak", "isa_leak_bad.disasm (whitelisted, non-weak)",
           check_isa_leak(bad, "src/storage/relation.cc", True,
                          weak_symbols=frozenset()), False)
    # A weak symbol matching the declared-kernel pattern is the sanctioned
    # COMDAT case (member-template kernels declared in the header).
    kernel_weak = fixture("isa_leak_weak_kernel.disasm")
    expect("isa-leak", "isa_leak_weak_kernel.disasm (allowed pattern)",
           check_isa_leak(
               kernel_weak, "src/storage/relation.cc", True,
               weak_symbols={
                   "_ZNK6linrec8Relation17WhereEqualsKernelILb0EEES0_il"}),
           False)
    # A weak std:: instantiation outside the linrec namespace is exempt:
    # auto-vectorized std::vector members at -O3 are governed by the
    # binary-level ISA contract, not the containment rule.
    std_weak = ("0000000000000000 "
                "<_ZNSt6vectorIlSaIlEE14_M_fill_assignEmRKl>:\n"
                "   0:\tvpbroadcastq %xmm0,%ymm0\n")
    expect("isa-leak", "inline std::vector COMDAT (exempt namespace)",
           check_isa_leak(
               std_weak, "src/storage/relation.cc", True,
               weak_symbols={
                   "_ZNSt6vectorIlSaIlEE14_M_fill_assignEmRKl"}),
           False)
    # A std:: template instantiated WITH a linrec type is still std::
    # surface — 6linrec appears mid-mangling, but the outermost scope is
    # what decides ownership.
    std_of_linrec = (
        "0000000000000000 "
        "<_ZNSt6vectorIPKN6linrec9HashIndexESaIS3_EE14_M_fill_assign"
        "EmRKS3_>:\n"
        "   0:\tvmovdqu %ymm0,(%rax)\n")
    expect("isa-leak", "std::vector<linrec type> COMDAT (exempt)",
           check_isa_leak(
               std_of_linrec, "src/eval/apply.cc", True,
               weak_symbols={
                   "_ZNSt6vectorIPKN6linrec9HashIndexESaIS3_EE"
                   "14_M_fill_assignEmRKS3_"}),
           False)

    # kernel-include.
    bad = fixture("kernel_include_bad.cc")
    good = fixture("kernel_include_good.cc")
    expect("kernel-include", "kernel_include_bad.cc",
           check_kernel_include(bad, "src/eval/selection.cc", False), True)
    expect("kernel-include", "kernel_include_good.cc",
           check_kernel_include(good, "src/eval/selection.cc", False), False)
    expect("kernel-include", "kernel_include_bad.cc (whitelisted)",
           check_kernel_include(bad, "src/storage/relation.cc", True), False)

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
           check_symbols(bad, "src/common/simd_scalar.cc", True, True), True)
    expect("kernel-alloc", "symbols_good.nm",
           check_symbols(good, "src/common/simd_scalar.cc", True, True),
           False)
    expect("kernel-alloc", "symbols_bad.nm (rule off)",
           check_symbols(bad, "src/eval/fixpoint.cc", False, False), False)
    # No kernel TU may hand work to the WorkerPool: the Run reference
    # carries std::function in its mangling, and -O0 builds add the
    # caller's weak construct/destruct instantiations of the chunk-function
    # type. Both are flagged.
    expect("kernel-alloc", "symbols_bad.nm (WorkerPool hand-off)",
           check_symbols(
               "                 U _ZN6linrec10WorkerPool3RunEmRKSt8"
               "functionIFvimEE\n"
               "0000000000000000 W _ZNSt8functionIFvimEED1Ev\n",
               "src/storage/relation.cc", False, True), True)

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
    print("linrec_lint: OK (isa-leak, kernel-include, hot-atomic, "
          "kernel-alloc, ctest-registration)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
