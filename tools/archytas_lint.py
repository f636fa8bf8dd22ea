#!/usr/bin/env python3
"""Repo-specific lint for Archytas, run as a CTest target (ctest -R lint).

Ownership split with archytas-analyzer (tools/analyzer/, the C++
static-analysis engine; see docs/STATIC_ANALYSIS.md): the analyzer owns
every token/scope-sensitive rule — determinism (unordered containers,
randomness, wall-clock, atomic RMW), hot-path allocation, module
layering, contract coverage, telemetry names, naked-new, raw-thread,
nodiscard-status, and direct-io. This linter keeps only the file-level
conventions that need no token stream:

  float-loop-index No `double`/`float` induction variables in C-style for
                   loops; accumulate t = start + i * step from an integer
                   index instead (float accumulation drifts and the trip
                   count becomes platform-dependent).
  include-guard    Headers under src/ use include guards named
                   ARCHYTAS_<PATH>_<FILE>_HH matching their path.
  hw-test-pairing  Every translation unit src/hw/<name>.cc has a matching
                   tests/hw/test_<name>.cc.

A line may carry an explicit waiver comment `// lint:allow(<rule-id>)`
when a violation is intentional; waivers are counted and reported.
Analyzer rules use the analyzer's own waiver syntax
(`// archytas-analyzer: allow(<rule>) -- <justification>`), not this one.

Exit status: 0 when clean, 1 when violations were found, 2 on usage error.

Self-test mode (--self-test) runs the linter over tests/lint/fixtures and
verifies that every fixture triggers exactly the rules named in its
`// lint-expect: rule-a rule-b` header line, and runs hw-test-pairing on a
temporary root with one unpaired hw unit, proving the linter still fails
on known-bad input. Used by the `lint.fixtures` CTest target.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

SOURCE_DIRS = ("src", "tests", "bench", "examples")
CPP_SUFFIXES = {".cc", ".hh"}
FIXTURE_DIR = Path("tests") / "lint" / "fixtures"
# archytas-analyzer's golden fixtures are deliberately broken inputs.
ANALYZER_FIXTURE_DIR = Path("tests") / "analyzer" / "fixtures"

WAIVER_RE = re.compile(r"//\s*lint:allow\((?P<rule>[a-z-]+)\)")

FLOAT_LOOP_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?(?:double|float)\s+\w+\s*=")
GUARD_IFNDEF_RE = re.compile(r"^#ifndef\s+(\w+)\s*$", re.MULTILINE)


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{where}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers stay correct."""
    out = []
    i = 0
    n = len(text)
    state = None  # None | "line" | "block" | "str" | "chr"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if ch == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
        elif state == "line":
            if ch == "\n":
                state = None
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if ch == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = None
            out.append("\n" if ch == "\n" else " ")
        i += 1
    return "".join(out)


def expected_guard(relpath):
    """src/linalg/matrix.hh -> ARCHYTAS_LINALG_MATRIX_HH."""
    parts = relpath.with_suffix("").parts[1:]  # drop leading "src"
    return "ARCHYTAS_" + "_".join(p.upper().replace("-", "_")
                                  for p in parts) + "_HH"


def line_waivers(raw_lines):
    waived = {}
    for lineno, line in enumerate(raw_lines, start=1):
        for m in WAIVER_RE.finditer(line):
            waived.setdefault(lineno, set()).add(m.group("rule"))
    return waived


def check_file(root, relpath, violations, waiver_count):
    raw = (root / relpath).read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    waived = line_waivers(raw_lines)
    clean = strip_comments_and_strings(raw)
    clean_lines = clean.splitlines()

    def report(rule, lineno, message):
        if rule in waived.get(lineno, ()):
            waiver_count[0] += 1
            return
        violations.append(Violation(rule, relpath, lineno, message))

    in_fixture_dir = FIXTURE_DIR in relpath.parents
    for lineno, line in enumerate(clean_lines, start=1):
        if FLOAT_LOOP_RE.search(line):
            report("float-loop-index", lineno,
                   "floating-point loop induction variable; iterate an "
                   "integer index and derive the value")

    if relpath.suffix == ".hh" and (relpath.parts[0] == "src" or
                                    in_fixture_dir):
        m = GUARD_IFNDEF_RE.search(clean)
        want = expected_guard(relpath)
        if not m:
            report("include-guard", 1, f"missing include guard {want}")
        elif m.group(1) != want:
            guard_line = clean[: m.start()].count("\n") + 1
            report("include-guard", guard_line,
                   f"include guard {m.group(1)} should be {want}")


def check_hw_test_pairing(root, violations):
    hw_dir = root / "src" / "hw"
    if not hw_dir.is_dir():
        return
    for cc in sorted(hw_dir.glob("*.cc")):
        expected = root / "tests" / "hw" / f"test_{cc.stem}.cc"
        if not expected.exists():
            violations.append(Violation(
                "hw-test-pairing", cc.relative_to(root), 0,
                f"no matching unit test tests/hw/test_{cc.stem}.cc"))


def iter_sources(root):
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            rel = path.relative_to(root)
            if FIXTURE_DIR in (rel, *rel.parents):
                continue
            if ANALYZER_FIXTURE_DIR in (rel, *rel.parents):
                continue
            if path.suffix in CPP_SUFFIXES and path.is_file():
                yield rel


def lint_tree(root):
    violations = []
    waiver_count = [0]
    for rel in iter_sources(root):
        check_file(root, rel, violations, waiver_count)
    check_hw_test_pairing(root, violations)
    return violations, waiver_count[0]


def self_test_hw_test_pairing():
    """The pairing rule has no per-file fixture: prove it fires by linting
    a temporary root with one unpaired and one paired hw unit. Returns
    the number of problems found (0 or 1)."""
    with tempfile.TemporaryDirectory() as tmp:
        view = Path(tmp)
        (view / "src" / "hw").mkdir(parents=True)
        (view / "tests" / "hw").mkdir(parents=True)
        for name in ("paired_unit.cc", "unpaired_unit.cc"):
            (view / "src" / "hw" / name).write_text("", encoding="utf-8")
        (view / "tests" / "hw" / "test_paired_unit.cc").write_text(
            "", encoding="utf-8")
        pairing = []
        check_hw_test_pairing(view, pairing)
    want = Path("src") / "hw" / "unpaired_unit.cc"
    if [(v.rule, v.path) for v in pairing] == [("hw-test-pairing", want)]:
        return 0
    print("self-test: hw-test-pairing should report exactly "
          f"{want}, reported:")
    for v in pairing:
        print(f"  {v}")
    return 1


def self_test(root):
    """Every fixture must trigger exactly its `// lint-expect:` rules."""
    fixtures = sorted((root / FIXTURE_DIR).glob("*"))
    fixtures = [f for f in fixtures if f.suffix in CPP_SUFFIXES]
    if not fixtures:
        print(f"self-test: no fixtures found under {FIXTURE_DIR}")
        return 1
    failures = 0
    for fixture in fixtures:
        rel = fixture.relative_to(root)
        head = fixture.read_text(encoding="utf-8").splitlines()[0]
        m = re.match(r"//\s*lint-expect:\s*(.*)$", head)
        if not m:
            print(f"self-test: {rel} lacks a // lint-expect: header")
            failures += 1
            continue
        expected = set(m.group(1).split())
        violations = []
        waivers = [0]
        check_file(root, rel, violations, waivers)
        got = {v.rule for v in violations}
        if got != expected:
            print(f"self-test: {rel}: expected rules {sorted(expected)}, "
                  f"linter reported {sorted(got)}")
            for v in violations:
                print(f"  {v}")
            failures += 1
    failures += self_test_hw_test_pairing()
    # The real tree must pair every hw unit too.
    pairing = []
    check_hw_test_pairing(root, pairing)
    if pairing:
        print("self-test: tree unexpectedly fails hw-test-pairing:")
        for v in pairing:
            print(f"  {v}")
        failures += 1
    if failures:
        print(f"self-test: FAILED ({failures} problem(s))")
        return 1
    print(f"self-test: ok ({len(fixtures)} fixtures)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter against the violation "
                             "fixtures instead of linting the tree")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} does not look like the Archytas root",
              file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(root)

    violations, waivers = lint_tree(root)
    for v in violations:
        print(v)
    suffix = f", {waivers} waiver(s)" if waivers else ""
    if violations:
        print(f"archytas_lint: {len(violations)} violation(s){suffix}")
        return 1
    print(f"archytas_lint: clean{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
