#!/usr/bin/env python3
"""Project-invariant linter: the rules the compiler can't see.

Clang's thread-safety analysis proves lock discipline, but only for code
built with clang and only for annotated types. The sync-discipline checks
keep the codebase in the shape that makes the analysis (and TSan)
trustworthy:

  raw-mutex        no std::mutex / std::lock_guard / std::unique_lock /
                   std::scoped_lock / std::condition_variable in src/
                   outside common/sync.h — everything goes through the
                   annotated sync:: types
  mutex-include    no #include <mutex> / <condition_variable> in src/
                   outside common/sync.h
  sync-include     a src/ *header* naming a sync:: type or a thread-safety
                   macro (GUARDED_BY, REQUIRES, ...) must include
                   common/sync.h itself (include-what-you-use for locks;
                   .cc files may lean on their own header's include)
  sleep-in-src     no sleep_for / sleep_until / usleep in src/ — blocking
                   delays belong behind CondVar waits or poll timeouts

One more keeps src/ to what a program runs:

  test-only-header a src/ header that no file under src/, examples/,
                   bench/ or perfbench/ includes, its own .cc aside, is
                   reached only from tests: delete it with its tests, or
                   move a test oracle into tests/

Scope is src/ only: tests and benches legitimately use raw primitives as
test plumbing, and a test's includes do not make a header live.
Suppressions live in tools/lint_allowlist.txt as "<rule> <path>" lines
(one per entry, '#' comments); every entry should say why.

Usage: tools/lint.py [--fix] [files...]   (default: every file in src/)
  --fix prints a remediation hint under each finding. Exit 0 = clean,
  1 = findings, 2 = usage/config error. Runs in well under 5 s.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SYNC_HEADER = "src/common/sync.h"
ALLOWLIST = REPO / "tools" / "lint_allowlist.txt"

RAW_SYNC = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b")
SYNC_INCLUDE = re.compile(r'#include\s*<(mutex|condition_variable|shared_mutex)>')
SYNC_USE = re.compile(
    r"\bsync::(Mutex|MutexLock|ReleasableMutexLock|CondVar)\b|"
    r"\b(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE|RELEASE|"
    r"TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|RETURN_CAPABILITY|"
    r"NO_THREAD_SAFETY_ANALYSIS)\s*\(")
SYNC_H_INCLUDED = re.compile(r'#include\s*"common/sync\.h"')
SLEEP = re.compile(r"\b(sleep_for|sleep_until|usleep|nanosleep)\s*\(")

HINTS = {
    "raw-mutex": "use sync::Mutex / sync::MutexLock / sync::CondVar from "
                 "common/sync.h (annotated; no-op attributes under gcc)",
    "mutex-include": '#include "common/sync.h" instead — it is the only '
                     "src/ file that may include <mutex>",
    "sync-include": '#include "common/sync.h" directly in this file '
                    "(include-what-you-use: do not rely on transitive "
                    "includes for lock types)",
    "sleep-in-src": "replace with a CondVar wait on a real predicate or a "
                    "poll/epoll timeout; if the backoff is deliberate, add "
                    "an allowlist entry explaining why",
    "test-only-header": "no program includes this header: delete it and "
                        "its .cc with the tests that exercise only them, or "
                        "move the code the tests need into tests/",
}

# The trees whose includes make a src/ header live: the libraries
# themselves, the examples, the benches and the benchmark harness.
PROGRAM_DIRS = ("src", "examples", "bench", "perfbench")
QUOTED_INCLUDE = re.compile(r'^\s*#include\s*"([^"]+)"', re.M)


def load_allowlist():
    entries = set()
    if not ALLOWLIST.exists():
        return entries
    for raw in ALLOWLIST.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in HINTS:
            print(f"lint: bad allowlist entry: {raw!r}", file=sys.stderr)
            sys.exit(2)
        entries.add((parts[0], parts[1]))
    return entries


def strip_comments(line):
    # Good enough for these rules: drop // comments and string contents so
    # prose about std::mutex does not trip the linter.
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    return line.split("//", 1)[0]


def lint_file(path, rel, allow, fix):
    findings = []
    try:
        text = path.read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError):
        return findings
    is_sync_h = rel == SYNC_HEADER
    uses_sync = False
    includes_sync_h = False
    in_block_comment = False
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and line.find("*/", start) < 0:
            in_block_comment = True
            line = line[:start]
        # Check includes before strip_comments blanks the quoted path.
        if SYNC_H_INCLUDED.search(line):
            includes_sync_h = True
        code = strip_comments(line)
        if not code.strip():
            continue
        if SYNC_USE.search(code):
            uses_sync = True
        if not is_sync_h:
            if RAW_SYNC.search(code):
                findings.append((rel, lineno, "raw-mutex", raw_line.strip()))
            if SYNC_INCLUDE.search(code):
                findings.append((rel, lineno, "mutex-include", raw_line.strip()))
        if SLEEP.search(code):
            findings.append((rel, lineno, "sleep-in-src", raw_line.strip()))
    if (uses_sync and not includes_sync_h and not is_sync_h
            and rel.endswith(".h")):
        findings.append((rel, 1, "sync-include",
                         "header uses sync:: types or thread-safety macros "
                         'without #include "common/sync.h"'))
    return [f for f in findings if (f[2], f[0]) not in allow]


def program_includers():
    """Maps each quoted include path to the program files that include it."""
    includers = {}
    for top in PROGRAM_DIRS:
        for path in (REPO / top).rglob("*"):
            if path.suffix not in (".h", ".cc"):
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except (UnicodeDecodeError, OSError):
                continue
            rel = path.relative_to(REPO).as_posix()
            for include in QUOTED_INCLUDE.findall(text):
                includers.setdefault(include, set()).add(rel)
    return includers


def lint_test_only_header(rel, includers, allow):
    """A src/ header that no program file includes, its own .cc aside."""
    if not rel.endswith(".h"):
        return []
    include = rel[len("src/"):]
    own_cc = rel[:-len(".h")] + ".cc"
    if includers.get(include, set()) - {own_cc}:
        return []
    if ("test-only-header", rel) in allow:
        return []
    return [(rel, 1, "test-only-header",
             "no file under " + ", ".join(d + "/" for d in PROGRAM_DIRS) +
             " includes this header")]


def main(argv):
    fix = "--fix" in argv
    args = [a for a in argv if a != "--fix"]
    if args:
        files = [Path(a).resolve() for a in args]
    else:
        files = sorted(p for p in (REPO / "src").rglob("*")
                       if p.suffix in (".h", ".cc"))
    allow = load_allowlist()
    includers = program_includers()
    findings = []
    for path in files:
        try:
            rel = path.relative_to(REPO).as_posix()
        except ValueError:
            rel = path.as_posix()
        if not rel.startswith("src/"):
            continue  # rules are scoped to src/
        findings.extend(lint_file(path, rel, allow, fix))
        findings.extend(lint_test_only_header(rel, includers, allow))
    for rel, lineno, rule, context in findings:
        print(f"{rel}:{lineno}: [{rule}] {context}")
        if fix:
            print(f"    fix: {HINTS[rule]}")
    if findings:
        print(f"lint: {len(findings)} finding(s); see tools/lint.py "
              "docstring for the rules, tools/lint_allowlist.txt to "
              "suppress with a reason")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
