#!/usr/bin/env python3
"""Determinism lint for the Jigsaw source tree.

Jigsaw's contract is bit-identical replay: every draw is a pure function of
(master_seed, call_site/salt, sample, draw index), so any nondeterminism
source that sneaks into src/ — a stray rand(), a wall-clock read feeding a
result, two draw sites sharing a salt — silently breaks reproducibility in
a way the bit-identity test grid only catches if the divergent path is
exercised. This lint makes the draw discipline a static property of every
build (it runs as the `determinism_lint` CTest and in the clang-analysis
CI job).

Rules
-----
duplicate-salt
    Named draw-site constants (constexpr std::uint64_t whose name contains
    Salt, Site, or Tag) must be unique by VALUE across src/: two sites
    sharing a salt would alias their draw streams, correlating draws that
    the models assume independent. Also rejects the same name declared
    twice in one file.

banned-nondeterminism
    rand()/srand(), std::random_device, time(nullptr)/time(0)/time(NULL),
    and std::chrono ...clock::now() are forbidden in src/. Clock reads are
    allowed only in util/timer.h (the one sanctioned timing wrapper —
    bench/ and tools/ are outside the scanned tree). A line may opt out
    with `// lint:allow-nondeterminism <reason>`, which should be rare and
    reviewed.

unordered-iteration
    Range-for over a std::unordered_{map,set} member/local declared in the
    same file: iteration order is libstdc++-version- and hash-seed-
    dependent, so anything folded or emitted in that order (estimator
    folds, Report tables) is silently irreproducible. Deterministic
    patterns (collect-then-sort, insertion-order side vectors like
    HashAggregateNode::order_, point lookups) do not trigger it. Opt out
    with `// lint:allow-unordered-iteration <reason>` when the fold is
    genuinely order-insensitive.

Usage
-----
    lint_determinism.py [--root DIR] [FILE...]

With no FILE arguments, scans every .h/.cc under <root>/src. Exit status 0
when clean, 1 on findings, 2 on usage errors.
"""

import argparse
import os
import re
import sys

# Named 64-bit constants that key draw streams. Name filter keeps mixing
# constants (golden ratios, FNV primes) out of the salt namespace.
SALT_DECL = re.compile(
    r"constexpr\s+(?:std::)?uint64_t\s+(?P<name>k\w*(?:Salt|Site|Tag)\w*)\s*=\s*"
    r"(?P<value>0[xX][0-9a-fA-F]+|\d+)\s*(?:ULL|ull|UL|ul|U|u)?\s*;"
)

BANNED = [
    # (rule-id, regex, message)
    ("rand", re.compile(r"\b(?:s)?rand\s*\("),
     "rand()/srand() is nondeterministic across libcs; draw from a "
     "RandomStream (SeedVector::StreamFor)"),
    ("random-device", re.compile(r"std::random_device"),
     "std::random_device draws entropy outside the seed vector"),
    ("time", re.compile(r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "wall-clock time can never feed a deterministic result"),
    ("clock-now", re.compile(
        r"(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\s*\("),
     "clock reads belong in util/timer.h (benchmarking), not in result "
     "paths"),
]

# Files where clock reads are the point.
CLOCK_ALLOWED = {os.path.join("util", "timer.h")}

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}]*?>\s+(?P<name>\w+)\s*(?:;|=|\{)"
)

ALLOW_NONDET = "lint:allow-nondeterminism"
ALLOW_UNORDERED = "lint:allow-unordered-iteration"


def strip_comments_and_strings(line):
    """Blanks out string/char literals and // comments so banned tokens in
    documentation or messages don't trigger. Keeps lint: markers visible to
    the caller (checked on the raw line)."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is comment
        out.append(c)
        i += 1
    return "".join(out)


def lint_file(path, rel, salts, findings):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
    except OSError as e:
        findings.append((rel, 0, "io", str(e)))
        return

    local_salt_names = {}
    unordered_names = {}

    for lineno, raw in enumerate(lines, 1):
        line = strip_comments_and_strings(raw)

        m = SALT_DECL.search(line)
        if m:
            name, value = m.group("name"), int(m.group("value"), 0)
            if name in local_salt_names:
                findings.append((
                    rel, lineno, "duplicate-salt",
                    f"{name} already declared at line "
                    f"{local_salt_names[name]} of this file"))
            local_salt_names[name] = lineno
            prev = salts.get(value)
            if prev is not None and prev[2] != name:
                findings.append((
                    rel, lineno, "duplicate-salt",
                    f"{name} = {hex(value)} collides with {prev[2]} at "
                    f"{prev[0]}:{prev[1]} — aliased draw streams"))
            else:
                salts[value] = (rel, lineno, name)

        for rule, rx, msg in BANNED:
            if not rx.search(line):
                continue
            if rule == "clock-now" and rel in CLOCK_ALLOWED:
                continue
            if ALLOW_NONDET in raw:
                continue
            findings.append((rel, lineno, f"banned-{rule}", msg))

        dm = UNORDERED_DECL.search(line)
        if dm:
            unordered_names[dm.group("name")] = lineno

    # Second pass: range-for over any name declared unordered in this file.
    if unordered_names:
        names = "|".join(re.escape(n) for n in unordered_names)
        range_for = re.compile(
            r"for\s*\([^;)]*?:\s*(?:this->)?(?P<name>" + names + r")\s*\)")
        for lineno, raw in enumerate(lines, 1):
            line = strip_comments_and_strings(raw)
            fm = range_for.search(line)
            if fm and ALLOW_UNORDERED not in raw:
                findings.append((
                    rel, lineno, "unordered-iteration",
                    f"range-for over std::unordered container "
                    f"'{fm.group('name')}' (declared line "
                    f"{unordered_names[fm.group('name')]}): iteration order "
                    f"is not deterministic — sort first or keep an "
                    f"insertion-order side vector"))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("files", nargs="*",
                    help="specific files to lint (default: all of src/)")
    args = ap.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.files:
        targets = [(f, os.path.relpath(f, root) if os.path.isabs(f) else f)
                   for f in args.files]
    else:
        src = os.path.join(root, "src")
        if not os.path.isdir(src):
            print(f"lint_determinism: no src/ under {root}", file=sys.stderr)
            return 2
        targets = []
        for dirpath, _, names in sorted(os.walk(src)):
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    full = os.path.join(dirpath, name)
                    targets.append((full, os.path.relpath(full, src)))

    findings = []
    salts = {}
    for path, rel in targets:
        lint_file(path, rel, salts, findings)

    for rel, lineno, rule, msg in findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    n_files = len(targets)
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s) in {n_files} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"lint_determinism: {n_files} file(s) clean "
          f"({len(salts)} draw-site constants, all distinct)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
