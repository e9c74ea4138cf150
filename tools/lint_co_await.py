#!/usr/bin/env python3
"""Fail on a conditional operator with a co_await in either arm.

Usage:

    python3 tools/lint_co_await.py [ROOT]

Scans the C++ sources under ROOT/src, ROOT/bench, ROOT/tests and
ROOT/examples (ROOT defaults to the repository this script lives in).
GCC 12 evaluates the operands of both arms of `c ? co_await a() :
co_await b()`, so both ops run; write an if/else instead (DESIGN.md §8).
A co_await in the condition alone is fine. Comments and string and
character literals are ignored.

Prints one `path:line: ...` per offence and exits 1 if there is any,
0 otherwise. Python 3 standard library only.
"""

import os
import re
import sys

DIRS = ("src", "bench", "tests", "examples")
SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
CO_AWAIT = re.compile(r"\bco_await\b")
OPEN = "([{"
CLOSE = ")]}"


def strip(text):
    """Blanks comments and literals, keeping every newline in place."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
        elif c == "R" and text.startswith('R"', i) and \
                (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i)
            j = n if end < 0 else end + len(m.group(1)) + 2
        elif c in "\"'":
            if c == "'" and i > 0 and text[i - 1].isalnum():
                out.append(c)  # digit separator, as in 1'000
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
        else:
            out.append(c)
            i += 1
            continue
        out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
        i = j
    return "".join(out)


def arm_end(code, start):
    """End of an operand of `?:` that starts at `start`: the first `;`,
    `,`, closing bracket or unclaimed `:` (not `::`) at its own nesting
    depth; a `?` inside the operand claims the next `:`. Returns the index
    and the character there ("" at the end of the text).
    """
    depth = 0
    pending = 0  # nested conditionals whose `:` is still to come
    i, n = start, len(code)
    while i < n:
        c = code[i]
        if c in OPEN:
            depth += 1
        elif c in CLOSE:
            if depth == 0:
                return i, c
            depth -= 1
        elif depth == 0 and c in ";,":
            return i, c
        elif depth == 0 and c == "?":
            pending += 1
        elif depth == 0 and c == ":":
            if code.startswith("::", i):
                i += 2
                continue
            if pending == 0:
                return i, c
            pending -= 1
        i += 1
    return n, ""


def offences(text):
    """Line numbers of conditionals with a co_await in an arm."""
    code = strip(text)
    lines = []
    for m in re.finditer(r"\?", code):
        q = m.start()
        colon, ch = arm_end(code, q + 1)
        if ch != ":":
            continue  # not a conditional operator
        end, _ = arm_end(code, colon + 1)
        if CO_AWAIT.search(code[q + 1:colon]) or \
                CO_AWAIT.search(code[colon + 1:end]):
            lines.append(code.count("\n", 0, q) + 1)
    return lines


def main(argv):
    root = argv[1] if len(argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found = 0
    scanned = 0
    for d in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(SUFFIXES):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8", errors="replace") as f:
                    text = f.read()
                scanned += 1
                for line in offences(text):
                    found += 1
                    print(f"{os.path.relpath(path, root)}:{line}: "
                          "conditional operator with co_await in an arm; "
                          "GCC 12 evaluates both arms, use if/else "
                          "(DESIGN.md section 8)")
    if scanned == 0:
        print(f"lint_co_await: no sources under {root}", file=sys.stderr)
        return 2
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
