#!/usr/bin/env python3
"""Compare a bench --json report's tables with a committed golden.

Usage: check_golden.py [--update] GOLDEN REPORT [-- BENCH [ARGS...]]

The golden holds the report's "tables" array only: every title, header
and cell, and no timings. Bench tables are deterministic (seeded
simulation), so the comparison is exact, cell for cell.

A command after "--" runs first; it must write REPORT (pass it
"--json REPORT"). That lets one ctest both regenerate and check a report.

--update rewrites GOLDEN from REPORT instead of comparing. A golden pins
numbers the paper's claims rest on: every use of --update needs a line in
CHANGES.md that says which numbers moved and why.

Exit 0 = identical (or updated), 1 = tables differ, 2 = usage, run or
I/O error.
"""

import argparse
import json
import subprocess
import sys

MAX_DIFFS = 20


def load_tables(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        doc = doc.get("tables")
    if not isinstance(doc, list):
        raise ValueError(f"{path}: no tables array")
    return doc


def diff_tables(golden, report):
    """Human-readable differences, at most MAX_DIFFS of them."""
    diffs = []
    if len(golden) != len(report):
        diffs.append(f"table count: golden {len(golden)}, report {len(report)}")
    for g, r in zip(golden, report):
        title = g.get("title", "?")
        for key in ("title", "headers"):
            if g.get(key) != r.get(key):
                diffs.append(f"[{title}] {key}: golden {g.get(key)!r}, "
                             f"report {r.get(key)!r}")
        g_rows, r_rows = g.get("rows", []), r.get("rows", [])
        if len(g_rows) != len(r_rows):
            diffs.append(f"[{title}] row count: golden {len(g_rows)}, "
                         f"report {len(r_rows)}")
        headers = g.get("headers", [])
        for i, (gr, rr) in enumerate(zip(g_rows, r_rows)):
            if len(gr) != len(rr):
                diffs.append(f"[{title}] row {i}: golden {gr!r}, report {rr!r}")
                continue
            for j, (gc, rc) in enumerate(zip(gr, rr)):
                if gc != rc:
                    col = headers[j] if j < len(headers) else f"col {j}"
                    diffs.append(f"[{title}] row {i} ({gr[0]}) {col}: "
                                 f"golden {gc!r}, report {rc!r}")
        if len(diffs) >= MAX_DIFFS:
            break
    return diffs[:MAX_DIFFS]


def main():
    argv = sys.argv[1:]
    command = []
    if "--" in argv:
        cut = argv.index("--")
        argv, command = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(
        description="Compare a bench report's tables with a golden.")
    parser.add_argument("golden")
    parser.add_argument("report")
    parser.add_argument("--update", action="store_true",
                        help="rewrite GOLDEN from REPORT")
    args = parser.parse_args(argv)

    if command:
        proc = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=600)
        if proc.returncode != 0:
            print(f"FAIL: {' '.join(command)} exited {proc.returncode}")
            return 2
    try:
        report = load_tables(args.report)
        if args.update:
            with open(args.golden, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
            print(f"updated {args.golden} ({len(report)} tables)")
            return 0
        golden = load_tables(args.golden)
    except (OSError, ValueError) as e:
        print(f"FAIL: {e}")
        return 2

    diffs = diff_tables(golden, report)
    if diffs:
        print(f"FAIL: {args.report} differs from {args.golden}:")
        for d in diffs:
            print(f"  {d}")
        return 1
    print(f"OK: {len(golden)} tables identical to {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
