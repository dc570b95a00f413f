#!/usr/bin/env python3
"""Harness watchdog smoke check.

Runs a bench command that is expected to hang (--debug-hang) with a short
--timeout-s, then asserts the crash-safe harness contract: the process
exits 124 (the timeout(1) convention) and the JSON report on disk is
complete, parseable, and marked "partial": true.

Usage: check_partial_report.py <report.json> <bench> [bench args...]
"""

import json
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    report_path = sys.argv[1]
    cmd = sys.argv[2:]
    proc = subprocess.run(cmd, timeout=120)
    if proc.returncode != 124:
        print(f"FAIL: expected exit 124 from the watchdog timeout, "
              f"got {proc.returncode}")
        return 1
    try:
        with open(report_path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: partial report unreadable or invalid JSON: {e}")
        return 1
    if doc.get("partial") is not True:
        print(f"FAIL: report not marked partial: {doc.get('partial')!r}")
        return 1
    for key in ("metrics_registry", "metrics", "tables", "degradation_levels"):
        if key not in doc:
            print(f"FAIL: partial report missing {key!r}: {sorted(doc)}")
            return 1
    levels = doc["degradation_levels"]
    if not isinstance(levels.get("resilience"), int):
        print(f"FAIL: degradation_levels missing 'resilience': {levels!r}")
        return 1
    if not 0 <= levels["resilience"] <= 3:
        print(f"FAIL: degradation_levels['resilience'] out of range: "
              f"{levels['resilience']!r}")
        return 1
    print("OK: exit 124 and valid partial JSON report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
