#!/usr/bin/env bash
# Scenario-digest gate: compare chaos_harness reports against the
# golden per-scenario digests in results/SCENARIO_digests.json.
#
#   tools/check_digests.sh <report.json> [<report.json> ...]
#
# Every scenario in every report must have a golden entry, the report
# must have run at the golden seed, and each recorded field must match
# exactly: submitted/answered counts, the rung, failover and event
# sequences, the shed / worker-restart / breaker / p99-depth /
# failover / hedge / recovery counts, and pass/fail. A scenario's
# outcome is a pure function of (name, seed, requests), so any
# difference is a behaviour change, not noise.
#
# Exits non-zero listing every mismatch.

set -euo pipefail

[ "$#" -ge 1 ] || { echo "usage: tools/check_digests.sh <report.json>..." >&2; exit 2; }
GOLDEN="$(dirname "$0")/../results/SCENARIO_digests.json"

python3 - "$GOLDEN" "$@" <<'PYEOF'
import json
import sys

golden = json.load(open(sys.argv[1]))
expected = golden["scenarios"]
mismatches = []
checked = 0

for path in sys.argv[2:]:
    report = json.load(open(path))
    if report["base_seed"] != golden["seed"]:
        mismatches.append(
            f"{path}: ran at seed {report['base_seed']}, golden digests are for seed {golden['seed']}"
        )
        continue
    for scenario in report["scenarios"]:
        name = scenario["name"]
        want = expected.get(name)
        if want is None:
            mismatches.append(f"{name}: no golden digest")
            continue
        got = dict(scenario, passed=not scenario["violations"])
        for field, value in want.items():
            if got.get(field) != value:
                mismatches.append(f"{name}.{field}: got {got.get(field)!r}, golden {value!r}")
        checked += 1

print(f"check_digests: {checked} scenarios compared against {sys.argv[1]}")
for m in mismatches:
    print(f"DIGEST MISMATCH {m}", file=sys.stderr)
sys.exit(1 if mismatches or checked == 0 else 0)
PYEOF
