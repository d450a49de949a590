"""Check the dt events of one evolve output directory and print their counts.

usage: python .github/check_events.py OUTDIR [CAUSE]

Fails when result.json lists no events or an event's dt_new exceeds the dt
that manifest.json echoes.  With CAUSE, also fails unless the run logged a
probe shrink and an event of that cause.
"""

import collections
import json
import sys

out = sys.argv[1]
with open(f"{out}/result.json") as fh:
    result = json.load(fh)
with open(f"{out}/manifest.json") as fh:
    dt = json.load(fh)["config"]["dt"]
events = result.get("events")
if not isinstance(events, list):
    sys.exit(f"{out}: result.json lists no events")
causes = collections.Counter(e["cause"] for e in events)
print(f"{out}: dt events by cause {dict(causes)}, dt_final {result['dt_final']}, "
      f"stepper builds {result['stepper_builds']}", flush=True)
if any(e["dt_new"] > dt for e in events):
    sys.exit(f"{out}: an event's dt_new exceeds the configured dt {dt}")
if len(sys.argv) > 2 and not (causes["probe"] and causes[sys.argv[2]]):
    sys.exit(f"{out}: expected a probe shrink and a {sys.argv[2]!r} event")
