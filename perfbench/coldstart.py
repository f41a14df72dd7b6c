"""One set-up sample in a fresh process.

Reads a workload's case list as JSON on stdin, imports ``latticebae`` and
runs the first (cold) pass, then prints one JSON line with the elapsed
seconds, the peak resident memory and the solve tally.  ``run.py`` starts this script; it is not
meant to be run by hand.
"""

import json
import sys

import workloads

if __name__ == "__main__":
    cases = json.load(sys.stdin)
    tally = workloads.Tally()
    seconds, _ = workloads.cold_pass(cases, tally)
    print(json.dumps({"setup_s": seconds, "peak_rss_mb": workloads.peak_rss_mb(),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "messages": tally.messages}))
