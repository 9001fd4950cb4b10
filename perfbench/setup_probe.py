"""One set-up sample: seconds from interpreter start-up to the first event.

Run by ``run.py`` in a fresh interpreter per sample. The clock starts
before ``repro`` is imported and stops when the workload first calls the
public ``Environment.run`` — wrapped here to record the time and abort.
The span therefore covers the import, configuration and grid validation,
and run assembly; for ``paper-sweep`` also the worker pool start-up,
since the first ``Environment.run`` happens inside a (forked) worker.
Prints the seconds as the last line of standard output.
"""

import time

START = time.monotonic()

import argparse  # noqa: E402
import sys  # noqa: E402


class FirstEvent(Exception):
    """Raised from the wrapped ``Environment.run``; carries the clock."""


def _abort_at_first_run(self, until=None):
    raise FirstEvent(time.monotonic())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    from run import require_source

    require_source()
    from repro.simul import Environment

    from workloads import WORKLOADS

    Environment.run = _abort_at_first_run
    try:
        WORKLOADS[args.workload].parts[0](args.seed)
    except FirstEvent as reached:
        print(reached.args[0] - START)
        return 0
    print("perfbench: workload finished without reaching Environment.run", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
