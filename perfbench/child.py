"""Fresh-interpreter launcher for one ``ctower`` CLI run.

    python perfbench/child.py SIDE_FILE [--setup-only] -- CLI_ARGV...

Imports ``ctower.cli``, parses the argv with the CLI's own parser (and the
``--config`` file, if any), notes ``time.monotonic()``, then runs
``ctower.cli.main``.  CLOCK_MONOTONIC is shared by all processes on the
machine, so the parent subtracts its own spawn time to get the set-up time.
With ``--setup-only`` it exits after set-up.

From its first line on, a SIGALRM every ``CALIB_INTERVAL_S`` of wall time
times one fixed pure-Python loop (``calib_loop``) on the same core and at
the same moment as the program.  The speed of a shared VM drifts by 20-50%
over minutes, and the loop slows down with the program, so the parent
divides the child's times by the loop's mean duration and multiplies by
``CALIB_REF_S``: seconds at a fixed reference speed, which do not drift with
the machine.

At exit the child writes SIDE_FILE as JSON: ``setup_done`` (the monotonic
time at the end of set-up), ``setup_calib_s`` and ``calib_s`` (the loop's
mean duration during set-up and during the whole child, None without a
sample) and ``calib_samples``.
"""

import json
import signal
import sys
import time

CALIB_INTERVAL_S = 0.02
# The unit of the calibrated times: one calib_loop takes this long at the
# reference speed (about its duration on the baseline machine at full speed).
CALIB_REF_S = 0.0003


def calib_loop():
    d = {}
    for i in range(2000):
        d[i % 503] = d.get(i % 503, 0) + i * i % 97


def _mean(values):
    return sum(values) / len(values) if values else None


def main(argv):
    sep = argv.index("--")
    side, flags, cli_argv = argv[0], argv[1:sep], argv[sep + 1:]
    samples = []

    def probe(signum, frame):
        start = time.perf_counter()
        calib_loop()
        samples.append(time.perf_counter() - start)

    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, CALIB_INTERVAL_S, CALIB_INTERVAL_S)
    try:
        from ctower import cli

        args = cli.build_parser().parse_args(cli_argv)
        if getattr(args, "config", None):
            cli._verify_config(args)
        setup_done = time.monotonic()
        setup_samples = len(samples)
        code = 0 if "--setup-only" in flags else cli.main(cli_argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    with open(side, "w") as fh:
        json.dump({"setup_done": setup_done,
                   "setup_calib_s": _mean(samples[:setup_samples]),
                   "calib_s": _mean(samples),
                   "calib_samples": len(samples)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
