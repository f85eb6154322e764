"""Time lpbounds set-up once, in a fresh process.

    python3 bench/probe_setup.py OUT_DIR CLI_ARG...

Set-up is ``import lpbounds.cli`` (which imports the whole package) plus the
CLI's argument and config resolution, up to the first call into a numeric
layer, where the probe stops the command.  Installing the probe is not
counted.  Prints the seconds.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import lpbounds.cli  # noqa: E402

T1 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    probe = tracing.SetupProbe()
    tracing.install(probe)
    t2 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            lpbounds.cli.main(argv + ["--out-dir", out_dir])
    except tracing.FirstNumericCall:
        pass
    if probe.stopped_at is None:
        print("the command made no numeric call", file=sys.stderr)
        return 1
    print((T1 - T0) + (probe.stopped_at - t2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
