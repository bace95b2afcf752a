"""Run one qrerank CLI stage and record its own peak memory.

    python3 perfbench/stage.py PEAK_FILE [--trace SPANS_JSON RUN_ID] \\
        <qrerank arguments...>

The stage runs exactly as ``qrerank <arguments>`` would, in this process,
and the exit code is the stage's. At exit the process writes its peak
resident set size in kB (``VmHWM`` of ``/proc/self/status``) to PEAK_FILE.
That is the memory of this program alone: the ``ru_maxrss`` that the
benchmark gets from ``wait4`` also counts the memory of the benchmark
process, which the stage inherits when it is spawned.

With ``--trace`` the wrappers of ``tracing.Tracer`` are installed first; the
stage itself is the ``cli.<subcommand>`` span, and the spans are written to
SPANS_JSON at exit.
"""

import sys


def _peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv: list[str]) -> int:
    peak_path, argv = argv[0], argv[1:]
    tracer = None
    if argv[0] == "--trace":
        from tracing import Tracer
        spans_path, tracer, argv = argv[1], Tracer(argv[2]), argv[3:]
        tracer.install()
    from qrerank import cli
    run = cli.main if tracer is None else tracer.span(f"cli.{argv[0]}",
                                                      cli.main)
    try:
        return run(argv)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
        with open(peak_path, "w", encoding="ascii") as fh:
            fh.write(f"{_peak_kb()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
