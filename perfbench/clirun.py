"""Start one cold `leecodes` process through leecodes.cli.main().

Usage: python3 perfbench/clirun.py <subcommand> [args...]

`python -m leecodes.cli` does not run main(), so this launcher calls it.
The process runs the speed probe (probe.py); with PERFBENCH_PROBE set to
a file path it writes the probe's total and median time there when main()
exits.
With PERFBENCH_SPANS set to a file path, the module references held by
leecodes.cli are replaced by tracing proxies and the spans are written
to that file when main() exits.
"""

import json
import os
import statistics
import sys
from pathlib import Path

from probe import Probe

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def run_cli(spans_file):
    if not spans_file:
        from leecodes.cli import main as cli_main
        cli_main()
        return
    from leecodes import cli
    from tracing import Tracer

    tracer = Tracer()
    for name in ("codes", "decoder", "groups", "lee", "nonregular", "tiling"):
        setattr(cli, name, tracer.proxy(getattr(cli, name)))
    try:
        tracer.wrap("cli.main", cli.main)()
    finally:
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


def main():
    sys.argv = ["leecodes", *sys.argv[1:]]
    probe = Probe()
    probe.start()
    try:
        run_cli(os.environ.get("PERFBENCH_SPANS"))
    finally:
        probe.stop()
        probe_file = os.environ.get("PERFBENCH_PROBE")
        if probe_file:
            median = statistics.median(probe.took) if probe.took else None
            with open(probe_file, "w") as fh:
                json.dump({"spent": probe.spent, "median": median}, fh)


if __name__ == "__main__":
    main()
