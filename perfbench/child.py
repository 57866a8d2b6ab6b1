"""One CLI run in a fresh interpreter, as a user would start it.

    python3 child.py STAMP_FILE TRACE_FILE|- COMMAND CONFIG --out-dir DIR

Runs ``renewal_immigration.cli.main`` on the remaining arguments and exits
with its code.  STAMP_FILE receives the ``time.monotonic()`` reading taken
as soon as the config is loaded (the end of set-up).  With a TRACE_FILE
other than ``-`` every layer boundary is hooked (see tracer.py) and the
per-layer report is written there as JSON.
"""

import json
import sys
import time


def main(argv):
    stamp_file, trace_file, cli_args = argv[0], argv[1], argv[2:]
    from renewal_immigration import cli

    tracer = None
    if trace_file != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    load_config = cli.load_config

    def stamped_load_config(path):
        config = load_config(path)
        with open(stamp_file, "w") as fh:
            fh.write(repr(time.monotonic()))
        return config

    cli.load_config = stamped_load_config
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            with open(trace_file, "w") as fh:
                json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
