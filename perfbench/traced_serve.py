"""``python -m repro ...`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_serve.py SPAN_DIR serve DATASET ...``.
The arguments after ``SPAN_DIR`` go to the program's own command line
unchanged.  Spans go to ``SPAN_DIR/spans-<pid>.jsonl`` when the process
(or a forked shard worker) ends; ``SPAN_DIR/present.json`` lists which
boundaries were found.
"""

import atexit
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SERVER_BOUNDARIES, Recorder  # noqa: E402


def main() -> int:
    span_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder(span_dir)
    present = recorder.install(SERVER_BOUNDARIES)
    present["shard.worker_entry"] = recorder.install_worker_flush()
    with open(os.path.join(span_dir, "present.json"), "w") as handle:
        json.dump(present, handle)
    atexit.register(recorder.dump)
    from repro.__main__ import main as cli

    return cli(argv)


if __name__ == "__main__":
    sys.exit(main())
