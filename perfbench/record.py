"""Record the sha256 of every workload item's report in ``expected.json``.

Run from the repository root, on a commit whose reports are known good::

    python3 perfbench/record.py

Every report must also pass the benchmark's property checks; the first one
that does not stops the recording.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    if not run.prepare():
        return 2
    digests: dict[str, dict[str, str]] = {}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        cli = run.import_cli()
        out = work / "report.json"
        for w in run.WORKLOADS.values():
            directory = work / w.name
            directory.mkdir()
            digests[w.name] = {}
            for item, argv in run.write_inputs(w, directory):
                _, rc = run.run_item(cli, argv, out)
                if rc != 0:
                    print(f"error: {w.name} {item}: exit code {rc}", file=sys.stderr)
                    return 1
                data = out.read_bytes()
                error = run.check_report(w.command, json.loads(data))
                if error is not None:
                    print(f"error: {w.name} {item}: {error}", file=sys.stderr)
                    return 1
                digests[w.name][item] = hashlib.sha256(data).hexdigest()
            print(f"{w.name}: {len(digests[w.name])} digests", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
