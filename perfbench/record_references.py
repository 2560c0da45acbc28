"""Record the reference outputs that default-seed runs are compared against.

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``: for seed 0, the rows of the first
D2D_DROPS drops of ``d2d-drops`` and the outputs of the first cycle of
``cli-queries``. Re-record only when a change of results is intended, and
say why in the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
D2D_DROPS = 24


def main() -> int:
    from run import SERIAL_ENV

    os.environ.update(SERIAL_ENV)
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    seed = workloads.DEFAULT_SEED
    drops = workloads.D2dDrops(seed)
    refs = {"d2d-drops": {str(i): drops.rows(drops.op(i)) for i in range(D2D_DROPS)}}

    workdir = HERE.parent / ".perfbench_work" / "references"
    try:
        cli = workloads.CliQueries(seed, workdir)
        out = {}
        for i in range(1, len(workloads.MIX) + 1):
            code, stdout = cli.op(i)
            if code != 0:
                raise RuntimeError(f"{cli.queries[i]['argv']} exited {code}")
            text = stdout.decode()
            out[str(i)] = text if cli.queries[i]["kind"] == "version" else json.loads(text)
        refs["cli-queries"] = out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
