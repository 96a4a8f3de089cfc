"""The benchmark's tracer, `bench/tracing.py`, around the golden run, in process.

The tracer wraps prefrank's functions at the module names their callers
look them up by.  A call routed around one of those names leaves its span
empty, and a traced benchmark run (`bench/run.py --trace 1`) then stops
with "per-layer metrics not measured"; this test fails first.  `bench/` is
imported as it is, not changed.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

from test_golden_run import golden_run  # noqa: E402


def test_the_golden_run_reaches_every_traced_name(tmp_path):
    tracer = tracing.Tracer()
    tracer.install("golden")  # looks up every TIMED and COUNTED name, so a missing one raises here
    try:
        golden_run(tmp_path)
    finally:
        tracer.uninstall()
    recorded = {span.name for span in tracer.spans}
    assert {name for _, _, name, _ in tracing.TIMED} - recorded == set()
    assert {name for _, _, name in tracing.COUNTED} - {name for _, name in tracer.counts} == set()
