"""Set-up cost in a fresh interpreter.

Imports prefrank, then loads a workload's inputs through the public
readers, and prints {"setup_s": CPU seconds of this process}.  CPU time,
not wall time, so that CPU stolen by a hypervisor does not count.
prefrank must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).

    python3 setup_probe.py RECORDS LOGPROBS [EMBEDDINGS]
"""

import json
import sys
import time

start = time.process_time()
import prefrank  # the import is part of what is timed

prefrank.read_records(sys.argv[1])
prefrank.load_logprob_file(sys.argv[2])
if len(sys.argv) > 3:
    prefrank.load_external_embeddings(sys.argv[3])
print(json.dumps({"setup_s": time.process_time() - start}))
