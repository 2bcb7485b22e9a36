"""Time one fresh set-up: `import mucorr.cli` plus one CLI operation.

Usage: python3 setup_probe.py <src-dir> <argv-as-json>
Prints {"setup_s": <seconds>, "exit": <exit code>} as its last line.
"""
import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mucorr import cli  # noqa: E402

code = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - start, "exit": code}))
