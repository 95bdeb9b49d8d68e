"""The served workloads' server process.

``tix serve --query-port`` in its default configuration (query cache
on, ``max_inflight`` 8, 1 s queue timeout) minus the telemetry
collector and the metrics endpoint: ``load_store`` a saved store,
start a :class:`QueryServer`, print one ready line, serve until stdin
says ``quit`` (or closes), then print one final line of totals.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from time import perf_counter


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.perf import QueryCache
    from repro.server import QueryServer
    from repro.xmldb.persist import load_store

    # Observation only: a callback does not change when or what the
    # collector collects.
    full_gc = {"count": 0, "total_s": 0.0, "max_s": 0.0, "t0": 0.0}

    def on_gc(phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            full_gc["t0"] = perf_counter()
        else:
            pause = perf_counter() - full_gc["t0"]
            full_gc["count"] += 1
            full_gc["total_s"] += pause
            full_gc["max_s"] = max(full_gc["max_s"], pause)

    gc.callbacks.append(on_gc)

    store = load_store(sys.argv[1])
    cache = QueryCache(store)
    server = QueryServer(store, cache=cache)
    server.start()  # builds index, structure index and statistics
    print(json.dumps({"port": server.port}), flush=True)
    for line in sys.stdin:
        if line.strip() == "quit":
            break
    drained = server.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "drained": drained,
        "peak_rss_kb": usage.ru_maxrss,
        "full_gc": {k: full_gc[k] for k in ("count", "total_s", "max_s")},
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ctx_switches": {"voluntary": usage.ru_nvcsw,
                         "involuntary": usage.ru_nivcsw},
        "cache": cache.stats(),
        "plan_entries": len(cache.plans),
        "admission": server.admission.snapshot(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
