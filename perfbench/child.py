"""One workload pass in a fresh interpreter; started by run.py.

    python3 perfbench/child.py '<json config>'

The config names the workload, the seed, whether to trace, whether to stop
after set-up, and the warm cache to copy in (with its line count).  The
child runs in its own empty working directory and writes `result.json`
there: the monotonic clock at the start of the timed phase (the parent
took the launch time on the same clock), the timed phase's wall and CPU
time less the sampler's own time, the mean reference-loop time of each
phase (see speed.py; a traced pass samples only its set-up), the check
outcome, its own peak RSS and, when traced, the per-layer
metrics of the timed phase.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from dataclasses import asdict

import speed

# sampling starts before the program is imported, so that the set-up phase
# is sampled too
SAMPLER = speed.Sampler()
SAMPLER.start()

from apery_words import evaluate, pipeline  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

CACHE_FILE = "cache.jsonl"
DEFAULT_CACHE_FILE = "cmzv-cache.jsonl"


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _guard(warm_lines: int | None) -> None:
    """Refuse to time anything unless the process starts cold."""
    problems = []
    if "CMZV_CACHE" in os.environ:
        problems.append("CMZV_CACHE is set")
    if os.path.exists(DEFAULT_CACHE_FILE):
        problems.append(f"./{DEFAULT_CACHE_FILE} exists")
    if evaluate._segment_memo:
        problems.append(f"segment memo holds {len(evaluate._segment_memo)} entries")
    if pipeline._compile_memo:
        problems.append(f"compile memo holds {len(pipeline._compile_memo)} entries")
    if warm_lines is None:
        if os.path.exists(CACHE_FILE):
            problems.append("cache file exists before a cold run")
    else:
        with open(CACHE_FILE, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != warm_lines:
            problems.append(f"warm cache has {lines} lines, expected {warm_lines}")
    if problems:
        raise SystemExit("cold-state guard: " + "; ".join(problems))


def main() -> None:
    cfg = json.loads(sys.argv[1])
    workload = WORKLOADS[cfg["workload"]]
    inputs = workload.inputs(cfg["seed"])
    if cfg["warm_cache"]:
        shutil.copyfile(cfg["warm_cache"], CACHE_FILE)
    _guard(cfg["warm_lines"])
    tracer = None
    if cfg["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    cache_path = os.path.abspath(CACHE_FILE)
    size_before = _size(cache_path)
    setup = SAMPLER.phase()
    if tracer or cfg["setup_only"]:
        SAMPLER.stop()
    t_start = _clock()
    result: dict = {
        "t_start": t_start,
        "setup_ref_s": setup["ref_s"],
        "setup_sampler_s": setup["sampler_s"],
    }
    if not cfg["setup_only"]:
        cpu_start = time.process_time()
        out = workload.run(inputs, cache_path)
        SAMPLER.stop()
        t_end = _clock()
        timed = SAMPLER.phase() if not tracer else {"sampler_s": 0.0}
        result["wall_s"] = t_end - t_start - timed["sampler_s"]
        result["cpu_s"] = time.process_time() - cpu_start - timed["sampler_s"]
        result["timed_ref_s"] = timed.get("ref_s")
        if tracer:
            result["layers"] = tracer.metrics(
                len(evaluate._segment_memo), _size(cache_path) - size_before
            )
        result.update(asdict(workload.check(out)))
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
