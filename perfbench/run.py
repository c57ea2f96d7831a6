"""The apery-words benchmark: one command, three workloads, closed loop.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --selftest

The checkout is the parent of this file's directory and must hold
`src/apery_words`; nothing is built.  Each workload pass runs in a fresh
interpreter (perfbench/child.py) with one client, one process and one
thread, in an empty temporary directory under `.bench_build/perfbench/`,
with `CMZV_CACHE` removed and an explicit cache path.  A run makes timed
passes one after another, each after three set-up-only passes, while the
next one is predicted to end within `--seconds` (always at least one), then
set-up-only passes up to fifteen.  `wall_s` and `setup_s` are medians over
the passes of each pass's time at the reference speed (speed.py): its
measured time scaled by how fast a fixed reference loop, interleaved with
it in the same thread, ran.  The measured medians are on the summary and
detail lines.  A traced run (`--trace 1`) makes one traced and one untraced pass
and reports the per-layer metrics; their difference in measured wall time
is the tracing overhead.

The last line of standard output is the result JSON; the line before it
carries the machine and noise stamp, every pass, the failure share and the
worst deviations from the references.  `--selftest` checks the generator
against `tests/conftest.py`, the metric tables against BENCHMARK.json, and
that two traced passes of each workload repeat every exact count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("verify-warm", "corpus", "precision-ladder")
# the workloads BENCHMARK.json lists; precision-ladder is run by hand only,
# because one pass (20-26 s) leaves a run a single sample of a noisy host
BENCHMARKED = ("verify-warm", "corpus")
WARM = "verify-warm"
DEFAULT_SEED = 20240817

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
# set-up-only passes, about 0.15 s each: a few before every timed pass, so
# that they sample the host across the run, and the rest after the last
SETUP_PROBES = 15
PROBES_PER_PASS = 3
# an untraced, timed pass that starts without a cache file
COLD_PASS = {"trace": False, "setup_only": False, "warm_cache": None, "warm_lines": None}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
FILL_LIMIT_S = 600.0  # the one cold verify that fills the warm cache

# per-layer values a workload must show if it bypasses a layer
BYPASS = {
    "verify-warm": {"evaluate.segment.calls": 0, "evaluate.word.cache_hit_ratio": 1},
    "precision-ladder": {"oracle.sweep.calls": 0, "oracle.harmonic.calls": 0},
}


class BenchError(RuntimeError):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CMZV_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(cfg: dict, deadline: float, keep_cache: Path | None = None) -> dict:
    """One child interpreter; returns its result with setup_s and wall_s."""
    work_root = STATE / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=work_root))
    try:
        t_launch = _clock()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
                cwd=work,
                env=_child_env(),
                capture_output=True,
                text=True,
                timeout=max(1.0, deadline - t_launch),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{cfg['workload']} pass exceeded {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{cfg['workload']} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if keep_cache is not None:
            shutil.move(work / "cache.jsonl", keep_cache)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    t_start = result.pop("t_start")
    result["setup_s"] = t_start - t_launch - result.pop("setup_sampler_s")
    return result


def _source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "apery_words").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def warm_cache() -> Path:
    """The cache file one cold verify fills, made once per source tree."""
    cache = STATE / f"warm-{_source_fingerprint()}.jsonl"
    if not cache.exists():
        STATE.mkdir(parents=True, exist_ok=True)
        partial = cache.with_suffix(".partial")
        cold = {**COLD_PASS, "workload": WARM, "seed": DEFAULT_SEED}
        result = run_pass(cold, _clock() + FILL_LIMIT_S, keep_cache=partial)
        if result["failed"]:
            raise BenchError(f"the cold verify that fills the cache failed: {result['errors']}")
        os.replace(partial, cache)
    return cache


def _line_count(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def _stamp() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _pass_config(workload: str, seed: int) -> dict:
    cfg = {**COLD_PASS, "workload": workload, "seed": seed}
    if workload == WARM:
        cache = warm_cache()
        cfg.update(warm_cache=str(cache), warm_lines=_line_count(cache))
    return cfg


def _bypass(workload: str, layers: dict) -> dict[str, bool]:
    return {name: layers[name] == want for name, want in BYPASS.get(workload, {}).items()}


def _spans():
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans

    return spans


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run the passes of one benchmark run; returns (detail, result)."""
    stamp = _stamp()
    stamp["loadavg_start"] = os.getloadavg()
    base = _pass_config(workload, seed)
    deadline = _clock() + RUN_LIMIT_S

    def one(**kw) -> dict:
        return run_pass({**base, **kw}, deadline)

    if trace:
        traced, plain = one(trace=True), one()
        timed, probes = [traced, plain], []
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {name: _metric(layers[name], unit)
                   for name, (unit, _) in _spans().PER_LAYER.items()}
    else:
        probes, timed = [], []
        loop_start = _clock()
        while True:
            probes += [one(setup_only=True) for _ in range(PROBES_PER_PASS)]
            timed.append(one())
            spent = _clock() - loop_start
            mean = spent / len(timed)
            if spent + mean > seconds or _clock() + mean > deadline:
                break
        probes += [one(setup_only=True) for _ in range(SETUP_PROBES - len(probes))]
        wall = [speed.at_reference_speed(p["wall_s"], p["timed_ref_s"]) for p in timed]
        setup = [speed.at_reference_speed(p["setup_s"], p["setup_ref_s"]) for p in probes + timed]
        metrics = {
            "wall_s": _metric(statistics.median(wall), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mib": _metric(statistics.median(p["rss_kib"] for p in timed) / 1024, "MiB"),
        }
    stamp["loadavg_end"] = os.getloadavg()
    attempted = sum(p["attempted"] for p in timed)
    failed = sum(p["failed"] for p in timed)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "stamp": stamp,
        "fail_share": failed / attempted,
        "wall_raw_s": statistics.median(p["wall_s"] for p in timed),
        "setup_raw_s": statistics.median(p["setup_s"] for p in probes + timed),
        "worst_dev": timed[0]["worst_dev"],
        "errors": sorted({e for p in timed for e in p["errors"]}),
        "passes": [
            {k: p[k] for k in ("setup_s", "setup_ref_s", "wall_s", "timed_ref_s", "cpu_s", "rss_kib",
                               "attempted", "failed") if p.get(k) is not None}
            for p in probes + timed
        ],
    }
    if trace:
        detail["bypass"] = _bypass(workload, layers)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def selftest() -> list[str]:
    """Generator fidelity, metric tables, bypasses and exact-count determinism."""
    problems = []
    spans = _spans()
    sys.path.insert(0, str(ROOT / "tests"))
    import conftest
    import corpus
    from apery_words.series import render

    ours = [render(s) for s in corpus.build_corpus(100)]
    theirs = [render(s) for s in conftest.build_corpus(100)]
    if ours != theirs:
        problems.append("corpus generator differs from tests/conftest.py::build_corpus")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", spans.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from the benchmark's table")
    if [w["name"] for w in declared["workloads"]] != list(BENCHMARKED):
        problems.append("BENCHMARK.json workloads differ from the benchmark's list")

    for workload in WORKLOADS:
        cfg = {**_pass_config(workload, DEFAULT_SEED), "trace": True}
        first, second = (run_pass(cfg, _clock() + RUN_LIMIT_S) for _ in range(2))
        for name in spans.EXACT_COUNTS:
            if first["layers"][name] != second["layers"][name]:
                problems.append(f"{workload}: {name} {first['layers'][name]} != {second['layers'][name]}")
        for result in (first, second):
            if result["failed"]:
                problems.append(f"{workload}: check failed: {result['errors']}")
            problems += [f"{workload}: bypass {name} not held"
                         for name, held in _bypass(workload, result["layers"]).items() if not held]
        print(f"{workload}: {json.dumps(first['layers'], sort_keys=True)}", flush=True)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "apery_words" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/apery_words", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            problems = selftest()
            for line in problems:
                print(f"FAIL {line}")
            print("selftest " + ("failed" if problems else "passed"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        detail, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    e2e = " ".join(
        f"{name}={m['value']:.4f} {m['unit']}" for name, m in result["metrics"].items()
        if name in END_TO_END
    )
    if not args.trace:
        e2e += f" (measured: wall_s={detail['wall_raw_s']:.4f} s setup_s={detail['setup_raw_s']:.4f} s)"
    print(f"{args.workload}: {e2e} fail_share={detail['fail_share']:g} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
