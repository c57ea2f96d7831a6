"""The three workloads: inputs from a seed, the timed phase, and the checks.

Every program call in a timed phase goes through a module attribute
(`pipeline.compile_spec`, `evaluate.eval_wordsum`, ...) so that a traced
run sees it through the wrappers `spans.install` puts there.

The spec sets are fixed: the corpus prefix and the ladder spec come from
the tier-1 corpus seed, because other seeds give prefixes whose cost
differs by more than 10x, which would swamp any change under test.  The
run seed sets the order in which specs (or rungs) are evaluated; the
amount of work does not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import mpmath
from mpmath import mpf, workprec

from apery_words import evaluate, fixtures, oracle, pipeline
from apery_words.series import render

from corpus import build_corpus, first_depth3_weight5

# tier-1 settings (tests/conftest.py): compiled at 140 bits, oracle
# OracleConfig(20_000, 4, 16), agreement gate 1e-8
CORPUS_BITS = 140
ORACLE_CFG = oracle.OracleConfig(cutoff=20_000, extrapolation_levels=4, precision_digits=16)
GATE = mpf("1e-8")

# the first 5 specs cost about 8 s on a 2-core host: half word evaluation,
# half oracle, close to the full corpus's split; the 6th alone costs 27 s
CORPUS_PREFIX = 5

LADDER_BITS = (140, 330, 660)
LADDER_GATE_EXP = -130

# verify-warm: the flagship tier-1 configuration over all bundled records
VERIFY_BITS = 140
VERIFY_RECORDS = 71


@dataclass
class Outcome:
    """What the check phase found; an item is a spec, a record or a rung."""

    attempted: int
    failed: int
    worst_dev: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Corpus:
    """Compile, evaluate at 140 bits with a fresh cache, then direct-sum."""

    def inputs(self, seed: int):
        specs = build_corpus(CORPUS_PREFIX)
        random.Random(seed).shuffle(specs)
        return specs

    def run(self, specs, cache_path):
        cache = evaluate.ValueCache(cache_path)
        out = []
        for spec in specs:
            try:
                compiled = evaluate.eval_wordsum(pipeline.compile_spec(spec), CORPUS_BITS, cache)
                out.append((spec, compiled, oracle.direct_sum(spec, ORACLE_CFG).value))
            except Exception as exc:  # an item failure, counted and reported
                out.append((spec, exc, None))
        return out

    def check(self, results) -> Outcome:
        outcome = Outcome(len(results), 0)
        worst = mpf(0)
        for spec, compiled, direct in results:
            if isinstance(compiled, Exception):
                outcome.failed += 1
                outcome.errors.append(f"{render(spec)}: {_error(compiled)}")
                continue
            with workprec(CORPUS_BITS + 64):
                dev = abs(compiled.real - direct)
            worst = max(worst, dev)
            if not dev <= GATE:
                outcome.failed += 1
                outcome.errors.append(f"{render(spec)}: |compiled - direct| = {mpmath.nstr(dev, 3)}")
        outcome.worst_dev["vs_direct"] = float(worst)
        return outcome


class VerifyWarm:
    """verify_fixtures at the tier-1 flagship configuration, warm cache."""

    def inputs(self, seed: int):
        # the bundled records are the input; verify_fixtures fixes their order
        return None

    def run(self, _, cache_path):
        try:
            return fixtures.verify_fixtures(
                precision_bits=VERIFY_BITS, cache=evaluate.ValueCache(cache_path)
            )
        except Exception as exc:  # fails every record
            return exc

    def check(self, report) -> Outcome:
        if isinstance(report, Exception):
            return Outcome(VERIFY_RECORDS, VERIFY_RECORDS, errors=[_error(report)])
        outcome = Outcome(VERIFY_RECORDS, report["failed"])
        outcome.failed += abs(VERIFY_RECORDS - report["total"])
        for rec in report["records"]:
            if rec["status"] != "PASS":
                outcome.errors.append(f"{rec['id']}: {rec['status']}")
            for ref in ("oracle", "closed", "printed"):
                if f"dev_compiled_{ref}" in rec:
                    dev = float(rec[f"dev_compiled_{ref}"])
                    outcome.worst_dev[f"vs_{ref}"] = max(outcome.worst_dev.get(f"vs_{ref}", 0.0), dev)
        return outcome


class PrecisionLadder:
    """One depth-3 weight-5 spec compiled-only at 140, 330 and 660 bits."""

    def inputs(self, seed: int):
        rungs = list(LADDER_BITS)
        random.Random(seed).shuffle(rungs)
        return first_depth3_weight5(), rungs

    def run(self, inputs, cache_path):
        spec, rungs = inputs
        cache = evaluate.ValueCache(cache_path)
        values = {}
        for bits in rungs:
            try:
                values[bits] = evaluate.eval_wordsum(pipeline.compile_spec(spec), bits, cache)
            except Exception as exc:  # an item failure, counted and reported
                values[bits] = exc
        return spec, values

    def check(self, results) -> Outcome:
        spec, values = results
        outcome = Outcome(len(values), 0)
        try:
            direct = oracle.direct_sum(spec, ORACLE_CFG).value  # untimed reference
        except Exception as exc:
            return Outcome(len(values), len(values), errors=[_error(exc)])
        top = values[max(LADDER_BITS)]
        worst_rung, worst_direct = mpf(0), mpf(0)
        with workprec(max(LADDER_BITS) + 64):
            for bits in sorted(values):
                value = values[bits]
                broken = next((v for v in (value, top) if isinstance(v, Exception)), None)
                if broken is not None:
                    outcome.failed += 1
                    outcome.errors.append(f"{bits} bits: {_error(broken)}")
                    continue
                rung_dev = abs(value.to_mpc() - top.to_mpc())
                direct_dev = abs(value.real - direct)
                worst_rung = max(worst_rung, rung_dev)
                worst_direct = max(worst_direct, direct_dev)
                if not (rung_dev <= mpf(2) ** LADDER_GATE_EXP and direct_dev <= GATE):
                    outcome.failed += 1
                    outcome.errors.append(
                        f"{bits} bits: vs {max(LADDER_BITS)} bits {mpmath.nstr(rung_dev, 3)}, "
                        f"vs direct {mpmath.nstr(direct_dev, 3)}"
                    )
        outcome.worst_dev = {"vs_top_rung": float(worst_rung), "vs_direct": float(worst_direct)}
        return outcome


WORKLOADS = {
    "verify-warm": VerifyWarm(),
    "corpus": Corpus(),
    "precision-ladder": PrecisionLadder(),
}
