"""Command-line interface.

Subcommands: eval, compile, verify, constants, harmonic.  All values are
printed as decimal text.  The word-value cache lives at --cache-path
(./cmzv-cache.jsonl by default); the CMZV_CACHE environment variable
overrides the flag.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath
from mpmath import workprec

from . import fixtures as fixtures_mod
from .constants import CONSTANT_WORDS, constant_value
from .evaluate import ValueCache, eval_wordsum
from .fixtures import supported_digits
from .oracle import OracleConfig, direct_sums
from .pipeline import compile_harmonic, compile_spec
from .series import HarmonicSpec, canonical_key, parse_head, parse_spec, render
from .trig import compile_spec_to_trig, predicted_weight_report, trig_to_json_dict
from .words import words_to_json_dict


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _bits(digits: int) -> int:
    return max(64, int(math.ceil(digits * math.log2(10))) + 16)


def _cache(args) -> ValueCache:
    path = os.environ.get("CMZV_CACHE", args.cache_path)
    return ValueCache(path)


def _print_text(out: dict) -> None:
    # what eval and harmonic print without --json
    for key in ("compiled", "direct", "deviation", "direct_error_estimate"):
        if key in out:
            print(f"{key:24s} {out[key]}")


def _evaluate(args, item, compile_item, out: dict):
    """The compiled / direct / both flow shared by eval and harmonic.

    Adds "compiled" with "bits_lost", "direct" with "direct_error_estimate"
    and "terms_used", and "deviation" to `out` as --method asks and returns
    the compiled value (None where skipped).  "bits_lost" is the bits that
    cancellation in the word sum cost, to 0.1 bit; "direct" carries only
    the digits the oracle supports; "deviation" is taken between the
    unrounded values.
    """
    digits = args.digits
    cache = _cache(args)
    value = res = None
    with workprec(_bits(digits) + 16):
        if args.method in ("compiled", "both"):
            value = eval_wordsum(compile_item(item), _bits(digits), cache)
            out["compiled"] = mpmath.nstr(value.real, digits)
            out["bits_lost"] = round(value.bits_lost, 1)
        if args.method in ("direct", "both"):
            cfg = OracleConfig(args.cutoff, args.levels, max(15, min(digits, 25)))
            res = direct_sums([item], cfg)[0]
            most = min(digits, cfg.precision_digits)
            shown = supported_digits(res.value, res.error_estimate, most)
            out["direct"] = mpmath.nstr(res.value, shown)
            out["direct_error_estimate"] = mpmath.nstr(res.error_estimate, 3)
            out["terms_used"] = res.terms_used
        if args.method == "both":
            out["deviation"] = mpmath.nstr(abs(value.real - res.value), 3)
    return value


def cmd_eval(args) -> int:
    spec = parse_spec(args.spec)
    out: dict = {"spec": render(spec), "key": canonical_key(spec), "method": args.method}
    value = _evaluate(args, spec, compile_spec, out)
    if value is not None:
        out["compiled_imag"] = mpmath.nstr(value.imag, 5)
        out["max_word_weight"] = compile_spec(spec).max_weight()
        out["weight_report"] = predicted_weight_report(spec)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        _print_text(out)
        if "weight_report" in out:
            print(f"{'weight report':24s} {out['weight_report']}")
    return 0


def cmd_compile(args) -> int:
    spec = parse_spec(args.spec)
    if args.ir == "trig":
        data = trig_to_json_dict(compile_spec_to_trig(spec))
    else:
        data = words_to_json_dict(compile_spec(spec))
    print(json.dumps(data, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    # --digits sets only the compiled precision
    oracle_cfg = OracleConfig(args.cutoff, args.levels, fixtures_mod.ORACLE_DIGITS)
    report = fixtures_mod.verify_fixtures(
        args.fixtures, _bits(args.digits), oracle_cfg=oracle_cfg, cache=_cache(args)
    )
    print(fixtures_mod.render_report_table(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
    return 1 if report["failed"] else 0


def cmd_constants(args) -> int:
    cache = _cache(args)
    bits = _bits(args.digits)
    for name, (*_, description) in CONSTANT_WORDS.items():
        value = constant_value(name, bits, cache)
        print(f"{name:10s} {mpmath.nstr(value, args.digits):<{args.digits + 6}s} {description}")
    return 0


def _parse_weight_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def cmd_harmonic(args) -> int:
    parity, exponent = parse_head(args.head)
    h = HarmonicSpec(
        _parse_weight_list(args.k),
        _parse_weight_list(args.l),
        parity,
        exponent,
        args.binom,
    )
    out: dict = {"k": list(h.k_vec), "l": list(h.l_vec), "head": args.head, "binom": h.binom_power}
    _evaluate(args, h, compile_harmonic, out)
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        _print_text(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apery-words",
        description="Compile Apery-type central-binomial series to level-4 "
        "iterated-integral words and verify them against direct summation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, digits=30, oracle=True):
        p.add_argument("--digits", type=_positive_int, default=digits)
        if oracle:
            p.add_argument("--cutoff", type=int,
                           help="oracle outer-index cutoff: the first of the samples at "
                           "cutoff*2^(i/2), i = 0..2*levels (default 125)")
            p.add_argument("--levels", type=int,
                           help="oracle extrapolation levels: the sweep takes 2*levels+1 "
                           "samples and ends at cutoff*2^levels; 0 fits nothing (default: "
                           "a cap from the oracle's digits, --digits within 15..25, 16 for "
                           "verify, and each sum stops at the first level whose fit is "
                           "within one unit in its last digit)")
        p.add_argument("--cache-path", default="./cmzv-cache.jsonl",
                       help="word-value cache file (env CMZV_CACHE overrides)")

    p = sub.add_parser("eval", help="evaluate one series spec")
    p.add_argument("spec")
    p.add_argument("--method", choices=("direct", "compiled", "both"), default="both")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compile", help="dump the intermediate representation")
    p.add_argument("spec")
    p.add_argument("--ir", choices=("trig", "words"), default="words")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="run the bundled reference-value suite")
    p.add_argument("--fixtures", default=None, help="fixtures JSON path (default: bundled set)")
    p.add_argument("--json", default=None, help="write the JSON report here")
    common(p, digits=40)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="print the constant catalog")
    common(p, oracle=False)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("harmonic", help="evaluate a harmonic-weighted sum")
    p.add_argument("--k", default="", help="comma-separated harmonic weights (even chain)")
    p.add_argument("--l", default="", help="comma-separated odd-harmonic weights")
    p.add_argument("--head", required=True, help="head index and exponent, e.g. 2n-1^2")
    p.add_argument("--binom", type=int, choices=(1, 2), default=1)
    p.add_argument("--method", choices=("direct", "compiled", "both"), default="both")
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(func=cmd_harmonic)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # every typed error of the package is a ValueError; an OSError is a file
    # the user named (fixtures, report or cache path)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
