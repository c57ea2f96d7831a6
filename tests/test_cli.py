import hashlib
import itertools
import json
import math
import re
from importlib import resources

import mpmath
import pytest

from apery_words import evaluate
from apery_words.cli import _bits, cli_main
from apery_words.evaluate import ValueCache, eval_wordsum
from apery_words.pipeline import compile_spec
from apery_words.series import (
    IndexTerm,
    Parity,
    Relation,
    SeriesSpec,
    SpecValidationError,
    parse_spec,
    render,
)
from apery_words.trig import compile_spec_to_trig, trig_to_json_dict
from apery_words.words import words_to_json_dict

from conftest import build_corpus


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    # the default cache path is relative; keep it out of the repo
    monkeypatch.chdir(tmp_path)


def test_eval_both(capsys):
    assert cli_main(["eval", "S[2n^1 > 0]", "--method", "both", "--digits", "20",
                     "--cutoff", "5000", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["compiled"].startswith("0.6931471805599453094")
    assert float(out["deviation"]) < 1e-15


def test_eval_default_flags(capsys):
    # record a16: the oracle's default schedule at 25 digits settles it
    assert cli_main(["eval", "S[2n+1^1 >= 2n^1 > 2n^1 > 0]", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert float(out["deviation"]) <= 1e-12


@pytest.mark.parametrize(
    "digits, direct, deviation",
    [
        # the estimates are 4.95e-15 and 7.39e-18; the oracle runs at 20 and
        # at 25 digits
        (20, "0.66270441484789", "1.77e-16"),
        (40, "0.66270441484789063", "6.73e-20"),
    ],
)
def test_eval_prints_direct_to_the_digits_its_estimate_supports(digits, direct, deviation, capsys):
    assert cli_main(["eval", "S[2n+1^1 >= 2n^1 > 2n^1 > 0]", "--digits", str(digits), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"bits_lost", "compiled", "compiled_imag", "deviation", "direct",
                        "direct_error_estimate", "key", "max_word_weight", "method", "spec",
                        "terms_used", "weight_report"}
    assert out["direct"] == direct
    # the error estimate is within one unit in the last digit printed
    last_unit = 10.0 ** -len(direct.split(".")[1])
    assert float(out["direct_error_estimate"]) <= last_unit
    # from the unrounded values: the printed strings differ by more
    assert out["deviation"] == deviation
    assert abs(mpmath.mpf(out["compiled"]) - mpmath.mpf(direct)) > 2 * mpmath.mpf(deviation)


def test_eval_direct_explicit_levels_as_ci_checks(capsys):
    # the step in .github/workflows/tier1.yml: S[2n+1^1 > 0] = pi/2 - 1
    args = ["eval", "S[2n+1^1 > 0]", "--method", "direct", "--cutoff", "20000", "--levels", "4",
            "--digits", "16", "--json"]
    assert cli_main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["direct"] == "0.5707963267948966"
    assert out["direct_error_estimate"] == "1.03e-31"
    assert abs(float(out["direct"]) - (math.pi / 2 - 1)) <= 1e-12


def test_eval_compiled_only(capsys):
    assert cli_main(["eval", "S2[2n-1^2 > 2n^1 > 0]", "--method", "compiled", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["compiled"].startswith("0.014864453782")
    assert out["weight_report"]["max_word_weight"] == 2


def test_eval_and_harmonic_json_report_bits_lost(capsys):
    # the bits cancellation cost in the word sum, to 0.1 bit, beside the
    # compiled value only
    spec = "S2[2n-1^2 > 2n^1 > 0]"
    assert cli_main(["eval", spec, "--method", "compiled", "--digits", "30", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    lost = eval_wordsum(compile_spec(parse_spec(spec)), _bits(30)).bits_lost
    assert out["bits_lost"] == round(lost, 1) and 0 < lost < 24
    args = ["harmonic", "--k", "1", "--head", "2n-1^1", "--binom", "2", "--json"]
    assert cli_main(args + ["--method", "compiled"]) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["bits_lost"], float)
    assert cli_main(args + ["--method", "direct"]) == 0
    assert "bits_lost" not in json.loads(capsys.readouterr().out)


def test_compile_ir_roundtrips(capsys):
    for ir in ("trig", "words"):
        assert cli_main(["compile", "S[2n^2 > 0]", "--ir", ir]) == 0
        blob = capsys.readouterr().out.strip()
        assert blob == json.dumps(json.loads(blob), sort_keys=True)


# SHA-256 of the concatenated `compile --ir <ir>` output over build_corpus(100)
_COMPILE_DIGESTS = {
    "trig": "e6aa3f57ded831428311e7144f686d154b034ac9b4cb9b74d356ddc3b2bc7647",
    "words": "7ff221901106601b599165286186cebf802456e7986a5893fabd3d4039f45d5e",
}

# the same digest over _small_specs(), written by the IR writers directly
_SMALL_SPEC_DIGESTS = {
    "trig": "3e2ee9191274fdb9da9a37d6938eac9c2bbe1d5b54b06a0ce966510aae05485c",
    "words": "168458758978a6b90825318592e07b9d6616ef068f8fbe170835b5f5aeaa3385",
}

# the same digest over _depth4_specs()
_DEPTH4_DIGESTS = {
    "trig": "5751f223b3f3299994cbfc48ea4517151d53166c8381be1c5da7f57c09289129",
    "words": "fe56b03f4c02cd539250b324288a01ff79f915bd480e3c5ad9c10b04af465e85",
}

_IR_WRITERS = {
    "trig": lambda spec: trig_to_json_dict(compile_spec_to_trig(spec)),
    "words": lambda spec: words_to_json_dict(compile_spec(spec)),
}


def _specs(depths, exponents, max_weight: int) -> list[SeriesSpec]:
    """Every valid spec of the given depths and exponents and weight <=
    max_weight, an S2 sum counting 1 extra weight, in the order of the loops
    below: S then S2, depth, exponents, parities, relations."""
    out = []
    for p in (1, 2):
        for depth in depths:
            for exps in itertools.product(exponents, repeat=depth):
                if sum(exps) + p - 1 > max_weight:
                    continue
                for parities in itertools.product(list(Parity), repeat=depth):
                    for rels in itertools.product(list(Relation), repeat=depth):
                        terms = tuple(IndexTerm(a, e) for a, e in zip(parities, exps))
                        try:
                            out.append(SeriesSpec(p, terms, rels))
                        except SpecValidationError:
                            pass
    return out


def _small_specs() -> list[SeriesSpec]:
    """Every valid spec of depth <= 3, exponents 1-3 and weight <= 4 (911).

    Unlike the random corpus, this set holds every parity and relation
    pattern of its sizes.
    """
    return _specs(range(1, 4), range(1, 4), 4)


def _depth4_specs() -> list[SeriesSpec]:
    """Every 8th valid spec of depth 4, exponents 1-2 and weight <= 5,
    starting with the first: 609 of the 4,872."""
    return _specs([4], range(1, 3), 5)[::8]


@pytest.mark.parametrize("ir", ["trig", "words"])
def test_compile_output_pinned(ir, capsys):
    # the two IR writers' bytes must not drift
    blob = ""
    for spec in build_corpus(100):
        assert cli_main(["compile", render(spec), "--ir", ir]) == 0
        blob += capsys.readouterr().out
    assert hashlib.sha256(blob.encode()).hexdigest() == _COMPILE_DIGESTS[ir]
    blob = "".join(json.dumps(_IR_WRITERS[ir](spec), sort_keys=True) + "\n"
                   for spec in _small_specs())
    assert hashlib.sha256(blob.encode()).hexdigest() == _SMALL_SPEC_DIGESTS[ir]


@pytest.mark.parametrize("ir", ["trig", "words"])
def test_depth4_compile_output_pinned(ir):
    # beyond the depth and weight of the pins above
    blob = "".join(json.dumps(_IR_WRITERS[ir](spec), sort_keys=True) + "\n"
                   for spec in _depth4_specs())
    assert hashlib.sha256(blob.encode()).hexdigest() == _DEPTH4_DIGESTS[ir]


def test_verify_subset(tmp_path, capsys):
    fixtures = [
        {
            "id": "t1",
            "series": "S[2n^1 > 0]",
            "closed_form": "log2",
            "anchor": "depth-1 even",
        },
        {
            "id": "t2",
            "series": "S[2n+1^1 >= 0]",
            "closed_form": "pi/2",
            "printed_value": "1.5707963",
            "anchor": "depth-1 odd",
        },
    ]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    report_path = tmp_path / "report.json"
    rc = cli_main(["verify", "--fixtures", str(path), "--digits", "30",
                   "--cutoff", "5000", "--json", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "passed 2/2" in out
    report = json.loads(report_path.read_text())
    assert report["failed"] == 0


def test_verify_fail_exit_code(tmp_path, capsys):
    fixtures = [{"id": "bad", "series": "S[2n^1 > 0]", "printed_value": "0.700000000000"}]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    assert cli_main(["verify", "--fixtures", str(path), "--digits", "25", "--cutoff", "5000"]) == 1


def test_verify_default_flags(tmp_path, capsys):
    # default --digits 40 must not push the oracle past what its gate uses
    bundled = json.loads(
        resources.files("apery_words").joinpath("data/fixtures.json").read_text()
    )
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([r for r in bundled if r["id"] == "a16-odd-even-even-111"]))
    rc = cli_main(["verify", "--fixtures", str(path), "--cache-path", str(tmp_path / "c.jsonl")])
    assert rc == 0
    assert "passed 1/1" in capsys.readouterr().out


def test_verify_names_failing_record(tmp_path, capsys):
    # both records fail the oracle budget at cutoff 100 and 4 levels; the
    # error names the first in sorted id order
    bundled = {
        r["id"]: r
        for r in json.loads(resources.files("apery_words").joinpath("data/fixtures.json").read_text())
    }
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([bundled["a18-odd-even-odd-111"], bundled["a16-odd-even-even-111"]]))
    rc = cli_main(["verify", "--fixtures", str(path), "--cutoff", "100", "--levels", "4",
                   "--cache-path", str(tmp_path / "c.jsonl")])
    assert rc == 2
    assert re.match(r"error: a16-odd-even-even-111: tail error estimate \S+ exceeds",
                    capsys.readouterr().err)


def test_verify_missing_fixtures_file(tmp_path, capsys):
    assert cli_main(["verify", "--fixtures", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_fixtures_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "fx.json"
    path.write_text("[" * 200_000)
    assert cli_main(["verify", "--fixtures", str(path), "--cache-path", str(tmp_path / "c.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: fixtures file nests JSON too deeply")


def test_verify_bad_fixture_head(tmp_path, capsys):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([{"id": "h", "harmonic": [{"k": [1], "head": "3n^2"}]}]))
    assert cli_main(["verify", "--fixtures", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown head index '3n'")


@pytest.mark.parametrize(
    "records, message",
    [
        ({"id": "x"}, "error: fixtures file must hold a JSON list of records"),
        (["x"], "error: fixture record 0 is not an object"),
        ([{"series": "S[2n^1 > 0]"}], "error: fixture record 0 has no id"),
        ([{"id": "h", "harmonic": [{"k": [1]}]}], "error: fixture h: harmonic part 0 has no head"),
        ([{"id": 7, "series": "S[2n^1 > 0]"}], "error: fixture record 0: id must be a string"),
        ([{"id": "x", "series": 5}], "error: fixture x: series must be a string"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "closed_form": ["pi"]}],
         "error: fixture x: closed_form must be a string"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "printed_value": 3}],
         "error: fixture x: printed_value must be a string"),
        ([{"id": "h", "harmonic": [{"k": "ab", "head": "2n^2"}]}],
         "error: fixture h: harmonic part 0: k must be a list of positive integers"),
        ([{"id": "h", "harmonic": [{"l": [1, 0], "head": "2n^2"}]}],
         "error: fixture h: harmonic part 0: l must be a list of positive integers"),
        ([{"id": "h", "harmonic": [{"k": [True], "head": "2n^2"}]}],
         "error: fixture h: harmonic part 0: k must be a list of positive integers"),
        ([{"id": "h", "harmonic": [{"k": [1], "head": "2n^2", "binom": 3}]}],
         "error: fixture h: harmonic part 0: binom must be 1 or 2"),
        ([{"id": "h", "harmonic": [{"k": [1], "head": "2n^2", "binom": "2"}]}],
         "error: fixture h: harmonic part 0: binom must be 1 or 2"),
        ([{"id": "h", "harmonic": [{"k": [1], "head": "2n^2", "coef": "1/0"}]}],
         "error: fixture h: harmonic part 0: coef must be an integer or a fraction string"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "printed_value": "1.0887_9"}],
         "error: fixture x: printed_value '1.0887_9' is not [-]digits.digits"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "printed_value": "١.٠٨٨٧"}],
         "error: fixture x: printed_value '١.٠٨٨٧' is not [-]digits.digits"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "printed_value": "nan"}],
         "error: fixture x: printed_value 'nan' is not [-]digits.digits"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "printed_value": " 0.69"}],
         "error: fixture x: printed_value ' 0.69' is not [-]digits.digits"),
        ([{"id": "h", "harmonic": [{"k": [1], "head": "2n^2", "coef": "١/٢"}]}],
         "error: fixture h: harmonic part 0: coef must be an integer or a fraction string"),
        ([{"id": "h", "harmonic": [{"k": [1], "head": "2n^2", "coef": "1_0/2"}]}],
         "error: fixture h: harmonic part 0: coef must be an integer or a fraction string"),
        ([{"id": "x", "series": "S[2n^1 > 0]@tail=3"}],
         "error: fixture x: a series with @tail > 0 or @x < 1 has no compiled value"),
        ([{"id": "x", "series": "S[2n^1 > 0]@x=1/2"}],
         "error: fixture x: a series with @tail > 0 or @x < 1 has no compiled value"),
        ([{"id": "x", "series": "S[2n^1 >= 0]"}],
         "error: fixture x: weak bottom relation needs a 2n+1 innermost index"),
        ([{"id": "h", "harmonic": [{"head": "2n^1"}]}],
         "error: fixture h: harmonic part 0: head exponent must be >= 2 for binom_power 1"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "harmonic": [{"k": [1], "head": "2n-1^1", "binom": 2}]}],
         "error: fixture x has both a series and harmonic parts"),
        ([{"id": "x", "closed_form": "pi"}], "error: fixture x has neither a series nor harmonic parts"),
        ([{"id": "x", "series": "S[2n^1 > 0]", "harmonic": {}}],
         "error: fixture x: harmonic must be a list of parts"),
    ],
    ids=["top-level-object", "record-not-object", "record-without-id", "part-without-head",
         "id-not-string", "series-not-string", "closed-form-not-string",
         "printed-value-not-string", "k-not-list", "l-not-positive", "k-bool",
         "binom-out-of-range", "binom-string", "coef-divides-by-zero",
         "printed-value-underscore", "printed-value-arabic-indic", "printed-value-nan",
         "printed-value-blank", "coef-arabic-indic", "coef-underscore", "series-tail",
         "series-x", "series-invalid", "part-invalid", "series-and-harmonic", "neither",
         "harmonic-not-list"],
)
def test_verify_malformed_fixtures(records, message, tmp_path, capsys):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(records))
    assert cli_main(["verify", "--fixtures", str(path)]) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "closed_form, message",
    [
        ("pi+", "error: closed form 'pi+' does not parse"),
        ("pi/0", "error: division by zero in closed form 'pi/0'"),
    ],
    ids=["does-not-parse", "divides-by-zero"],
)
def test_verify_bad_closed_form(closed_form, message, tmp_path, capsys):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([{"id": "x", "series": "S[2n^1 > 0]", "closed_form": closed_form}]))
    assert cli_main(["verify", "--fixtures", str(path), "--cache-path", str(tmp_path / "c.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_constants_output(capsys):
    assert cli_main(["constants", "--digits", "15"]) == 0
    out = capsys.readouterr().out
    assert "zeta2" in out and "3.14159265358979" in out


@pytest.mark.parametrize("argv", [["eval", "S[2n^1 > 0]", "--method", "compiled"], ["constants"]],
                         ids=["eval", "constants"])
@pytest.mark.parametrize("digits", ["0", "-3"])
def test_digits_must_be_positive(argv, digits, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--digits", digits])
    assert exc.value.code == 2
    assert "error: argument --digits: must be a positive integer" in capsys.readouterr().err


def test_constants_has_no_oracle_options(capsys):
    # constants never runs the oracle, so it takes no --cutoff or --levels
    for flag in ("--cutoff", "--levels"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["constants", flag, "5"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments" in capsys.readouterr().err


def test_harmonic_command(capsys):
    rc = cli_main(["harmonic", "--k", "1", "--l", "", "--head", "2n-1^1",
                   "--binom", "2", "--digits", "20", "--cutoff", "5000", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    # (8 log 2 - 4)/pi
    assert out["compiled"].startswith("0.4918452564")
    assert float(out["deviation"]) < 1e-8
    assert out["terms_used"] > 5000
    with mpmath.workdps(30):
        want = (8 * mpmath.log(2) - 4) / mpmath.pi
        assert abs(mpmath.mpf(out["direct"]) - want) <= mpmath.mpf(out["direct_error_estimate"])


def test_harmonic_direct_as_ci_checks(capsys):
    # the step in .github/workflows/tier1.yml: the settling oracle path at
    # the default digits, (8 log 2 - 4)/pi
    args = ["harmonic", "--k", "1", "--head", "2n-1^1", "--binom", "2", "--method", "direct",
            "--json"]
    assert cli_main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"binom", "direct", "direct_error_estimate", "head", "k", "l", "terms_used"}
    assert float(out["direct_error_estimate"]) <= 1e-25
    assert abs(float(out["direct"]) - (8 * math.log(2) - 4) / math.pi) <= 1e-12


def test_harmonic_text_prints_the_direct_error_estimate(capsys):
    # without --json, harmonic prints the lines eval prints
    args = ["harmonic", "--k", "1", "--head", "2n-1^1", "--binom", "2", "--method", "both",
            "--digits", "20"]
    assert cli_main(args) == 0
    text = capsys.readouterr().out
    assert [line.split()[0] for line in text.splitlines()] == [
        "compiled", "direct", "deviation", "direct_error_estimate"]
    assert float(text.splitlines()[-1].split()[1]) <= 1e-19


def test_harmonic_bad_head_status(capsys):
    assert cli_main(["harmonic", "--k", "1", "--head", "2m^2"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown head index '2m'")


def test_usage_error_status():
    with pytest.raises(SystemExit) as exc:
        cli_main(["eval"])  # missing spec
    assert exc.value.code == 2


def test_bad_spec_status(capsys):
    assert cli_main(["eval", "S[2n^1 >= 0]"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cache_env_override(tmp_path, monkeypatch, capsys):
    cache_file = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("CMZV_CACHE", str(cache_file))
    assert cli_main(["eval", "S[2n+1^2 >= 0]", "--method", "compiled"]) == 0
    capsys.readouterr()
    assert cache_file.exists() and cache_file.read_text().strip()


def test_cache_skips_lines_without_string_key(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CMZV_CACHE", raising=False)
    path = tmp_path / "cache.jsonl"
    good = {"k": "w0.x1", "p": 140, "re": "3", "im": "0", "e": -1,
            "d": evaluate._digest("w0.x1", 140, (3, 0, -1))}
    bad = [
        {k: v for k, v in good.items() if k != "k"},
        {**good, "k": None},
        # a digest that matches the list as `put` would render it
        {**good, "k": ["w0"], "d": evaluate._digest(["w0"], 140, (3, 0, -1))},
    ]
    # the last bad line is not UTF-8; it fails to parse like the others
    path.write_bytes("".join(json.dumps(rec) + "\n" for rec in bad).encode() + b"\xff\n"
                     + json.dumps(good).encode() + b"\n")
    assert list(ValueCache(path)._mem) == [("w0.x1", 140)]
    rc = cli_main(["eval", "S[2n^1 > 0]", "--method", "compiled", "--cache-path", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("compiled")
