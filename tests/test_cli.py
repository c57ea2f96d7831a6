import hashlib
import itertools
import json
import re
from importlib import resources

import pytest

from apery_words.cli import cli_main
from apery_words.evaluate import ValueCache
from apery_words.pipeline import compile_spec
from apery_words.series import (
    IndexTerm,
    Parity,
    Relation,
    SeriesSpec,
    SpecValidationError,
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


def test_eval_compiled_only(capsys):
    assert cli_main(["eval", "S2[2n-1^2 > 2n^1 > 0]", "--method", "compiled", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["compiled"].startswith("0.014864453782")
    assert out["weight_report"]["max_word_weight"] == 2


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

_IR_WRITERS = {
    "trig": lambda spec: trig_to_json_dict(compile_spec_to_trig(spec)),
    "words": lambda spec: words_to_json_dict(compile_spec(spec)),
}


def _small_specs() -> list[SeriesSpec]:
    """Every valid spec of depth <= 3, exponents 1-3 and weight <= 4 (911).

    An S2 sum counts 1 extra weight.  Unlike the random corpus, this set
    holds every parity and relation pattern of its sizes.
    """
    out = []
    for p in (1, 2):
        for depth in range(1, 4):
            for exps in itertools.product(range(1, 4), repeat=depth):
                if sum(exps) + p - 1 > 4:
                    continue
                for parities in itertools.product(list(Parity), repeat=depth):
                    for rels in itertools.product(list(Relation), repeat=depth):
                        terms = tuple(IndexTerm(a, e) for a, e in zip(parities, exps))
                        try:
                            out.append(SeriesSpec(p, terms, rels))
                        except SpecValidationError:
                            pass
    return out


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
        ([{"id": "x", "series": "S[2n^1 > 0]@tail=3"}],
         "error: fixture x: a series with @tail > 0 or @x < 1 has no compiled value"),
        ([{"id": "x", "series": "S[2n^1 > 0]@x=1/2"}],
         "error: fixture x: a series with @tail > 0 or @x < 1 has no compiled value"),
        ([{"id": "x", "series": "S[2n^1 >= 0]"}],
         "error: fixture x: weak bottom relation needs a 2n+1 innermost index"),
        ([{"id": "h", "harmonic": [{"head": "2n^1"}]}],
         "error: fixture h: harmonic part 0: head exponent must be >= 2 for binom_power 1"),
    ],
    ids=["top-level-object", "record-not-object", "record-without-id", "part-without-head",
         "id-not-string", "series-not-string", "closed-form-not-string",
         "printed-value-not-string", "k-not-list", "l-not-positive", "k-bool",
         "binom-out-of-range", "binom-string", "coef-divides-by-zero", "series-tail",
         "series-x", "series-invalid", "part-invalid"],
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
    path.write_text(
        '{"p": 140, "re": "1", "im": "0"}\n'
        '{"k": ["w0"], "p": 140, "re": "1", "im": "0"}\n'
        '{"k": "w0.x1", "p": 140, "re": "1.5", "im": "0"}\n'
    )
    assert list(ValueCache(path)._mem) == [("w0.x1", 140)]
    rc = cli_main(["eval", "S[2n^1 > 0]", "--method", "compiled", "--cache-path", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("compiled")
