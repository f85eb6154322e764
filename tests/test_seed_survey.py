import importlib.util
import pathlib

from lpbounds import verify
from lpbounds.verify import CheckResult, SuiteResult, default_config

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "seed_survey.py"
_spec = importlib.util.spec_from_file_location("seed_survey", _TOOL)
seed_survey = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_survey)


def test_claims_survey_over_two_seeds(capsys):
    assert seed_survey.main(["claims", "0", "1"]) == 0
    assert capsys.readouterr().out == "claims: 0 of 2 seeds FAIL (0 checks)\n"


def test_each_fail_is_listed_with_its_seed_and_margin(monkeypatch, capsys):
    def odd_seeds_fail(name, config):
        seed = config["seed"]
        checks = [CheckResult("x/holds", True, 1.0, seed),
                  CheckResult("x/noise", seed % 2 == 0, -0.25, seed)]
        return SuiteResult(name=name, checks=checks,
                           config=default_config(config))

    monkeypatch.setattr(verify, "run_suite", odd_seeds_fail)
    assert seed_survey.main(["x", "3", "6"]) == 0
    assert capsys.readouterr().out == ("3 x/noise -0.25\n5 x/noise -0.25\n"
                                       "x: 2 of 4 seeds FAIL (2 checks)\n")


def test_usage_error_exits_2(capsys):
    assert seed_survey.main(["claims", "0"]) == 2
    assert "Usage" in capsys.readouterr().err
