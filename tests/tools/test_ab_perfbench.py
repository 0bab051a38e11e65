"""The interleaved A/B runner's parsing and decision logic, on canned
benchmark outputs (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[2]


def _load():
    spec = importlib.util.spec_from_file_location(
        "ab_perfbench", _REPO / "tools" / "ab_perfbench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load()


def _output(run_s, setup_s=0.5, rss=128.0, correct=True):
    doc = {
        "correct": correct, "attempted": 3, "failed": 0 if correct else 1,
        "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return "table-mix (seed 3): run_s=...\n" + json.dumps(doc) + "\n"


def test_parse_result_reads_the_last_line():
    res = ab.parse_result(_output(6.5))
    assert res == {
        "correct": True,
        "metrics": {"run_s": 6.5, "setup_s": 0.5, "peak_rss_mb": 128.0},
    }
    assert ab.parse_result(_output(1.0, correct=False))["correct"] is False


@pytest.mark.parametrize("text", ["", "no json here\n", '{"metrics": {}}\n'])
def test_parse_result_rejects_output_without_a_result(text):
    with pytest.raises(ValueError):
        ab.parse_result(text)


def test_quartiles():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        ab.quartiles([])


def test_sides_alternate_which_runs_first():
    assert [ab.order(i) for i in range(3)] == [
        ("base", "change"), ("change", "base"), ("base", "change"),
    ]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    base = [7.0, 7.1, 6.9, 7.2, 6.8, 7.0, 7.1, 6.9, 7.0, 7.05]
    change = [6.1, 6.0, 6.2, 6.1, 6.0, 6.3, 6.1, 6.2, 6.0, 6.1]
    verdict = ab.compare(base, change)
    assert (verdict["wins"], verdict["losses"], verdict["pairs"]) == (10, 0, 10)
    assert verdict["claim"]
    assert verdict["ratio"] == pytest.approx(6.1 / 7.0)

    # Two lost pairs: 8 of 10 wins is below nine tenths.
    lost = list(change)
    lost[0] = lost[1] = 7.5
    assert ab.compare(base, lost)["wins"] == 8
    assert not ab.compare(base, lost)["claim"]

    # Every pair won, but by less than the base's quartile spread.
    close = [b - 0.01 for b in base]
    verdict = ab.compare(base, close)
    assert verdict["wins"] == 10 and not verdict["claim"]


def test_ties_count_for_neither_side():
    verdict = ab.compare([1.0, 2.0, 3.0], [1.0, 1.0, 4.0])
    assert (verdict["wins"], verdict["losses"]) == (1, 1)


def test_higher_is_better_metrics_flip_the_comparison():
    verdict = ab.compare([10.0] * 10, [12.0] * 10, better="higher")
    assert verdict["wins"] == 10 and verdict["claim"]
    assert not ab.compare([10.0] * 10, [12.0] * 10)["claim"]
    with pytest.raises(ValueError):
        ab.compare([1.0], [1.0], better="sideways")
    with pytest.raises(ValueError):
        ab.compare([1.0, 2.0], [1.0])


def test_main_alternates_runs_and_skips_incorrect_pairs(
    monkeypatch, capsys, tmp_path
):
    calls = []
    outputs = {
        "base": iter([7.0, 7.2, 6.9, 7.1]),
        "change": iter([6.0, 6.1, 5.9, 6.2]),
    }

    def fake_run(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append(side)
        value = next(outputs[side])
        # The change's third run is wrong: that pair is not compared.
        correct = not (side == "change" and value == 5.9)
        return ab.parse_result(_output(value, correct=correct))

    monkeypatch.setattr(ab, "run_side", fake_run)
    monkeypatch.setattr(ab, "end_to_end", lambda _f: [("run_s", "lower")])
    code = ab.main([
        "--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
        "--workload", "table-mix", "--pairs", "4",
    ])
    assert calls == ["base", "change", "change", "base"] * 2
    assert code == 1  # one pair was not correct on both sides
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct_pairs"] == 3
    verdict = summary["metrics"]["run_s"]
    assert (verdict["wins"], verdict["pairs"]) == (3, 3)
    assert verdict["base"][1] == pytest.approx(7.1)
    assert verdict["change"][1] == pytest.approx(6.1)
