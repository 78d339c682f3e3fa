"""Self-verification battery and frozen derivation outputs."""

import hashlib
import json

import pytest

from weinorman import derive_hierarchy, emit, parse_hierarchy_json
from weinorman.verify import GOLDEN_N, load_golden, run_battery


@pytest.mark.parametrize("N", GOLDEN_N)
@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_frozen_outputs_match_regenerated(N, fmt):
    assert emit(derive_hierarchy(N), fmt) == load_golden(N, fmt)


# SHA-256 of emit(derive_hierarchy(N), fmt) for the N that have no golden
# file, as first derived (the same values as perfbench/derive_digests.json)
FROZEN_DIGESTS = {
    (5, "plain"): "f04a905ede60c778c4f357588b9a7188da0830a6fe6321ad3cb39705b6154a7d",
    (5, "latex"): "3a22db4830eb7796cb3e2c16bdc41ee93e526521bd8d7400629576585f74b929",
    (5, "json"): "17702001509678e301d4748ffc4fbf08e3441baadc8fe34a971c0ef8682ea9c1",
    (6, "plain"): "b569dbab97318deca9a00498654c6b06054cd31e99e549d1ed790b478279499f",
    (6, "latex"): "ec3553d87c47b6c1f651e3280cf44a99acf5b7f3206e49edadf1f109e2aab4d5",
    (6, "json"): "396d2585f6bd900e887bc9dfb619376c16ee3f2cb4d91863c87b775586e68ec6",
    (7, "plain"): "8b7ed0693b569d6c7bad8fbc64187249b771165428b1295efa6a857f1e3b6891",
    (7, "latex"): "676926415d28b5c8fbfee5d6c2d2e84d0d83740a97a6e955b24e45c90f4954e9",
    (7, "json"): "697a80defda96b585ae4e9eff3df1c417834d5272758b4a783c6f1cd0f6bd637",
}


@pytest.mark.parametrize("N", [5, 6, 7])
def test_outputs_beyond_the_goldens_keep_their_digests(N):
    schedule = derive_hierarchy(N)
    for fmt in ("plain", "latex", "json"):
        text = emit(schedule, fmt).encode("utf-8")
        assert hashlib.sha256(text).hexdigest() == FROZEN_DIGESTS[N, fmt], fmt


def test_frozen_json_parses_back():
    for N in GOLDEN_N:
        sched = parse_hierarchy_json(load_golden(N, "json"))
        assert sched == derive_hierarchy(N)


def test_load_golden_rejects_unknown():
    with pytest.raises((ValueError, FileNotFoundError)):
        load_golden(7, "plain")
    with pytest.raises(ValueError):
        load_golden(2, "pdf")


def test_battery_passes_and_reports_items():
    summary = run_battery((2, 3), trials=3, seed=1)
    assert summary.passed
    names = {item.name for item in summary.items}
    assert {
        "algebraic-properties",
        "factor-matrix-at-origin",
        "staged-matches-dense",
        "factor-matrix-block-structure",
        "golden-derivation",
        "integration-matches-oracle",
        "corrupted-ordering-detected",
    } <= names
    # every requested dimension shows up
    assert {item.n for item in summary.items if item.n} >= {2, 3}


def test_battery_json_schema():
    summary = run_battery((2,), trials=2, seed=0)
    obj = json.loads(summary.to_json())
    assert obj["schema"] == "wn-verify/1"
    assert obj["passed"] is True
    assert obj["seed"] == 0
    assert all({"name", "n", "passed", "detail"} <= set(i) for i in obj["items"])


def test_battery_describe_mentions_failures(monkeypatch):
    import weinorman.verify as verify

    real = verify.load_golden

    def tampered(N, fmt):
        text = real(N, fmt)
        return text.replace("a1", "a9") if fmt == "plain" else text

    monkeypatch.setattr(verify, "load_golden", tampered)
    summary = verify.run_battery((2,), trials=2, seed=0)
    assert not summary.passed
    assert "FAIL" in summary.describe()
    failed = [i for i in summary.items if not i.passed]
    assert any(i.name == "golden-derivation" for i in failed)
