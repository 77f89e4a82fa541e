"""The identity suite end to end: every entry passes at the default window,
results are deterministic, and the bad inputs are rejected."""

import hashlib

import pytest

from precats import presheaf as ps
from precats.suite import IDENTITIES, run_suite


def test_full_suite_passes_at_window_two():
    result = run_suite(2)
    assert result.passed
    names = [e.name for e in result.entries]
    assert names == sorted(IDENTITIES)
    assert {"casezero", "square", "square_legacy", "suspension_tower",
            "delooping", "whitehead", "wedge", "corner_split",
            "cylinder"} <= set(names)


def test_single_entry_runs_alone():
    result = run_suite(2, only="delooping")
    assert result.passed and len(result.entries) == 1


def test_rejects_small_windows_and_unknown_names():
    with pytest.raises(ValueError):
        run_suite(1)
    with pytest.raises(KeyError):
        run_suite(2, only="not-an-identity")


def test_result_serialization():
    result = run_suite(2, only="casezero")
    data = result.to_dict()
    assert data["passed"] is True
    entry = data["entries"][0]
    assert entry["name"] == "casezero"
    assert entry["verdict"] == "pass"
    assert entry["window"] == 2
    assert isinstance(entry["seconds"], float)


@pytest.mark.parametrize("B, sha256", [
    (2, "5ff6a0ce1f0031a51ce7aa267a3620e8187d81bde3fdee8eccdc4dd2444fe2a5"),
    (3, "33ef3fa50d531f13a9905a7068937eafbba3497392c230423f49f75d77b5777c"),
], ids=["W2", "W3"])
def test_iso_bijections_are_pinned(B, sha256, monkeypatch):
    """Every answer ``iso_windowed`` gives to the suite's iso questions at
    window B, in call order, hashed with SHA-256: for each window level its
    entries, the bijection's positions and both sides' labels, or ``None``.
    Sharing or re-tabling a part, or searching only the levels up to the
    sides' depth, moves no position and no label."""
    digest, questions, real = hashlib.sha256(), [], ps.iso_windowed

    def hashed(P, Q, window):
        iso = real(P, Q, window)
        questions.append(iso is not None)
        digest.update(repr(None if iso is None else [
            (M.entries, iso.at(M), P.table.labels(M), Q.table.labels(M))
            for M in window.objects(P.n)]).encode() + b";")
        return iso

    monkeypatch.setattr(ps, "iso_windowed", hashed)
    assert run_suite(B).passed
    assert (len(questions), questions.count(True)) == (96, 95)
    assert digest.hexdigest() == sha256
