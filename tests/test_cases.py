"""The byte-identity contract: every output of every case of ``tools/cases.py`` keeps its recorded SHA-256."""

import copy
import json

import cases


def _golden():
    return json.loads(cases.GOLDEN.read_text())


def test_every_output_keeps_its_recorded_digest(tmp_path):
    golden = _golden()
    # the bytes hold for one numpy, exp dispatch and BLAS core; elsewhere, rewrite them with tools/cases.py
    assert golden["host"] == cases.host(), f"digests made on {golden['host']}, this host is {cases.host()}"
    assert cases.mismatches(golden["outputs"], cases.digests(cases.run_all(tmp_path))) == []


def test_an_altered_digest_names_its_case_and_file():
    recorded = _golden()["outputs"]
    altered = copy.deepcopy(recorded)
    digest = altered["chirp"]["summary.txt"]
    altered["chirp"]["summary.txt"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert cases.mismatches(altered, recorded) == [
        f"chirp/summary.txt: recorded {altered['chirp']['summary.txt'][:12]}, now {digest[:12]}"
    ]
    del altered["chirp"]["summary.txt"]
    assert cases.mismatches(altered, recorded) == ["chirp/summary.txt: not recorded"]


def test_case_names_are_unique():
    # run_all keys its results by name, so a repeated name would drop a case unseen
    names = [case.name for case in cases.CASES]
    assert sorted({name for name in names if names.count(name) > 1}) == []


def test_each_pair_gives_equal_digests():
    # the recorded digests are a fresh run's (above): sweep-z's seed changes no output
    recorded = _golden()["outputs"]
    pairs = [(case.name, case.same_as) for case in cases.CASES if case.same_as is not None]
    assert pairs
    assert [pair for pair in pairs if recorded[pair[0]] != recorded[pair[1]]] == []
