"""The committed output corpus: every digest in operators.json,
sparse.json and campaigns.json equals the digest of the same output
computed now, and the generator reproduces each file byte for byte."""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import make_golden  # noqa: E402


CORPORA = {"operators": (make_golden.CORPUS, make_golden.corpus),
           "sparse": (make_golden.SPARSE_CORPUS, make_golden.sparse_corpus),
           "campaigns": (make_golden.CAMPAIGN_CORPUS, make_golden.campaign_corpus)}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    path, build = CORPORA[request.param]
    return path, build()


def test_every_digest_matches_the_corpus(corpus):
    path, table = corpus
    with open(path) as fh:
        committed = json.load(fh)
    assert sorted(table) == sorted(committed)
    moved = {name: (committed[name], d) for name, d in table.items() if d != committed[name]}
    assert moved == {}


def test_generator_reproduces_the_file(corpus):
    path, table = corpus
    with open(path) as fh:
        assert fh.read() == make_golden.render(table)


def test_every_campaign_passes():
    with open(make_golden.CAMPAIGN_CORPUS) as fh:
        assert {case: e["exit"] for case, e in json.load(fh).items() if e["exit"]} == {}


def test_exact_digest_sees_one_ulp_and_rounded_digest_sees_scaling():
    v = np.random.default_rng(1).standard_normal(64)
    ulp = v.copy()
    ulp[7] = np.nextafter(ulp[7], np.inf)
    base, one_ulp, scaled = (make_golden.digests(a) for a in (v, ulp, v * (1 + 1e-6)))
    assert one_ulp["exact"] != base["exact"] and one_ulp["rounded"] == base["rounded"]
    assert scaled["exact"] != base["exact"] and scaled["rounded"] != base["rounded"]
    text = "label,value\nC_1,0.1\nn,3\n"
    base, one_ulp, scaled = (make_golden.file_digests(t.encode()) for t in (
        text, text.replace("0.1", repr(float(np.nextafter(0.1, 1)))), text.replace("0.1", "0.1000001")))
    assert one_ulp["exact"] != base["exact"] and one_ulp["rounded"] == base["rounded"]
    assert scaled["exact"] != base["exact"] and scaled["rounded"] != base["rounded"]
