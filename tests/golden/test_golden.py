"""The committed operator corpus: every digest in operators.json equals the
digest of the same output computed now, and the generator reproduces the
file byte for byte."""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import make_golden  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return make_golden.corpus()


def test_every_digest_matches_the_corpus(table):
    with open(make_golden.CORPUS) as fh:
        committed = json.load(fh)
    assert sorted(table) == sorted(committed)
    moved = {name: (committed[name], d) for name, d in table.items() if d != committed[name]}
    assert moved == {}


def test_generator_reproduces_the_file(table):
    with open(make_golden.CORPUS) as fh:
        assert fh.read() == make_golden.render(table)


def test_exact_digest_sees_one_ulp_and_rounded_digest_sees_scaling():
    v = np.random.default_rng(1).standard_normal(64)
    ulp = v.copy()
    ulp[7] = np.nextafter(ulp[7], np.inf)
    base, one_ulp, scaled = (make_golden.digests(a) for a in (v, ulp, v * (1 + 1e-6)))
    assert one_ulp["exact"] != base["exact"] and one_ulp["rounded"] == base["rounded"]
    assert scaled["exact"] != base["exact"] and scaled["rounded"] != base["rounded"]
