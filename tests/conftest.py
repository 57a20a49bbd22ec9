import csv
import random

import numpy as np
import pytest

import dpnoise.cli
import dpnoise.query


class MedianDraws:
    """A generator whose every uniform draw is exactly 1/2.  The inverse-cdf
    sampler maps it to the median, zero, of every mechanism here."""

    def random(self, size=()):
        return np.full(size, 0.5)


@pytest.fixture
def zero_noise(monkeypatch):
    """Releases and `dpnoise sample` add zero noise, so a test can pin the
    exact plumbing around the noise; a bad seed is still refused."""
    make_rng = dpnoise.query.make_rng

    def median_rng(seed, *key):
        make_rng(seed, *key)
        return MedianDraws()

    monkeypatch.setattr(dpnoise.query, "make_rng", median_rng)
    monkeypatch.setattr(dpnoise.cli, "make_rng", median_rng)


@pytest.fixture
def spend_csv(tmp_path):
    """A 100-row CSV with an 'id' and a 'spend' column in [0, 25)."""
    path = tmp_path / "spend.csv"
    rng = random.Random(7)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "spend"])
        for i in range(100):
            writer.writerow([i, round(rng.uniform(0.0, 25.0), 2)])
    return path


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "ledger.jsonl"
