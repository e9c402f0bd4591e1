import pytest

from helpers import make_separable, write_labeled_csv


@pytest.fixture
def synth_csv(tmp_path):
    """Small separable dataset on disk, the cheap stand-in for real data."""
    path = tmp_path / "synthetic.csv"
    write_labeled_csv(make_separable(140, 6, seed=5), path)
    return path
