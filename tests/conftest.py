import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every property runs without a deadline (the clustering and corpus
# properties take tens of milliseconds an example) and without an example
# database, so a run replays nothing from an earlier one.
settings.register_profile("fuzzterm", deadline=None, database=None)
settings.load_profile("fuzzterm")

from fuzzterm import generate_corpus


@pytest.fixture(scope="session")
def corpus_dir_400(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus400")
    generate_corpus(
        out,
        categories=4,
        docs_per_category=100,
        mode="uniform",
        seed=11,
        topic_fraction=0.6,
    )
    return out


@pytest.fixture(scope="session")
def corpus_dir_200(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus200")
    generate_corpus(out, categories=4, docs_per_category=50, mode="zipf", seed=5)
    return out
