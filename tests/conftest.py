import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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
