"""The benchmark's workloads: a synthetic corpus shape plus a run config.

Each workload is generated from a corpus seed by `fuzzterm.synth` and run
with a run seed.  The shapes are chosen so that a different pipeline layer
dominates each one; `why` records which.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

DEFAULT_CORPUS_SEED = 0
DEFAULT_RUN_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: dict  # keyword arguments of fuzzterm.synth.generate_corpus
    run: dict  # config keys of fuzzterm.pipeline.load_config

    @property
    def n_docs(self) -> int:
        return self.corpus["categories"] * self.corpus["docs_per_category"]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.run["vector_sizes"].replace(",", " ").split())

    @property
    def baselines(self) -> tuple[str, ...]:
        names = self.run.get("baselines", "").replace(",", " ").split()
        return tuple(b for b in names if b != self.run["representation"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-sig",
            why="the paper's experiment shape: significance over re-weighed, "
            "re-tuned subsets dominates, with many small inference and clustering calls",
            corpus=dict(
                categories=8, docs_per_category=16, doc_length=(200, 600), mode="zipf"
            ),
            run=dict(
                representation="afcc",
                baselines="efcc, tfidf",
                vector_sizes="100, 500, 1000",
                n_subsets="5",
                fraction="0.5",
            ),
        ),
        Workload(
            name="long-pages",
            why="long documents: HTML parsing and criteria extraction dominate, "
            "inference runs in large batches and clustering is negligible",
            corpus=dict(
                categories=4,
                docs_per_category=16,
                doc_length=(1500, 3000),
                mode="zipf",
                vocab_per_category=400,
                shared_vocab=3000,
            ),
            run=dict(representation="fcc", vector_sizes="100"),
        ),
        Workload(
            name="hard-clusters",
            why="short, weakly topical documents: a few large repeated-bisection "
            "calls on a dense matrix dominate",
            corpus=dict(
                categories=12,
                docs_per_category=50,
                doc_length=(60, 180),
                mode="zipf",
                topic_fraction=0.08,
                with_titles=False,
            ),
            run=dict(representation="efcc", vector_sizes="100, 300, 1000, 2000", k="12"),
        ),
    )
}


def generate(workload: Workload, corpus_seed: int, dest: Path) -> Path:
    """Write the workload's corpus under dest; returns the manifest path."""
    from fuzzterm.synth import generate_corpus

    return generate_corpus(dest, seed=corpus_seed, **workload.corpus)


def write_config(workload: Workload, manifest: Path, out_dir: Path, run_seed: int) -> Path:
    """Write a `fuzzterm run` config for the workload next to out_dir."""
    keys = dict(workload.run, manifest=manifest.resolve(), out_dir=out_dir.resolve(), seed=run_seed)
    path = out_dir.parent / f"{out_dir.name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return path


def input_digest(manifest: Path) -> str:
    """sha256 over the manifest and every document it lists, in order."""
    h = hashlib.sha256()
    text = manifest.read_bytes()
    h.update(text)
    for line in text.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            rel = line.split("\t")[1]
            h.update((manifest.parent / rel).read_bytes())
    return h.hexdigest()
