"""The benchmark's workloads and how a seed becomes their inputs.

Each run builds `corpora` independent corpora from sub-seeds of the workload
seed and cycles through them. One synthetic chain fixes sentence lengths and
predictability, which vary a lot from chain to chain; several chains per run
keep the run-to-run spread of the figures close to the machine's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import specmt
from specmt import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    grid: dict = field(repr=False)  # ExperimentConfig fields shared by every corpus
    corpora: int
    from_files: bool  # corpus written by gen_corpus and loaded back by the sweep
    sample_stride: int  # every n-th speculative (corpus, grid point, sentence) is timed alone

    def corpus_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + k for k in range(self.corpora)]

    def config(self, corpus_seed: int, directory: Path) -> ExperimentConfig:
        """Sweep config for one corpus; writes the corpus files first when the
        workload reads its corpus from files."""
        config = ExperimentConfig(seed=corpus_seed, out_dir=str(directory / "sweep"), **self.grid)
        if not self.from_files:
            return config
        # through the package attribute, so that an installed span sees the call
        corpus, lexicon, references = specmt.gen_corpus(config.source_spec(), config.n_sentences, directory / "data")
        return ExperimentConfig(
            seed=corpus_seed, out_dir=config.out_dir, record_traces=True,
            corpus=str(corpus), lexicon=str(lexicon), references=str(references), **self.grid,
        )


SMALL_WORLD = dict(vocab_size=24, kappa=0.1, ambiguity_rate=0.3, min_length=5, max_length=15, n_sentences=100)

WORKLOADS = {
    w.name: w
    for w in (
        # Many cheap sentences in memory, no trace I/O: engine bookkeeping and
        # per-sentence scoring dominate; the bigram predictor always hits its cache.
        Workload(
            name="short",
            grid=dict(
                SMALL_WORLD, k_grid=(1, 3, 5, 7, 9), l_grid=(0.5, 0.2, 0.1, 0.05, 0.02),
                tau_grid=(0.0, 0.5, 1.0), predictors=("indomain", "oracle"),
            ),
            corpora=16,
            from_files=False,
            sample_stride=7,
        ),
        # The short world written by gen_corpus and loaded back, every run traced
        # and then recomputed by `metrics`: JSON encode/decode, file I/O and the
        # file parsers dominate. The out-of-domain predictor needs a generated
        # corpus, and always_wrong fails on a file-loaded vocabulary (its guess
        # can be a target-side id), so oracle takes their place next to indomain.
        Workload(
            name="traced",
            grid=dict(
                SMALL_WORLD, k_grid=(1, 3, 5), l_grid=(0.2, 0.05),
                tau_grid=(0.0, 1.0), predictors=("indomain", "oracle"),
            ),
            corpora=8,
            from_files=True,
            sample_stride=1,
        ),
        # Long sentences over a 200-token vocabulary with an order-3 predictor:
        # predictor cache misses, every speculation withdrawn, O(J^2) prefix
        # copies and O(I*J) delay vectors.
        Workload(
            name="long",
            grid=dict(
                vocab_size=200, kappa=1.0, ambiguity_rate=0.5, min_length=40, max_length=80,
                n_sentences=200, ngram_order=3, k_grid=(3, 7), l_grid=(0.5, 0.05),
                tau_grid=(0.0,), predictors=("outdomain", "always_wrong"),
            ),
            corpora=4,
            from_files=False,
            sample_stride=1,
        ),
    )
}
