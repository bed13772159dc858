"""Property test of the Markov sampler against the frozen one in `oracles.py`.

The shipped `_chain` draws its transition rows in one Dirichlet call, and
`_sample_sources` takes its uniforms from blocks of `UNIFORM_BLOCK` draws
and searches the cumulative rows with `bisect`. The frozen versions draw one
row and one uniform at a time and search with `np.searchsorted`. Both must
give the same corpus, bit for bit: sources, references, lexicon and
vocabulary, in domain and out of it. Each case draws a vocabulary of 5-60
ids, a concentration log-uniform over 1e-3..1e3 (near-deterministic to
near-uniform rows), any ambiguity rate and length bounds that may be equal,
and enough sentences that the uniforms cross a block boundary.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt import MarkovSourceSpec, generate, generate_out_of_domain_sources  # noqa: E402
from specmt.markov import UNIFORM_BLOCK  # noqa: E402
from oracles import frozen_generate, frozen_generate_out_of_domain_sources  # noqa: E402


@st.composite
def specs(draw):
    min_length = draw(st.integers(1, 60))
    return MarkovSourceSpec(
        vocab_size=draw(st.integers(5, 60)),
        transition_concentration=10 ** draw(st.floats(-3, 3)),
        ambiguity_rate=draw(st.floats(0, 1)),
        min_length=min_length,
        max_length=min_length + draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 2**32)),
    )


def _sentences_past_a_block(spec: MarkovSourceSpec) -> int:
    # every sentence takes at least `min_length` uniforms, one per token
    return UNIFORM_BLOCK // spec.min_length + 1


@settings(max_examples=40)
@given(specs())
def test_generate_equals_the_frozen_sampler(spec):
    n = _sentences_past_a_block(spec)
    assert generate(spec, n) == frozen_generate(spec, n)


@settings(max_examples=40)
@given(specs(), st.integers(0, 2**32))
def test_out_of_domain_sources_equal_the_frozen_sampler(spec, domain_seed):
    n = _sentences_past_a_block(spec)
    assert generate_out_of_domain_sources(spec, n, domain_seed) == frozen_generate_out_of_domain_sources(
        spec, n, domain_seed
    )
