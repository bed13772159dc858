"""Acceptance suite: every release criterion, one test each, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. All corpora are generated, all seeds fixed; the suite is fully
deterministic.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from specmt import (
    AlwaysWrongPredictor,
    EngineConfig,
    Event,
    MarkovSourceSpec,
    OraclePredictor,
    PolicyConfig,
    SimtModel,
    average_lagging,
    generate,
    generate_out_of_domain_sources,
    replay,
    run_baseline,
    run_speculative,
    train_ngram,
)
from specmt.metrics import awr
from oracles import (
    brute_force_bleu,
    brute_force_delays,
    corpus_bleu,
    modified_precision,
    paired_bootstrap_pvalue,
    snapshot_from_trace,
    speculation_eligible_positions,
    wait_k_closed_form_al,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] FAIL  {title}", flush=True)
        raise
    print(f"\n[criterion {number:02d}] PASS  {title}", flush=True)


POLICY_GRID = [PolicyConfig.wait_k(k) for k in range(1, 10)] + [
    PolicyConfig.adaptive(weight) for weight in (0.5, 0.2, 0.1, 0.05, 0.02)
]


@pytest.fixture(scope="module")
def world():
    """Shared test world: one ambiguous, moderately predictable corpus."""
    spec = MarkovSourceSpec(
        vocab_size=20, transition_concentration=0.1, ambiguity_rate=0.3,
        min_length=5, max_length=12, seed=101,
    )
    data = generate(spec, 1200)
    split = 1080
    bigram = train_ngram(data.sources[:split], 2, vocabulary=data.vocabulary)
    return {
        "data": data,
        "test": data.sources[split:],
        "test_refs": data.references[split:],
        "bigram": bigram,
    }


def _model(world, policy):
    data = world["data"]
    return SimtModel(lexicon=data.lexicon, policy=policy, vocabulary=data.vocabulary)


def _al(trace):
    replayed = replay(trace)
    return average_lagging(replayed.delays, replayed.source_length)


def _predictors(world, source):
    return {
        "oracle": OraclePredictor(source),
        "always_wrong": AlwaysWrongPredictor(source, world["data"].vocabulary),
        "bigram": world["bigram"],
    }


def test_criterion_1_equivalence_under_withdrawal(world):
    """Speculation must never change the final output, over >= 10^4 cases."""
    with criterion(1, "speculative output identical to baseline on 10k+ cases"):
        sentences = world["test"][:80]
        started = time.perf_counter()
        cases = 0
        for policy in POLICY_GRID:
            model = _model(world, policy)
            for source in sentences:
                baseline = run_baseline(model, source).final_output
                for predictor in _predictors(world, source).values():
                    for tau in (0.0, 0.5, 1.0):
                        result = run_speculative(
                            model, predictor, source, EngineConfig(tau=tau)
                        )
                        assert result.final_output == baseline
                        cases += 1
        elapsed = time.perf_counter() - started
        assert cases >= 10_000, cases
        assert elapsed < 60.0, f"{elapsed:.1f}s over budget"
        print(f"  ({cases} cases in {elapsed:.1f}s)", end="")


def test_criterion_2_replay_delays_match_brute_force(world):
    """Shipped delay computation == direct quantifier evaluation, exactly."""
    with criterion(2, "replay delays equal brute force over the snapshot matrix on 1000+ traces"):
        checked = revised = 0
        policies = [PolicyConfig.wait_k(k) for k in (1, 2, 4)] + [PolicyConfig.adaptive(0.1)]
        for policy in policies:
            model = _model(world, policy)
            for source in world["test"][:70]:
                runs = [run_baseline(model, source)]
                for predictor in _predictors(world, source).values():
                    runs.append(run_speculative(model, predictor, source, EngineConfig(tau=0.0)))
                for result in runs:
                    rows = snapshot_from_trace(result.trace)
                    replayed = replay(result.trace)
                    assert replayed.final == rows[-1]
                    assert replayed.delays == brute_force_delays(rows)
                    assert replayed.source_length == len(rows)
                    checked += 1
                    revised += any(row != rows[-1][: len(row)] for row in rows)
        assert checked >= 1000 and revised >= 100, (checked, revised)
        print(f"  ({checked} traces, {revised} with a revised row)", end="")


def test_criterion_3_average_lagging_closed_form(world):
    """Wait-k lagging equals the closed form for square baseline runs."""
    with criterion(3, "average lagging matches the wait-k closed form exactly"):
        # the derived worked example: delays (3,4,5,5,5) over a 5-token source
        assert average_lagging((3, 4, 5, 5, 5), 5) == 2.4

        checked = 0
        for source in world["test"]:
            src_len = len(source)
            for k in range(1, 10):
                if k > src_len:
                    continue
                model = _model(world, PolicyConfig.wait_k(k))
                result = run_baseline(model, source)
                replayed = replay(result.trace)
                assert len(replayed.delays) == src_len  # square: one token per token
                assert average_lagging(replayed.delays, replayed.source_length) == wait_k_closed_form_al(
                    k, src_len, len(replayed.delays)
                )
                checked += 1
        assert checked > 500


def test_criterion_4_oracle_latency_shift(world):
    """A perfect predictor shifts each eligible position exactly one read earlier."""
    with criterion(4, "oracle predictor: AL_diff == eligible/J and AWR == 0, per trace"):
        policies = [PolicyConfig.wait_k(k) for k in (1, 2, 3, 5, 9)]
        policies += [PolicyConfig.adaptive(w) for w in (0.1, 0.5)]
        for policy in policies:
            model = _model(world, policy)
            for source in world["test"]:
                baseline = run_baseline(model, source)
                result = run_speculative(
                    model, OraclePredictor(source), source, EngineConfig(tau=0.0)
                )
                assert result.withdrawals == 0
                assert awr(result.withdrawals, len(result.final_output)) == 0.0
                g_base = replay(baseline.trace).delays
                g_spec = replay(result.trace).delays
                eligible = speculation_eligible_positions(baseline.trace)
                assert sum(g_base) - sum(g_spec) == eligible
                al_shift = _al(baseline.trace) - _al(result.trace)
                assert al_shift == pytest.approx(eligible / len(g_base), abs=1e-12)


def test_criterion_5_withdrawal_accounting(world):
    """W == mispredicted speculations, recounted from the raw trace events."""
    with criterion(5, "withdrawals equal mispredicted speculations; AWR == W/J"):
        taus = (0.0, 0.4)
        policies = [PolicyConfig.wait_k(1), PolicyConfig.wait_k(3), PolicyConfig.adaptive(0.1)]
        checked = 0
        for policy in policies:
            model = _model(world, policy)
            for source in world["test"]:
                for name, predictor in _predictors(world, source).items():
                    for tau in taus:
                        result = run_speculative(model, predictor, source, EngineConfig(tau=tau))
                        events = [Event._make(e) for e in result.trace.events]
                        predictions = {e.i: e.pred for e in events if e.ev == "PREDICT"}
                        speculated = {e.i + 1 for e in events if e.ev == "SPECULATE"}
                        reads = {e.i: e.tok for e in events if e.ev == "READ"}
                        misses = sum(1 for i in speculated if predictions[i] != reads[i])
                        assert result.withdrawals == sum(1 for e in events if e.ev == "WITHDRAW") == misses
                        assert awr(result.withdrawals, len(result.final_output)) == (
                            result.withdrawals / len(result.final_output)
                        )
                        checked += 1
        assert checked >= 2000


def test_criterion_6_threshold_tradeoff(world):
    """Raising the speculation gate trades latency gain for stability."""
    with criterion(6, "AWR weakly decreasing in tau; AL_diff decreasing with <= 1 inversion"):
        model = _model(world, PolicyConfig.wait_k(1))
        test = world["test"]
        baselines = [run_baseline(model, s) for s in test]
        base_al = [_al(b.trace) for b in baselines]

        taus = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        awr_per_sentence: list[list[float]] = []
        al_diffs = []
        for tau in taus:
            runs = [
                run_speculative(model, world["bigram"], s, EngineConfig(tau=tau))
                for s in test
            ]
            awr_per_sentence.append(
                [r.withdrawals / len(r.final_output) for r in runs]
            )
            spec_al = [_al(r.trace) for r in runs]
            al_diffs.append(sum(base_al) / len(test) - sum(spec_al) / len(test))

        # exact, sentence by sentence: higher gates speculate on subsets
        for lo, hi in zip(awr_per_sentence, awr_per_sentence[1:]):
            assert all(h <= l for l, h in zip(lo, hi))
        inversions = sum(1 for a, b in zip(al_diffs, al_diffs[1:]) if b > a + 1e-12)
        assert inversions <= 1, (al_diffs, inversions)
        assert al_diffs[0] > al_diffs[-1]


def test_criterion_7_in_domain_training_direction():
    """Training the predictor on task data must beat foreign-domain training."""
    with criterion(7, "in-domain predictor: higher accuracy and AL_diff (bootstrap p<0.05)"):
        for kappa in (0.01, 0.1, 1.0):
            spec = MarkovSourceSpec(
                vocab_size=20, transition_concentration=kappa, ambiguity_rate=0.2,
                min_length=5, max_length=12, seed=301,
            )
            data = generate(spec, 5500)
            split = 4950
            test = data.sources[split:]
            assert len(test) >= 500
            in_domain = train_ngram(data.sources[:split], 2, vocabulary=data.vocabulary)
            ood_sources = generate_out_of_domain_sources(spec, split, domain_seed=spec.seed + 1)
            out_domain = train_ngram(ood_sources, 2, vocabulary=data.vocabulary)

            model = SimtModel(
                lexicon=data.lexicon, policy=PolicyConfig.wait_k(1), vocabulary=data.vocabulary
            )
            acc_pairs = {"in": [], "out": []}
            al_pairs = {"in": [], "out": []}
            for source in test:
                base_al = _al(run_baseline(model, source).trace)
                for label, predictor in (("in", in_domain), ("out", out_domain)):
                    correct = sum(
                        1
                        for t in range(len(source))
                        if predictor.predict(source[:t]).token == source[t]
                    )
                    acc_pairs[label].append(correct / len(source))
                    run = run_speculative(model, predictor, source, EngineConfig(tau=0.0))
                    al_pairs[label].append(
                        base_al - _al(run.trace)
                    )

            mean = lambda xs: sum(xs) / len(xs)
            assert mean(acc_pairs["in"]) > mean(acc_pairs["out"])
            assert mean(al_pairs["in"]) > mean(al_pairs["out"])
            assert paired_bootstrap_pvalue(acc_pairs["in"], acc_pairs["out"], seed=11) < 0.05
            assert paired_bootstrap_pvalue(al_pairs["in"], al_pairs["out"], seed=13) < 0.05


def test_criterion_8_quality_latency_tradeoff():
    """Ambiguity makes wait-1 cheaper but worse; wait-2 is exact."""
    with criterion(8, "BLEU(wait-1) < BLEU(wait-2) == 1.0 and AL(wait-1) < AL(wait-2)"):
        spec = MarkovSourceSpec(
            vocab_size=20, transition_concentration=0.1, ambiguity_rate=0.3,
            min_length=5, max_length=12, seed=401,
        )
        data = generate(spec, 300)
        model_w1 = SimtModel(lexicon=data.lexicon, policy=PolicyConfig.wait_k(1),
                             vocabulary=data.vocabulary)
        model_w2 = SimtModel(lexicon=data.lexicon, policy=PolicyConfig.wait_k(2),
                             vocabulary=data.vocabulary)
        # strictness guard: the corpus must actually exercise a conditional rule
        alt_targets = set(data.lexicon.conditional.values())
        assert any(alt_targets & set(ref) for ref in data.references)

        out_w1, out_w2, al_w1, al_w2 = [], [], [], []
        for source in data.sources:
            r1 = run_baseline(model_w1, source)
            r2 = run_baseline(model_w2, source)
            out_w1.append(r1.final_output)
            out_w2.append(r2.final_output)
            al_w1.append(_al(r1.trace))
            al_w2.append(_al(r2.trace))

        refs = list(data.references)
        bleu_w1 = corpus_bleu(out_w1, refs)
        bleu_w2 = corpus_bleu(out_w2, refs)
        assert bleu_w2 == 1.0  # exact: wait-2 sees every conditioning token in time
        assert bleu_w1 < bleu_w2
        assert sum(al_w1) / len(al_w1) < sum(al_w2) / len(al_w2)


def test_criterion_9_repeat_determinism(world):
    """Repeating a run, with a cold or a warm predictor cache, must not change any trace."""
    with criterion(9, "speculative traces byte-identical over 5 repeated runs"):
        data = world["data"]
        bigram = train_ngram(data.sources[:1080], 2, vocabulary=data.vocabulary)  # cold cache
        runs = []
        for _ in range(5):
            model = _model(world, PolicyConfig.wait_k(2))
            runs.append([
                run_speculative(model, bigram, source, EngineConfig(tau=0.3)).trace.serialize()
                for source in world["test"]
            ])
        assert all(run == runs[0] for run in runs[1:])


def test_criterion_10_bleu_correctness():
    """Identity scores one, clipping caps credit, random corpora match the oracle."""
    with criterion(10, "BLEU: identity == 1.0, clipped 2/7 example, 100 random cross-checks"):
        refs = [tuple("w1 w2 w3 w4 w5".split()), tuple("w3 w1 w4".split())]
        assert corpus_bleu(refs, refs) == 1.0

        hyp = [tuple("the the the the the the the".split())]
        ref = [tuple("the cat is on the mat".split())]
        assert modified_precision(hyp, ref, 1) == (2, 7)
        assert corpus_bleu(hyp, ref) == 0.0

        rng = np.random.default_rng(707)
        for _ in range(100):
            size = int(rng.integers(1, 10))
            hyps, cors = [], []
            for _ in range(size):
                n = int(rng.integers(1, 14))
                hyps.append(tuple(f"w{t}" for t in rng.integers(0, 7, size=n)))
                if rng.random() < 0.5:
                    take = int(rng.integers(1, n + 1))
                    cors.append(hyps[-1][:take])
                else:
                    m = int(rng.integers(1, 14))
                    cors.append(tuple(f"w{t}" for t in rng.integers(0, 7, size=m)))
            assert corpus_bleu(hyps, cors) == pytest.approx(
                brute_force_bleu(hyps, cors), abs=1e-9
            )
