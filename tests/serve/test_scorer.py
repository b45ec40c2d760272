"""Bit-identity and lifecycle tests for :class:`repro.serve.scorer.AsyncScorer`.

The serving contract: no matter how single-sample requests interleave,
batch, or backpressure, every label equals what a scalar
``tree.predict_levels`` call on that sample alone would return.
"""

import asyncio

import numpy as np
import pytest

from repro.mltrees.quantize import quantize_dataset
from repro.serve.batching import BatchingConfig, ScorerClosedError
from repro.serve.scorer import AsyncScorer

N_FEATURES = 5  # matches the small_tree conftest fixture


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(11)
    return rng.random((400, N_FEATURES))


def expected_labels(tree, rows):
    return tree.predict_levels(quantize_dataset(rows, tree.resolution_bits))


class TestBitIdentity:
    def test_concurrent_burst_matches_scalar_predict_levels(self, small_tree, rows):
        expected = expected_labels(small_tree, rows)

        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                return await asyncio.gather(*(scorer.score(r) for r in rows))

        assert run(scenario()) == list(expected)

    def test_ragged_interleaved_bursts_match(self, small_tree, rows):
        """Bursts of wildly different sizes, tiny batches => many flush
        boundaries cutting through the request stream; labels must not care."""
        rng = np.random.default_rng(23)
        expected = expected_labels(small_tree, rows)

        async def scenario():
            got = {}
            config = BatchingConfig(max_batch_size=16, max_wait_us=50.0)
            async with AsyncScorer(small_tree, config=config) as scorer:

                async def burst(indices):
                    labels = await asyncio.gather(
                        *(scorer.score(rows[i]) for i in indices)
                    )
                    got.update(zip(indices, labels))

                cursor, bursts = 0, []
                while cursor < len(rows):
                    size = int(rng.integers(1, 49))
                    bursts.append(range(cursor, min(cursor + size, len(rows))))
                    cursor += size
                await asyncio.gather(*(burst(b) for b in bursts))
            return [got[i] for i in range(len(rows))]

        assert run(scenario()) == list(expected)

    def test_flushes_use_the_kernel_not_the_tree_walk(self, small_tree, rows, monkeypatch):
        from repro.mltrees.tree import DecisionTree

        expected = expected_labels(small_tree, rows[:32])

        def refuse(*args, **kwargs):
            raise AssertionError("the scorer walked the tree")

        monkeypatch.setattr(DecisionTree, "predict_levels", refuse)

        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                batched = await asyncio.gather(*(scorer.score(r) for r in rows[:32]))
                return batched, [scorer.score_one(r) for r in rows[:32]]

        batched, single = run(scenario())
        assert batched == single == list(expected)

    def test_score_one_matches_score(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                for row in rows[:32]:
                    assert await scorer.score(row) == scorer.score_one(row)

        run(scenario())

    def test_single_in_flight_request(self, small_tree, rows):
        """One lone request flushes alone on timeout, still bit-identical."""
        expected = expected_labels(small_tree, rows[:1])

        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                label = await scorer.score(rows[0])
                return label, scorer.stats

        label, stats = run(scenario())
        assert label == expected[0]
        assert stats.n_requests == 1
        assert stats.max_batch == 1

    def test_backpressured_overload_is_still_bit_identical(self, small_tree, rows):
        """A queue far smaller than the burst forces submit-side suspension;
        every request still completes with the scalar-reference label."""
        expected = expected_labels(small_tree, rows)

        async def scenario():
            config = BatchingConfig(
                max_batch_size=8, max_wait_us=0.0, max_queue_size=4
            )
            async with AsyncScorer(small_tree, config=config) as scorer:
                labels = await asyncio.gather(*(scorer.score(r) for r in rows))
            return labels

        assert run(scenario()) == list(expected)


class TestLifecycle:
    def test_close_drains_pending_then_rejects(self, small_tree, rows):
        expected = expected_labels(small_tree, rows[:40])

        async def scenario():
            scorer = AsyncScorer(
                small_tree,
                config=BatchingConfig(max_batch_size=4, max_wait_us=30_000_000.0),
            )
            pending = [
                asyncio.ensure_future(scorer.score(rows[i])) for i in range(40)
            ]
            await asyncio.sleep(0)
            await scorer.close()
            labels = await asyncio.gather(*pending)
            assert scorer.closed
            with pytest.raises(ScorerClosedError):
                await scorer.score(rows[0])
            return labels

        assert run(scenario()) == list(expected)

    def test_context_manager_closes(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                await scorer.score(rows[0])
            return scorer.closed

        assert run(scenario())

    def test_stats_account_every_request(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                await asyncio.gather(*(scorer.score(r) for r in rows[:100]))
                return scorer.stats

        stats = run(scenario())
        assert stats.n_requests == 100
        assert stats.n_flushes >= 1
        assert stats.mean_batch >= 1.0


class TestValidation:
    def test_rejects_wrong_shape(self, small_tree):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                with pytest.raises(ValueError, match="sample"):
                    await scorer.score(np.zeros(N_FEATURES + 1))
                with pytest.raises(ValueError, match="sample"):
                    await scorer.score(np.zeros((2, N_FEATURES)))

        run(scenario())

    def test_score_one_validates_shape(self, small_tree):
        scorer = AsyncScorer(small_tree)
        with pytest.raises(ValueError, match="sample"):
            scorer.score_one(np.zeros(N_FEATURES - 1))

    def test_non_finite_sample_fails_alone(self, small_tree, rows):
        """A NaN or infinite request raises; the requests beside it in the flush
        still get their labels.  A NaN used to quantize to INT64_MIN and score."""
        expected = expected_labels(small_tree, rows[:2])
        nan_row, inf_row = rows[2].copy(), rows[3].copy()
        nan_row[1], inf_row[4] = np.nan, np.inf

        async def scenario():
            config = BatchingConfig(max_batch_size=64, max_wait_us=50_000.0)
            async with AsyncScorer(small_tree, config=config) as scorer:
                results = await asyncio.gather(
                    scorer.score(rows[0]), scorer.score(nan_row),
                    scorer.score(rows[1]), scorer.score(inf_row),
                    return_exceptions=True,
                )
                return results, scorer.stats

        (first, nan_error, second, inf_error), stats = run(scenario())
        assert [first, second] == list(expected)
        for error in (nan_error, inf_error):
            assert isinstance(error, ValueError) and "finite" in str(error)
        assert (stats.n_requests, stats.n_flushes) == (2, 1)

    def test_score_one_rejects_non_finite_samples(self, small_tree, rows):
        scorer = AsyncScorer(small_tree)
        sample = rows[0].copy()
        sample[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            scorer.score_one(sample)
        # Finite values whose sum overflows are valid: they clip to full scale.
        huge = np.full(N_FEATURES, 1e308)
        assert scorer.score_one(huge) == scorer.score_one(np.ones(N_FEATURES))
