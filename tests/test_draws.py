"""The training draws (traffic.WordDraws, and ReplayMemory.sample on it)
against numpy's Generator: each draw must equal the Generator call it
stands for, and a stream's next draws must continue where those calls
leave off, as the next run on a shared stream draws."""
import gc
import weakref

import numpy as np
import pytest

from flowrl.dqn import MINIBATCH, Experience, ReplayMemory
from flowrl.qlearn import Action
from flowrl.traffic import DRAW_BLOCK, WordDraws
from conftest import assert_continues

# n == 1 takes no draw; 2**31 + 1 rejects about half its 32-bit draws
BELOW_RANGES = (1, 2, 5, 19, 1000, 2**31 + 1, 2**32 - 1, 2**32)
# memory sizes: sampling all of it, the smallest learning memory, a full one
MEMORY_SIZES = (MINIBATCH, MINIBATCH + 1, 32, 1000)


def memory_of(n):
    mem = ReplayMemory()
    for i in range(n):
        mem.store(Experience(None, Action.NoOp, i, None))
    return mem


MEMORIES = {n: memory_of(n) for n in MEMORY_SIZES}


def twins(seed, kept_half):
    """Two generators on seed; with kept_half both hold a 32-bit half."""
    gens = np.random.default_rng(seed), np.random.default_rng(seed)
    if kept_half:
        for gen in gens:
            gen.integers(0, 7)
    return gens


def test_interleaved_draws_equal_generator_calls():
    ops = len(BELOW_RANGES) + len(MEMORY_SIZES) + 1
    crossed = ended_with_half = 0
    for seed in range(240):
        ref, gen = twins(seed, kept_half=seed % 2)
        draws = WordDraws(gen)
        order = np.random.default_rng([seed, 2])
        words = 0.0  # a lower bound on the words taken
        for _ in range(int(order.integers(0, 3 * DRAW_BLOCK))):
            op = int(order.integers(ops))
            if op < len(BELOW_RANGES):
                n = BELOW_RANGES[op]
                assert draws.below(n) == int(ref.integers(0, n)), (seed, n)
                words += 0.5 * (n > 1)
            elif op < ops - 1:
                n = MEMORY_SIZES[op - len(BELOW_RANGES)]
                picked = [e.r for e in MEMORIES[n].sample(draws)]
                assert picked == ref.choice(n, MINIBATCH, replace=False).tolist(), (seed, n)
                words += 3.0  # at least three Floyd and three shuffle halves
            else:
                assert draws.random() == ref.random(), seed
                words += 1
        crossed += words > DRAW_BLOCK
        ended_with_half += ref.bit_generator.state["has_uint32"]
        assert_continues(draws, ref)
    assert crossed > 50 and ended_with_half > 50


@pytest.mark.parametrize("count", [0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1,
                                   2 * DRAW_BLOCK])
def test_random_across_block_boundaries(count):
    for seed in range(3):
        ref, gen = twins(seed, kept_half=seed == 1)
        draws = WordDraws(gen)
        assert [draws.random() for _ in range(count)] == [ref.random() for _ in range(count)]
        assert_continues(draws, ref)


def test_random_is_the_word_top_53_bits():
    words = np.random.default_rng(4).bit_generator.random_raw(3).tolist()
    draws = WordDraws(np.random.default_rng(4))
    assert [draws.random() for _ in words] == [(w >> 11) / 2**53 for w in words]
    assert draws.random() == np.random.default_rng(4).random(4)[3]


def test_stream_fetches_a_block_only_when_a_draw_needs_it():
    gen, fetched = np.random.default_rng(8), np.random.default_rng(8)
    unread = gen.bit_generator.state
    draws = WordDraws(gen)
    assert draws.below(1) == 0  # takes no draw
    assert gen.bit_generator.state == unread
    fetched.bit_generator.random_raw(DRAW_BLOCK)
    for _ in range(DRAW_BLOCK):
        draws.random()
        assert gen.bit_generator.state == fetched.bit_generator.state
    fetched.bit_generator.random_raw(DRAW_BLOCK)
    draws.random()
    assert gen.bit_generator.state == fetched.bit_generator.state


def test_a_dropped_stream_is_freed_without_the_collector():
    # the stream's fetch holds the bit generator, not the WordDraws, so no
    # reference cycle outlives the run that drew from it
    draws = WordDraws(np.random.default_rng(8))
    draws.random()
    freed = weakref.ref(draws)
    gc.disable()
    try:
        del draws
        assert freed() is None
    finally:
        gc.enable()


class WordFeed:
    """A generator stand-in for WordDraws.live whose bit generator hands out
    the given words in order."""

    def __init__(self, words):
        self.bit_generator = self
        self.state = {"has_uint32": 0, "uinteger": 0}
        self.random_raw = iter(words).__next__


def test_random_column_equals_random():
    words = [0, 1, 2**11 - 1, 2**11, 2**63, 2**64 - 1,
             *np.random.default_rng(6).bit_generator.random_raw(200).tolist()]
    draws = WordDraws.live(WordFeed(words))
    column = WordDraws.random_column(np.array(words, np.uint64))
    assert column.tolist() == [draws.random() for _ in words]


@pytest.mark.parametrize("n", [n for n in BELOW_RANGES if n <= 2**16] + [64512, 2**16])
def test_below_column_equals_below(n):
    # the halves ceil(k * 2**32 / n) leave a product's low half below n,
    # where below's rejections lie; half 0 is one unless 2**32 % n == 0
    edges = [-(-k * 2**32 // n) for k in range(min(n, 64))]
    for seed in range(5):
        rng = np.random.default_rng([seed, n])
        halves = rng.permutation([*edges, *rng.integers(0, 2**32, 200 + len(edges) % 2)])
        values, rejected = WordDraws.below_column(halves, n)
        kept = values[~rejected].tolist()
        pairs = halves.astype(np.uint64).reshape(-1, 2)
        words = (pairs[:, 1] << 32 | pairs[:, 0]).tolist()  # each word's low half first
        draws = WordDraws.live(WordFeed(words))
        assert [draws.below(n) for _ in kept] == kept, seed
        assert rejected.any() == ((2**32 - n) % n > 0), seed


def test_range_of_one_takes_no_draw():
    for kept_half in (False, True):
        ref, gen = twins(9, kept_half)
        untouched = twins(9, kept_half)[0]
        draws = WordDraws(gen)
        assert [draws.below(1) for _ in range(5)] == [0] * 5
        assert_continues(draws, untouched)
        assert [int(ref.integers(0, 1)) for _ in range(5)] == [0] * 5
        assert ref.bit_generator.state == untouched.bit_generator.state


def test_rejection_heavy_range():
    n = 2**31 + 1
    assert (2**32 - n) % n == 2**31 - 1  # draws below this threshold are redrawn
    for seed in range(20):
        ref, gen = twins(seed, kept_half=False)
        draws = WordDraws(gen)
        assert [draws.below(n) for _ in range(50)] == [int(ref.integers(0, n))
                                                      for _ in range(50)]
        assert_continues(draws, ref)


@pytest.mark.parametrize("kept_half, calls", [
    (False, "b"),    # takes a word, keeps its high half
    (True, "r"),     # the opening half stays kept across a whole-word draw
    (True, "bb"),    # uses the opening half, then keeps a new one
    (True, "b"),     # uses the opening half, and ends with none
    (False, "bbrb"),
])
def test_kept_half_carries_to_the_next_draw(kept_half, calls):
    ref, gen = twins(11, kept_half)
    draws = WordDraws(gen)
    for call in calls:
        if call == "b":
            assert draws.below(5) == int(ref.integers(0, 5))
        else:
            assert draws.random() == ref.random()
    ends_with_half = (len(calls) - calls.count("r") + kept_half) % 2
    assert ref.bit_generator.state["has_uint32"] == ends_with_half
    assert_continues(draws, ref)


def test_sample_equals_generator_choice():
    for seed in range(200):
        ref, gen = twins(seed, kept_half=seed % 2)
        draws = WordDraws(gen)
        for n in MEMORY_SIZES:
            picked = [e.r for e in MEMORIES[n].sample(draws)]
            assert picked == ref.choice(n, MINIBATCH, replace=False).tolist(), (seed, n)
        assert_continues(draws, ref)
