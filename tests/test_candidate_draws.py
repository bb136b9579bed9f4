"""The forest's split candidates, drawn ahead, equal numpy's ``Generator.choice``.

``tree.CandidateDraws`` replays ``np.sort(rng.choice(d, k, replace=False))``
from each tree's 32-bit stream. These tests hold it to numpy itself on a
twin generator, so a numpy release that draws ``choice`` another way fails
here instead of silently changing every forest.
"""

import numpy as np
import pytest

from testability.learn.tree import DRAW_BATCH, CandidateDraws

#: Enough splits per tree to cross into a third batch of drawn-ahead words.
NODES = 2 * DRAW_BATCH + 7


def twins(seed, rows):
    """Two generators in the same state, each past a forest tree's bootstrap draw."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    for rng in pair:
        rng.integers(0, rows, size=rows)
    return pair


@pytest.mark.parametrize("d, k", [(34, 6), (8, 3), (5, 1), (9, 8)])
def test_drawn_ahead_candidates_equal_choice_node_after_node(d, k):
    seeds = range(40)
    pairs = [twins(seed, 300 + seed % 7) for seed in seeds]  # odd and even bootstraps
    draws = CandidateDraws([b for _, b in pairs], d, k)
    pick = np.random.default_rng(0)
    taken = np.zeros(len(pairs), dtype=int)
    while taken.min() < NODES:
        # a round takes the trees still growing, as grow_trees does
        trees = np.flatnonzero((pick.random(len(pairs)) < 0.7) & (taken < NODES))
        got = draws.take(trees)
        want = [np.sort(pairs[t][0].choice(d, k, replace=False)) for t in trees]
        assert got.tolist() == [w.tolist() for w in want]
        taken[trees] += 1


#: default_rng(2022)'s 32-bit stream (the words ``integers(0, 2**32,
#: dtype=np.uint32)`` returns) holds, at this index, the first word u for
#: which Lemire's method rejects a draw in [0, 34): ``(u * 34) % 2**32`` is
#: below ``2**32 % 34 == 18``. Found once, offline, by reading that stream in
#: chunks of 2**22 words and testing each word; u is 378,967,703.
REJECTED_WORD = 73_643_482


def test_a_rejected_word_is_skipped_as_numpy_skips_it():
    pair = [np.random.default_rng(2022) for _ in range(3)]
    # the rejected word is the sixth Floyd draw (bound 34) of the first node
    start = REJECTED_WORD - 5
    for rng in pair:
        rng.bit_generator.advance(start // 2)  # 64-bit steps, two words each
        rng.integers(0, 2**32, size=start % 2, dtype=np.uint32)
    a, b, probe = pair
    u = int(probe.integers(0, 2**32, size=6, dtype=np.uint32)[5])
    assert u == 378_967_703 and (u * 34) % 2**32 < (2**32) % 34
    draws = CandidateDraws([b], 34, 6)
    for _ in range(NODES):
        want = np.sort(a.choice(34, 6, replace=False))
        assert draws.take(np.array([0]))[0].tolist() == want.tolist()
