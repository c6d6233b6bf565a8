"""fuzzterm's own seeding and bounded draws equal numpy.random's.

The known answers were taken from numpy 2.4.6, so they pin the draws
whatever numpy is installed; the properties compare against the installed
numpy.random.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzterm._draws import PCG64, SeedSequence, seed_sequence

from oracles import assert_same_state


class TestKnownAnswers:
    @pytest.mark.parametrize(
        "seq, pool",
        [
            (SeedSequence(7), [1898436647, 3671616036, 1028708257, 1005235980]),
            (SeedSequence((7, 1)), [70599722, 3325653387, 3012850390, 3772321688]),
            (SeedSequence((7, 1)).spawn(3)[2], [1782741592, 803325520, 2755553372, 3841005432]),
        ],
        ids=["7", "(7, 1)", "third child of (7, 1)"],
    )
    def test_pools(self, seq, pool):
        assert seq.pool == pool

    def test_first_outputs_of_seed_0(self):
        rng = PCG64(SeedSequence(0))
        assert [rng.next_uint64() for _ in range(8)] == [
            0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8, 0x043B27B61342F01D,
            0xD0327A782CDE513B, 0xE9AA5979A6401C4E, 0x9B4C7B7180EDB27F, 0xBAC0495FF8829A45,
        ]

    # four draws in 0..rng from seed 0, and the state they leave: Lemire on
    # 32-bit draws, one 32-bit draw at 2**32 - 1, Lemire on 64-bit draws,
    # one 64-bit draw at 2**64 - 1
    @pytest.mark.parametrize(
        "rng, draws, state",
        [
            (1, [1, 1, 1, 0], 0x6C0A36D2B207550EA81CF86BB82FD0E1),
            (2, [2, 1, 1, 0], 0x6C0A36D2B207550EA81CF86BB82FD0E1),
            (2**32 - 1, [3653403231, 2735729615, 2195314465, 1158725112],
             0x6C0A36D2B207550EA81CF86BB82FD0E1),
            (2**32, [2735729616, 1158725112, 175979945, 70985654],
             0x2252A93F51DCD7AB19751F2C132CCAAF),
            (2**32 + 5, [2735729619, 1158725114, 175979945, 70985654],
             0x2252A93F51DCD7AB19751F2C132CCAAF),
            (2**64 - 1, [11749869230777074271, 4976686463289251617, 755828109848996024,
                         304881062738325533], 0x2252A93F51DCD7AB19751F2C132CCAAF),
        ],
    )
    def test_bounded(self, rng, draws, state):
        gen = PCG64(SeedSequence(0))
        assert [gen.bounded(rng) for _ in range(4)] == draws
        assert (gen.state, gen.has_uint32) == (state, 0)

    def test_choice(self):
        rng = PCG64(SeedSequence(0))
        assert rng.choice(10, 5).tolist() == [4, 7, 2, 3, 5]
        # n > 10,000 and size > n // 50: the tail-shuffle branch
        picks = rng.choice(20_000, 401)
        assert picks[:6].tolist() == [11322, 12924, 3824, 11362, 13184, 7095]
        assert picks[-6:].tolist() == [19410, 12130, 10071, 18253, 12987, 16265]
        assert hashlib.sha256(picks.astype("<i8").tobytes()).hexdigest() == (
            "a228202e0659c65d292fcefc725fa28018e60af6f6f0aef22acafdf4741a582e"
        )
        assert rng.state == 61298200308824521057602915608589122764


entropy = st.one_of(
    st.integers(0, 2**70),
    st.lists(st.integers(0, 2**40), max_size=6).map(tuple),
)
# every bounded path and both ends of each
bounds = st.one_of(
    st.integers(0, 2**32 - 2),
    st.sampled_from([0, 1, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]),
    st.integers(2**32, 2**64 - 1),
)


class TestAgainstNumpy:
    @given(entropy=entropy, children=st.integers(0, 4))
    def test_seed_sequence_pools_and_state(self, entropy, children):
        ours, theirs = SeedSequence(entropy), np.random.SeedSequence(entropy)
        assert ours.pool == theirs.pool.tolist()
        for a, b in zip(ours.spawn(children), theirs.spawn(children)):
            assert a.pool == b.pool.tolist()
            assert a.generate_state(8) == b.generate_state(8).tolist()
            assert_same_state(PCG64(a), np.random.default_rng(b))

    @given(seed=st.integers(0, 2**64), rngs=st.lists(bounds, min_size=1, max_size=12),
           advance=st.integers(0, 3))
    def test_bounded_draws(self, seed, rngs, advance):
        ours, theirs = PCG64(seed_sequence(seed)), np.random.default_rng(seed)
        for _ in range(advance):
            ours.next_uint32()
        theirs.integers(0, 2**32, size=advance, dtype=np.uint32)
        for rng in rngs:
            assert ours.bounded(rng) == int(theirs.integers(0, rng, dtype=np.uint64, endpoint=True))
            assert_same_state(ours, theirs)

    @given(
        seed=st.integers(0, 2**32),
        n_size=st.integers(0, 30_000).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, min(n, 800)) | st.just(n))
        ),
    )
    def test_choice(self, seed, n_size):
        n, size = n_size
        ours, theirs = PCG64(seed_sequence(seed)), np.random.default_rng(seed)
        want = theirs.choice(n, size, replace=False)
        got = ours.choice(n, size)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert_same_state(ours, theirs)


def test_bounded_rejects_bounds_outside_64_bits():
    rng = PCG64(SeedSequence(0))
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="bound"):
            rng.bounded(bad)
