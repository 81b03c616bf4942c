"""Same generator, same draws, same order (docs/architecture.md).

`ErrorSampler.uniform` reads Eq. 3's stage-1 uniforms from a block drawn
`UNIFORM_BLOCK` ahead.  The contract: nobody can tell.  A block sampler
and a *scalar twin* — the sampler as it was before the block, every
uniform one ``Generator.random()`` — are driven through the same
operations from equally seeded generators, and must return equal values
at every step and hold equal ``bit_generator.state`` whenever the
generator is handed out.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.outcomes import UNIFORM_BLOCK, ErrorSampler

FLIT_BITS = 128
RATE = 2e-3  # per-bit; only stage 2 reads it (stage 1 compares with p)
TINY = 1e-9


class ScalarTwin:
    """`ErrorSampler`'s draws, written out scalar by scalar."""

    def __init__(self, flit_bits, rng, multi_bit_fraction, burst_extra_bits_mean):
        self.flit_bits = flit_bits
        self.rng = rng
        self.multi_bit_fraction = multi_bit_fraction
        self.burst_extra_bits_mean = burst_extra_bits_mean

    def uniform(self):
        return self.rng.random()

    def sample_bit_errors(self, rate, p_fault):
        if rate <= 0.0 or self.rng.random() >= p_fault:
            return 0
        return self.faulty_flit_errors(rate)

    def faulty_flit_errors(self, rate):
        if self.multi_bit_fraction and self.rng.random() < self.multi_bit_fraction:
            burst = 2 + int(self.rng.poisson(self.burst_extra_bits_mean))
            return min(burst, self.flit_bits)
        while True:
            count = int(self.rng.binomial(self.flit_bits, rate))
            if count >= 1:
                return min(count, self.flit_bits)


BIT_GENERATORS = {
    "pcg64": np.random.PCG64,  # what `RngFactory.stream` hands the network
    "mt19937": np.random.MT19937,  # two 32-bit outputs per double
    "philox": np.random.Philox,  # counter-based, buffered output
}


def make_pair(seed, multi_bit_fraction, bit_generator="pcg64"):
    make = BIT_GENERATORS[bit_generator]
    return tuple(
        sampler(FLIT_BITS, np.random.Generator(make(seed)), multi_bit_fraction, 1.0)
        for sampler in (ErrorSampler, ScalarTwin)
    )


def same(a, b):
    """Equality over the nested dicts / arrays of a bit generator state."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def apply(op, block, twin):
    """Run one operation on both; assert equal results."""
    kind = op[0]
    if kind == "uniforms":
        for _ in range(op[1]):
            assert block.uniform() == twin.uniform()
    elif kind == "sample":  # zero-rate hops (no draw) are rate 0.0 here
        _, rate, p_fault = op
        assert block.sample_bit_errors(rate, p_fault) == twin.sample_bit_errors(
            rate, p_fault
        )
    elif kind == "faulty":
        assert block.faulty_flit_errors(RATE) == twin.faulty_flit_errors(RATE)
    elif kind == "take":  # somebody asks for the generator and draws k values
        theirs, ours = block.rng, twin.rng
        assert same(theirs.bit_generator.state, ours.bit_generator.state)
        assert theirs.random(op[1]).tolist() == ours.random(op[1]).tolist()
    else:
        raise AssertionError(op)


def run(ops, seed=0, multi_bit_fraction=0.35, bit_generator="pcg64"):
    block, twin = make_pair(seed, multi_bit_fraction, bit_generator)
    for op in ops:
        apply(op, block, twin)
    # Whatever happened, the streams end in step.
    assert same(block.rng.bit_generator.state, twin.rng.bit_generator.state)
    assert block.uniform() == twin.uniform()


OPS = st.one_of(
    st.tuples(st.just("uniforms"), st.integers(1, 3)),
    st.tuples(st.just("uniforms"), st.integers(UNIFORM_BLOCK - 3, UNIFORM_BLOCK + 3)),
    st.tuples(st.just("sample"), st.just(RATE), st.sampled_from([0.0, TINY, 0.5, 1.0])),
    st.tuples(st.just("sample"), st.just(0.0), st.just(0.0)),
    st.tuples(st.just("faulty")),
    st.tuples(st.just("take"), st.integers(0, 5)),
)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(OPS, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    multi_bit_fraction=st.sampled_from([0.0, 0.35, 1.0]),
)
def test_block_sampler_is_indistinguishable_from_the_scalar_twin(
    ops, seed, multi_bit_fraction
):
    run(ops, seed, multi_bit_fraction)


FAULT = ("sample", RATE, 1.0)  # p = 1: stage 1 always says faulty

#: The block's edges, pinned (sampling may miss them).
EDGE_CASES = {
    "fault on draw 256": [("uniforms", UNIFORM_BLOCK - 1), FAULT, ("uniforms", 3)],
    "fault on draw 257": [("uniforms", UNIFORM_BLOCK), FAULT, ("uniforms", 3)],
    "fault on draw 1": [FAULT, FAULT, ("uniforms", 3)],
    "two fills without a fault": [("uniforms", 2 * UNIFORM_BLOCK + 7), ("take", 2)],
    "hand-back right after a fill": [("uniforms", UNIFORM_BLOCK + 1), ("take", 2)],
    "hand-back before any fill": [("take", 3), ("uniforms", 2)],
    "hand-back of a spent block": [("uniforms", UNIFORM_BLOCK), ("take", 1)],
    "a taker who draws nothing": [("uniforms", 5), ("take", 0), ("uniforms", 5)],
    "back-to-back hand-backs": [("uniforms", 5), ("take", 1), ("take", 1), FAULT],
    "faults on both sides of a fill": [
        ("uniforms", UNIFORM_BLOCK - 2), FAULT, ("uniforms", UNIFORM_BLOCK), FAULT,
        ("faulty",), ("uniforms", 2),
    ],
}


@pytest.mark.parametrize("bit_generator", sorted(BIT_GENERATORS))
@pytest.mark.parametrize("multi_bit_fraction", [0.0, 0.35])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_block_edges(case, multi_bit_fraction, bit_generator):
    run(EDGE_CASES[case], seed=11, multi_bit_fraction=multi_bit_fraction,
        bit_generator=bit_generator)


def test_one_generator_call_per_block():
    """Between hand-backs the generator is touched once per block: the
    state moves at a fill and nowhere else."""
    block, _ = make_pair(3, 0.0)
    raw = block._rng.bit_generator  # not `.rng`: that would hand it back
    moves = 0
    state = raw.state
    for _ in range(3 * UNIFORM_BLOCK):
        block.uniform()
        if raw.state != state:
            moves += 1
            state = raw.state
    assert moves == 3
