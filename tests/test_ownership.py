"""One copy rule: a public constructor copies what its caller hands in, and keeps what eblab made.

Each public constructor of hilbert and channels copies the arrays it is
handed, once, and freezes only its copy: the caller's arrays stay
writeable, and writing into them afterwards changes none of the object's
entries, factors or arrays. A caller-built SectorFactor is copied like an
array. The arrays eblab makes itself (from_factors' Khatri-Rao products, a
state's Hermitian part, a block channel's stacked matrix) are kept without
a copy, so the traced peaks below hold each of them once.
"""

import tracemalloc

import numpy as np
import pytest

from eblab import (
    ChannelBlocks,
    HolevoForm,
    MatrixOperator,
    ModeWindow,
    ProductWindow,
    PureVector,
    RotationChannel,
    SeparableChoiDecomposition,
    StateOperator,
    channel_blocks,
    choi,
    factored_channel,
    factored_operator,
    factored_state,
    holevo_channel,
    holevo_form,
    phi_profile,
    separable_choi_from_holevo,
)
from eblab.hilbert import SectorFactor
from conftest import random_density, same_bits

WINDOW = ModeWindow.symmetric(1)
PAIR = ProductWindow(WINDOW, WINDOW)


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def unit_columns(rng, rows, columns):
    v = complex_normal(rng, rows, columns)
    return v / np.linalg.norm(v, axis=0)


def sector_arrays(rng):
    """(offset, u, v) of a unit-norm product factor u x v on PAIR, one column per total charge."""
    u, v = unit_columns(rng, 3, 1)[:, 0], unit_columns(rng, 3, 1)[:, 0]
    return [np.array([0, 1, 2]), u, v]


def sectors(offset, u, v):
    return SectorFactor(offset, u, v, -2)


def decomposition_arrays(rng):
    """A Choi target and the writeable (weights, lefts, rights) of its known decomposition."""
    form = holevo_form(rotation_channel(rng))
    target = choi(holevo_channel(form), StateOperator(WINDOW, random_density(rng, 3)))
    found = separable_choi_from_holevo(form, target)
    return target, [np.array(found.weights), np.array(found.lefts), np.array(found.rights)]


def readouts(obj):
    """Every array an object shows: entries, factors, sector arrays, vectors, nested objects."""
    if isinstance(obj, MatrixOperator):
        found = [obj.entries] + ([] if obj.factor is None else [obj.factor])
        return found + ([] if obj.sectors is None else [obj.sectors.offset, obj.sectors.u,
                                                          obj.sectors.v])
    if isinstance(obj, PureVector):
        return [obj.amplitudes]
    if isinstance(obj, ChannelBlocks):
        return [obj.blocks] + readouts(obj.stacked) + readouts(obj.transposed)
    if isinstance(obj, HolevoForm):
        return [obj.inputs, obj.outputs] + [a for pair in obj.atoms for op in pair
                                            for a in readouts(op)]
    return [obj.weights, obj.lefts, obj.rights] + readouts(obj.reconstruction())


def rotation_channel(rng):
    return RotationChannel(PureVector(WINDOW, complex_normal(rng, 3)))


def rotation_sectors(rng):
    """The first charge and the writeable (offset, u, v) of a rotation channel's sector factor."""
    x = factored_channel(rotation_channel(rng)).stacked.sectors
    return x.first, [np.array(a) for a in (x.offset, x.u, x.v)]


# (name, arrays(rng) -> (context, caller's arrays), build(context, *arrays))
CASES = [
    ("MatrixOperator", lambda rng: (None, [complex_normal(rng, 3, 3)]),
     lambda _, m: MatrixOperator(WINDOW, m)),
    ("StateOperator", lambda rng: (None, [random_density(rng, 3)]),
     lambda _, m: StateOperator(WINDOW, m)),
    ("PureVector", lambda rng: (None, [complex_normal(rng, 3)]),
     lambda _, v: PureVector(WINDOW, v)),
    ("factored_operator of an array", lambda rng: (None, [complex_normal(rng, 3, 2)]),
     lambda _, x: factored_operator(WINDOW, x)),
    ("factored_state of an array", lambda rng: (None, [unit_columns(rng, 3, 1)]),
     lambda _, x: factored_state(WINDOW, x)),
    ("factored_operator of a SectorFactor", lambda rng: (None, sector_arrays(rng)),
     lambda _, *arrays: factored_operator(PAIR, sectors(*arrays))),
    ("factored_state of a SectorFactor", lambda rng: (None, sector_arrays(rng)),
     lambda _, *arrays: factored_state(PAIR, sectors(*arrays))),
    ("ChannelBlocks",
     lambda rng: (None, [np.array(channel_blocks(rotation_channel(rng)).blocks)]),
     lambda _, b: ChannelBlocks(WINDOW, WINDOW, b)),
    # from one input mode the stacked matrix is the blocks' own layout, so no reshape copies
    ("ChannelBlocks from one mode", lambda rng: (None, [random_density(rng, 3)[None, None]]),
     lambda _, b: ChannelBlocks(ModeWindow(0, 0), WINDOW, b)),
    ("from_factors of a pair", lambda rng: (None, [np.eye(3, dtype=complex),
                                                   unit_columns(rng, 3, 3)]),
     lambda _, a, b: ChannelBlocks.from_factors(WINDOW, WINDOW, (a, b))),
    ("from_factors of a SectorFactor", rotation_sectors,
     lambda first, *arrays: ChannelBlocks.from_factors(WINDOW, WINDOW,
                                                       SectorFactor(*arrays, first))),
    ("HolevoForm.rank_one",
     lambda rng: (None, [np.eye(3, dtype=complex), unit_columns(rng, 3, 3)]),
     lambda _, f, g: HolevoForm.rank_one(WINDOW, WINDOW, f, g)),
    ("SeparableChoiDecomposition", decomposition_arrays,
     lambda target, *arrays: SeparableChoiDecomposition(target, *arrays)),
]


@pytest.mark.parametrize("arrays, build", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_a_constructor_copies_the_callers_arrays_once_and_leaves_them_writeable(arrays, build):
    context, given = arrays(np.random.default_rng(42))
    expected = readouts(build(context, *(a.copy() for a in given)))
    built = build(context, *given)
    assert all(a.flags.writeable for a in given)
    for a in given:
        a += 1  # every entry of every array handed in changes
    found = readouts(built)
    assert len(found) == len(expected)
    assert all(same_bits(x, y) for x, y in zip(found, expected))


def traced_peak(call):
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_holevo_channel_holds_its_two_factors_and_no_copy_of_them():
    # X = d_in d_out n complex entries, for the form's n Kraus pairs: X and X' make 2 X;
    # from_factors once held each beside its copy, a 4.1 X peak
    peak = traced_peak(lambda: holevo_channel(holevo_form(
        RotationChannel(phi_profile("geometric(0.7)", 16)))))
    x = 33 * 33 * RotationChannel(phi_profile("geometric(0.7)", 16)).quadrature_nodes * 16
    assert peak <= 2.2 * x, peak / x


def test_a_dense_state_and_a_block_channel_keep_one_copy_of_their_input():
    # StateOperator copied its Hermitian part a second time, and ChannelBlocks its
    # stacked matrix a third time: both peaked at 3.04 copies of the input; the
    # partial transpose copied the array it had just made, a 2.0 peak
    m = random_density(np.random.default_rng(7), 441)
    peak = traced_peak(lambda: StateOperator(ModeWindow.symmetric(220), m))
    assert peak <= 2.2 * m.nbytes, peak / m.nbytes
    channel = RotationChannel(phi_profile("geometric(0.7)", 10))
    blocks = channel_blocks(channel).blocks.copy()
    built = []
    peak = traced_peak(lambda: built.append(ChannelBlocks(channel.phi.window,
                                                          channel.phi.window, blocks)))
    assert peak <= 2.2 * blocks.nbytes, peak / blocks.nbytes
    peak = traced_peak(lambda: built[0].transposed)
    assert peak <= 1.2 * blocks.nbytes, peak / blocks.nbytes
