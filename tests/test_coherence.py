"""Which channel variation each scheme needs: coherence patterns as test inputs.

The paper sets retrospective alignment under delayed CSIT beside blind
alignment under staggered block fading, where a scheme is built on which
slots share a channel.  Here each scheme runs on its own seeded draws with a
pattern laid over the channel (:func:`_oracles.slot_pattern`): the slots of
a group share one channel.  The block runs through ``_run_block``, the
run's own path from a block to its outcomes, and either every draw decodes
exactly or the decoder finds every draw ``Singular``.  Where a retrospective
scheme fails, its interference still fills its design rank, but the desired
columns lose their own dimensions; that split of ranks is not asserted here.
"""

import numpy as np
import pytest

from alignsim.evaluate import _draw_batch, _run_block
from alignsim.numerics import Singular, Tolerances
from alignsim.registry import SCHEMES, get_scheme

from _oracles import slot_pattern

#: Draws per pattern, each at attempt 0 of seed 0.
DRAWS = 64

#: (scheme, groups of slots that share a channel, whether every draw decodes), by pattern.
PATTERNS = [
    # the output-feedback schemes need no channel variation at all
    pytest.param("bc_mat", [range(3)], True, id="bc_mat-one_channel"),
    pytest.param("ic3_output_fb", [range(5)], True, id="ic3_output_fb-one_channel"),
    pytest.param("x_output_fb", [range(3)], True, id="x_output_fb-one_channel"),
    # x_retro_csit needs its three phase-1 slots to differ; phase 2 may repeat
    pytest.param("x_retro_csit", [range(7)], False, id="x_retro_csit-one_channel"),
    pytest.param("x_retro_csit", [range(3)], False, id="x_retro_csit-phase_1_constant"),
    pytest.param("x_retro_csit", [range(3, 7)], True, id="x_retro_csit-phase_2_constant"),
    pytest.param("x_retro_csit", [(3, 4), (5, 6)], True, id="x_retro_csit-phase_2_in_pairs"),
    pytest.param("x_retro_csit", [(0, 3)], True, id="x_retro_csit-slot_3_reuses_slot_0"),
    # ic3_retro_csit fails on every repeat tried but phase 2 reusing slots 0-2
    pytest.param("ic3_retro_csit", [range(8)], False, id="ic3_retro_csit-one_channel"),
    pytest.param("ic3_retro_csit", [range(5)], False, id="ic3_retro_csit-phase_1_constant"),
    pytest.param("ic3_retro_csit", [range(5, 8)], False, id="ic3_retro_csit-phase_2_constant"),
    pytest.param(
        "ic3_retro_csit", [(0, 1), (2, 3), (4, 5), (6, 7)], False, id="ic3_retro_csit-slots_in_pairs"
    ),
    pytest.param(
        "ic3_retro_csit", [(0, 5), (1, 6), (2, 7)], True, id="ic3_retro_csit-phase_2_reuses_slots_0_to_2"
    ),
]


def _assert_outcome(scheme, h, offline, msgs, decodes, collect_weights):
    """Every draw of the block decodes exactly, or the decoder names every draw singular."""
    if decodes:
        outcomes = _run_block(scheme, h, offline, msgs, Tolerances(), collect_weights)
        assert outcomes.decode_ok.all()
        return
    with pytest.raises(Singular) as raised:
        _run_block(scheme, h, offline, msgs, Tolerances(), collect_weights)
    assert sorted(raised.value.draws) == list(range(DRAWS))


def _drawn(scheme):
    """Channel, offline coefficients and messages of the scheme's ``DRAWS`` seeded draws."""
    return _draw_batch(scheme, 0, [(t, 0) for t in range(DRAWS)])


@pytest.mark.parametrize("collect_weights", [False, True], ids=["verify", "sweep"])
@pytest.mark.parametrize("scheme_id, groups, decodes", PATTERNS)
def test_a_slot_pattern_decodes_every_draw_or_none(scheme_id, groups, decodes, collect_weights):
    scheme = get_scheme(scheme_id)
    assert all(group[-1] < scheme.num_slots for group in groups)
    h, offline, msgs = _drawn(scheme)
    _assert_outcome(scheme, slot_pattern(h, groups), offline, msgs, decodes, collect_weights)


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_a_real_channel_decodes_every_draw(scheme_id):
    # no scheme needs the channel's phases: real i.i.d. gains suffice
    scheme = get_scheme(scheme_id)
    h, offline, msgs = _drawn(scheme)
    _assert_outcome(scheme, h.real + 0j, offline, msgs, True, True)


@pytest.mark.parametrize("scheme_id", sorted(SCHEMES))
def test_a_rank_one_channel_per_slot_is_singular_on_every_draw(scheme_id):
    # h[rx, tx] = a[rx] b[tx] in every slot: one receive direction per slot,
    # too few for any scheme
    scheme = get_scheme(scheme_id)
    h, offline, msgs = _drawn(scheme)
    rank_one = h[:, :1] * h[:1, :] / h[:1, :1]
    assert np.linalg.matrix_rank(np.moveaxis(rank_one, (0, 1), (-2, -1))).max() == 1
    _assert_outcome(scheme, rank_one, offline, msgs, False, True)
