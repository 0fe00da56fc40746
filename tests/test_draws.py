"""Per-trial draws: seeds, channels, offline coefficients and messages.

A batch derives its generators from one vectorized pass of numpy's
SeedSequence hash and draws its channels as one stack.  Every trial must
still get exactly the numbers of the per-trial reference: numpy's own
``SeedSequence((base_seed, trial, attempt)).spawn(3)`` children, one
channel per generator, complex Gaussians
from separate real and imaginary draws, and offline coefficients laid out
here from those draws, as each scheme reads them, not by the base
``draw_offline``'s table.
"""

import numpy as np
import pytest

import alignsim.evaluate
from alignsim.channel import generate_channel
from alignsim.evaluate import TRIAL_BATCH, _draw_batch
from alignsim.numerics import (
    sample_complex_gaussian, seeded_generators, spawn_states,
)
from alignsim.registry import SCHEMES, get_scheme

ALL_SCHEME_IDS = sorted(SCHEMES)


def reference_rngs(base_seed, trial, attempt):
    seq = np.random.SeedSequence((base_seed, trial, attempt))
    return [np.random.default_rng(child) for child in seq.spawn(3)]


def reference_gaussian(rng, count):
    re = rng.standard_normal(count)
    im = rng.standard_normal(count)
    return (re + 1j * im) / np.sqrt(2.0)


def reference_channel(num_rx, num_tx, num_slots, rng):
    """One channel, every coefficient as drawn."""
    shape = (num_rx, num_tx, num_slots)
    return reference_gaussian(rng, int(np.prod(shape))).reshape(shape)


def _spawned_generators(entropies, children):
    """The generators of :func:`spawn_states`, one list of ``children`` per entropy."""
    return [seeded_generators(row) for row in spawn_states(entropies, children)]


def _pcg_states(generators):
    return [
        (g.bit_generator.state["state"]["state"], g.bit_generator.state["state"]["inc"])
        for g in generators
    ]


def _reference_states(base_seed, trial, attempt):
    seq = np.random.SeedSequence((base_seed, trial, attempt))
    return [
        (state["state"]["state"], state["state"]["inc"])
        for state in (np.random.PCG64(child).state for child in seq.spawn(3))
    ]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- seeds --------------------------------------------------------------------


@pytest.mark.parametrize("attempt", [0, 1, 9])
@pytest.mark.parametrize("base_seed", [0, 1, 2**32 - 1, 2**32, 10**30])
def test_batched_seeds_match_seed_sequence(base_seed, attempt):
    # trials 2**32 - 1 and 2**32 split into one and two words, so this batch
    # mixes entropy lengths
    trials = list(range(201)) + [2**32 - 1, 2**32]
    generators = _spawned_generators([(base_seed, t, attempt) for t in trials], 3)
    assert len(generators) == len(trials)
    for trial, children in zip(trials, generators):
        assert _pcg_states(children) == _reference_states(base_seed, trial, attempt)


@pytest.mark.parametrize("entropy", [(), (5,), (1, 2), (7, 8, 9, 10), (2**200, 3, 4, 5, 6)])
@pytest.mark.parametrize("children", [1, 3, 5])
def test_spawn_generators_on_any_entropy_length(entropy, children):
    [generators] = _spawned_generators([entropy], children)
    reference = [np.random.PCG64(c) for c in np.random.SeedSequence(entropy).spawn(children)]
    assert _pcg_states(generators) == [
        (r.state["state"]["state"], r.state["state"]["inc"]) for r in reference
    ]


@pytest.mark.parametrize("base_seed", [2**32 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1])
def test_batched_seeds_on_either_side_of_one_word(base_seed):
    # tuples of one-word values are split on arrays; a wider value goes
    # through SeedSequence's own word split
    generators = _spawned_generators([(base_seed, t, 0) for t in range(5)], 3)
    for trial, children in enumerate(generators):
        assert _pcg_states(children) == _reference_states(base_seed, trial, 0)


def test_spawn_generators_on_mixed_entropy_lengths():
    entropies = [(5,), (1, 2), (2**40, 3), ()]
    for entropy, generators in zip(entropies, _spawned_generators(entropies, 2)):
        reference = [np.random.PCG64(c) for c in np.random.SeedSequence(entropy).spawn(2)]
        assert _pcg_states(generators) == [
            (r.state["state"]["state"], r.state["state"]["inc"]) for r in reference
        ]


def test_single_trial_rngs_draw_like_the_reference():
    [got_rngs] = _spawned_generators([(17, 42, 3)], 3)
    for got, want in zip(got_rngs, reference_rngs(17, 42, 3)):
        assert _same_bits(got.standard_normal(9), want.standard_normal(9))


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        spawn_states([(0, -1, 0)], 3)


def test_the_hash_constants_are_built_once_and_read_only():
    # every batch of one entropy length shares its constant chains
    from alignsim.numerics import _const_chain

    _const_chain.cache_clear()
    first = spawn_states([(3, 4, 5)], 3)
    assert _const_chain.cache_info().misses == 2
    assert np.array_equal(spawn_states([(3, 4, 5), (6, 7, 8)], 3)[:1], first)
    assert _const_chain.cache_info().misses == 2
    assert not _const_chain(1, 3, 4).flags.writeable


# -- complex Gaussians ----------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 12, 27, 64, 1000])
def test_complex_gaussian_matches_two_draws(count):
    got = sample_complex_gaussian([np.random.default_rng(count)], count)
    assert got.shape == (count, 1)
    assert _same_bits(got[:, 0], reference_gaussian(np.random.default_rng(count), count))


# -- channels -------------------------------------------------------------------


def test_channel_stack_matches_per_trial_channels():
    rngs = [rng for rng, _, _ in _spawned_generators([(8, t, 0) for t in range(40)], 3)]
    h = generate_channel(2, 2, 7, rngs)
    assert h.shape == (2, 2, 7, 40)
    for t in range(40):
        rng, _, _ = reference_rngs(8, t, 0)
        assert _same_bits(h[..., t], reference_channel(2, 2, 7, rng))


# -- whole batches ----------------------------------------------------------------


def _reference_offline(scheme_id, rng):
    """One trial's offline coefficients, drawn as each scheme's offline stream lays them out."""
    if scheme_id == "x_retro_csit":
        # phase1[k, j, i, n]: transmitter j's coefficient of receiver k's
        # symbol i at slot n, unit norm per (transmitter, slot) over (k, i)
        phase1 = reference_gaussian(rng, 24).reshape(2, 2, 2, 3)
        over_k_i = np.moveaxis(phase1, 2, 1)
        power = sum(
            over_k_i[k, i].real**2 + over_k_i[k, i].imag**2 for k in range(2) for i in range(2)
        )
        phase2 = reference_gaussian(rng, 16).reshape(2, 2, 4)
        return {"phase1": phase1 / np.sqrt(power)[None, :, None], "phase2": phase2}
    if scheme_id == "ic3_retro_csit":
        # phase1[k, i, n]: transmitter k, symbol i, slot n, unit norm per (k, n)
        phase1 = reference_gaussian(rng, 45).reshape(3, 3, 5)
        power = sum(phase1[:, i].real**2 + phase1[:, i].imag**2 for i in range(3))
        return {"phase1": phase1 / np.sqrt(power)[:, None]}
    return None


def _reference_draw(scheme, base_seed, trial, attempt):
    rng_channel, rng_offline, rng_msgs = reference_rngs(base_seed, trial, attempt)
    h = reference_channel(scheme.num_rx, scheme.num_tx, scheme.num_slots, rng_channel)
    offline = _reference_offline(scheme.scheme_id, rng_offline)
    return h, offline, reference_gaussian(rng_msgs, scheme.num_symbols)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_batch_draw_matches_per_trial_reference(scheme_id):
    scheme = get_scheme(scheme_id)
    draws = [(t, 0) for t in range(TRIAL_BATCH)] + [(3, 1), (70, 9)]
    h, offline, msgs = _draw_batch(scheme, 3, draws)
    assert h.shape == (scheme.num_rx, scheme.num_tx, scheme.num_slots, len(draws))
    assert msgs.shape == (scheme.num_symbols, len(draws))
    for t, (trial, attempt) in enumerate(draws):
        ref_h, ref_offline, ref_msgs = _reference_draw(scheme, 3, trial, attempt)
        assert _same_bits(h[..., t], ref_h)
        assert _same_bits(msgs[:, t], ref_msgs)
        if ref_offline is None:
            assert offline is None
            continue
        # the base table, as IC3's (3, 3, 5) or X's (2, 2, 2, 3), and the extra
        # coefficients, X's (2, 2, 4) phase-2 weights and none for IC3
        phase1 = ref_offline["phase1"]
        phase2 = ref_offline.get("phase2", np.empty(0, dtype=np.complex128))
        assert _same_bits(offline.table[..., t].reshape(phase1.shape), phase1)
        assert _same_bits(offline.extra[..., t].reshape(phase2.shape), phase2)


class _CountingGenerator:
    """A generator that counts its ``standard_normal`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self.rng.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_each_generator_makes_one_normal_call_per_draw(scheme_id, monkeypatch):
    streams = []

    def counting_generators(states):
        streams.append([_CountingGenerator(rng) for rng in seeded_generators(states)])
        return streams[-1]

    monkeypatch.setattr(alignsim.evaluate, "seeded_generators", counting_generators)
    scheme = get_scheme(scheme_id)
    # at seed 0, ic3_output_fb's draw of trial 3534 and ic3_retro_csit's of
    # 10009 hold a coefficient below 1e-3 in magnitude, which is kept as drawn
    draws = [(t, 0) for t in range(40)] + [(3534, 0), (10009, 0)]
    _, offline, _ = _draw_batch(scheme, 0, draws)
    # the channel stream first, then the offline one where the scheme has
    # offline coefficients: the retrospective schemes' rows and weights
    has_offline = scheme_id in ("ic3_retro_csit", "x_retro_csit")
    assert (offline is not None) == has_offline
    assert len(streams) == (3 if has_offline else 2)
    for stream in streams:
        assert [rng.calls for rng in stream] == [1] * len(draws)


# -- stacked scheme draws ----------------------------------------------------------


@pytest.mark.parametrize("scheme_id", ALL_SCHEME_IDS)
def test_stacked_scheme_draws_equal_one_generator_draws(scheme_id):
    scheme = get_scheme(scheme_id)
    seeds = range(6)
    offline = scheme.draw_offline([np.random.default_rng(s) for s in seeds])
    msgs = scheme.draw_messages([np.random.default_rng(s) for s in seeds])
    assert msgs.shape == (scheme.num_symbols, len(seeds))
    for t, seed in enumerate(seeds):
        one_msgs = scheme.draw_messages([np.random.default_rng(seed)])
        assert _same_bits(msgs[:, t : t + 1], one_msgs)
        one = scheme.draw_offline([np.random.default_rng(seed)])
        if one is None:
            assert offline is None
            continue
        for name in one._fields:
            assert _same_bits(getattr(offline, name)[..., t : t + 1], getattr(one, name))


def test_phase1_coefficients_have_unit_norm_per_transmitter_and_slot():
    rngs = [np.random.default_rng(s) for s in range(200)]
    # IC3's table as [k, i, n, t]: transmitter k, symbol i, slot n
    ic3 = get_scheme("ic3_retro_csit").draw_offline(rngs).table.reshape(3, 3, 5, -1)
    norms = np.sqrt(np.sum(np.abs(ic3) ** 2, axis=1))
    assert np.max(np.abs(norms - 1.0)) <= 4e-16
    # X's table as [k, j, i, n, t]: transmitter j, slot n, over (receiver k, symbol i)
    x = get_scheme("x_retro_csit").draw_offline(rngs).table.reshape(2, 2, 2, 3, -1)
    norms = np.sqrt(np.sum(np.abs(x) ** 2, axis=(0, 2)))
    assert np.max(np.abs(norms - 1.0)) <= 4e-16
