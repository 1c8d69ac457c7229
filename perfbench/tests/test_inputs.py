"""Tamper controls: the seeded stream is reproducible, and every
mutation the tamperer can make is rejected by the validator."""

import numpy as np
import pytest

import inputs
from inputs import TAMPER_KINDS, Tamper
from pohst.partition import (
    build_good_partition,
    certificate_from_json,
    certificate_to_json,
    validate_partition,
)


def test_stream_is_a_function_of_the_seed():
    a = inputs.certify_stream(7)
    assert a == inputs.certify_stream(7)
    assert a != inputs.certify_stream(8)


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_every_seed_gets_the_same_size_mix_and_tamper_share(seed):
    stream = inputs.certify_stream(seed)
    assert len(stream) >= 200
    assert sorted(len(op.pattern) for op in stream) == sorted(
        list(inputs.CERT_SIZES) * inputs.CERT_COPIES)
    tampered = [op for op in stream if op.tamper is not None]
    assert len(tampered) == len(stream) // inputs.TAMPER_EVERY
    assert all(op.tamper.kind in TAMPER_KINDS for op in tampered)


def small_certificates():
    rng = np.random.default_rng(0)
    for n in range(4, 17):
        for _ in range(4):
            pattern = tuple(int(s) for s in rng.choice((-1, 1), size=n))
            if 1 in pattern:  # the all-negative pattern has no blocks
                yield certificate_to_json(build_good_partition(pattern))


@pytest.mark.parametrize("kind", TAMPER_KINDS)
def test_every_mutation_kind_is_rejected(kind):
    applied = 0
    for text in small_certificates():
        for u_block in np.linspace(0.0, 0.999, 7):
            for u_member in (0.0, 0.3, 0.6, 0.99):
                for shift in (-1, 1):
                    bad, done = inputs.tamper(text, Tamper(kind, u_block, u_member, shift))
                    assert bad != text
                    assert not validate_partition(certificate_from_json(bad)), (kind, text)
                    applied += done == kind
    assert applied > 0


def test_default_stream_mutations_are_fixed_and_rejected():
    stream = inputs.certify_stream(inputs.DEFAULT_SEED)
    kinds = set()
    for op in stream:
        if op.tamper is None:
            continue
        text = certificate_to_json(build_good_partition(op.pattern))
        bad, kind = inputs.tamper(text, op.tamper)
        assert (bad, kind) == inputs.tamper(text, op.tamper)
        assert not validate_partition(certificate_from_json(bad))
        kinds.add(kind)
    assert kinds == set(TAMPER_KINDS)


def test_sample_rows_match_the_sampling_stream():
    from pohst.search import _sample_batches

    ours = list(inputs.sample_rows(5, 45_000, seed=3))
    theirs = [X for _, X in _sample_batches(5, 45_000, 3)]
    assert len(ours) == len(theirs)
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
