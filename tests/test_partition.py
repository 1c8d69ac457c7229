"""Good partitions: the builder, the independent validator, the
impossible-configuration catalogue, audits, parity, the ideal case,
domination, and certificate serialization."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pohst.partition import (
    BuildStep,
    CertificateFormatError,
    ConstructionFailure,
    GoodPartition,
    PartitionBlock,
    audit_build,
    build_good_partition,
    certificate_from_json,
    certificate_payload,
    certificate_to_json,
    check_impossible_configurations,
    classify,
    domination_check,
    horizontal_list,
    ideal_case_factorization,
    parity_counts,
    prec_key,
    prec_less,
    sign_rectangle_relation,
    validate_partition,
    vertical_list,
)
from pohst.triangle import (
    SignedTerm,
    TermIndex,
    eval_f,
    eval_term,
    noncanonical_set,
    product_sign,
    term_indices,
)


def all_patterns(n):
    return itertools.product((1, -1), repeat=n)


def block_of(idx, pattern, kind=None, prov="initial"):
    """Assemble a block whose member signs are the true product signs."""
    mem = tuple(SignedTerm(TermIndex(*t), product_sign(pattern, t)) for t in idx)
    kind = kind or {1: "singleton", 2: "doubleton", 4: "quadrupleton"}[len(idx)]
    return PartitionBlock(kind, mem, prov)


def state_of(pattern, blocks, trace=()):
    return GoodPartition(len(pattern), tuple(pattern), tuple(blocks), tuple(trace))


# ---------------------------------------------------------------------------
# prec order


@pytest.mark.parametrize("a,b,expected", [
    ((1, 1), (2, 2), True),
    ((2, 5), (1, 5), True),
    ((1, 5), (5, 6), True),
    ((2, 2), (1, 1), False),
    ((1, 5), (2, 5), False),
])
def test_prec_less_frozen(a, b, expected):
    assert prec_less(TermIndex(*a), TermIndex(*b)) is expected


@given(st.tuples(st.integers(1, 9), st.integers(1, 9)),
       st.tuples(st.integers(1, 9), st.integers(1, 9)))
def test_prec_total_order(a, b):
    a, b = TermIndex(*a), TermIndex(*b)
    # trichotomy, antisymmetry, and agreement with the sort key
    assert (prec_less(a, b) + prec_less(b, a) + (a == b)) == 1
    assert prec_less(a, b) == (prec_key(a) < prec_key(b))


def test_prec_transitive_exhaustive():
    pts = [TermIndex(i, j) for j in range(1, 5) for i in range(1, j + 1)]
    for a, b, c in itertools.product(pts, repeat=3):
        if prec_less(a, b) and prec_less(b, c):
            assert prec_less(a, c)


# ---------------------------------------------------------------------------
# horizontal / vertical lists


def test_horizontal_list_frozen():
    J = noncanonical_set((-1, 1))
    got = horizontal_list(TermIndex(1, 2), J)
    assert [(tuple(t.index), t.sign) for t in got] == [((1, 2), -1), ((2, 2), 1)]
    J = noncanonical_set((1, 1))
    got = horizontal_list(TermIndex(1, 1), J)
    assert [(tuple(t.index), t.sign) for t in got] == [((1, 1), 1)]


def test_vertical_list_frozen():
    J = noncanonical_set((-1, 1))
    got = vertical_list(TermIndex(1, 2), J)
    assert [(tuple(t.index), t.sign) for t in got] == [((1, 2), -1)]
    # (1,1) is a member, (1,2) is not
    J = noncanonical_set((1, 1, 1, 1))
    got = vertical_list(TermIndex(1, 2), J)
    assert [(tuple(t.index), t.sign) for t in got] == [((1, 1), 1)]


# ---------------------------------------------------------------------------
# builder


def test_build_single_negative():
    gp = build_good_partition((-1, 1))
    assert len(gp.blocks) == 1
    b = gp.blocks[0]
    assert b.kind == "doubleton" and b.provenance == "case1"
    assert [tuple(m.index) for m in b.members] == [(2, 2), (1, 2)]
    assert [m.sign for m in b.members] == [1, -1]
    assert len(gp.trace) == 1 and gp.trace[0].case == "case1"


def test_build_all_negative_is_empty():
    for n in (1, 3, 6):
        gp = build_good_partition((-1,) * n)
        assert gp.blocks == () and gp.trace == ()


def test_build_all_positive_is_singletons():
    gp = build_good_partition((1, 1))
    assert [b.kind for b in gp.blocks] == ["singleton", "singleton"]
    assert [b.provenance for b in gp.blocks] == ["initial", "initial"]
    assert [tuple(b.members[0].index) for b in gp.blocks] == [(1, 1), (2, 2)]


def test_build_exercises_all_three_cases():
    """(-1,-1,+1,-1) hits case 1, case 2 with operation 2, and case 3."""
    gp = build_good_partition((-1, -1, 1, -1))
    got = [(b.kind, tuple(tuple(m.index) for m in b.members), b.provenance)
           for b in gp.blocks]
    assert got == [
        ("quadrupleton", ((3, 3), (2, 3), (3, 4), (2, 4)), "case2-op2"),
        ("doubleton", ((1, 3), (1, 4)), "case3-op1"),
    ]
    assert [(s.k, tuple(s.pair), s.case, s.operation) for s in gp.trace] == [
        (1, (2, 3), "case1", 1), (2, (3, 4), "case2", 2), (3, (1, 4), "case3", 1)]


def test_build_case3_op2_frozen():
    gp = build_good_partition((-1, 1, 1, 1, -1))
    quad = [b for b in gp.blocks if b.kind == "quadrupleton"]
    assert len(quad) == 1 and quad[0].provenance == "case3-op2"
    assert [tuple(m.index) for m in quad[0].members] == [
        (2, 4), (1, 4), (2, 5), (1, 5)]


def test_build_covers_every_provenance():
    seen = set()
    for n in range(1, 6):
        for pat in all_patterns(n):
            for b in build_good_partition(pat).blocks:
                seen.add(b.provenance)
    assert seen == {"initial", "case1", "case2-op1", "case2-op2",
                    "case3-op1", "case3-op2"}


def test_build_rejects_bad_pattern():
    with pytest.raises(ValueError):
        build_good_partition((0, 1))


def test_trace_steps_grow_cover_by_one():
    for pat in all_patterns(6):
        gp = build_good_partition(pat)
        for s in gp.trace:
            consumed = sum(len(b.members) for b in s.consumed)
            assert len(s.created.members) == consumed + 1
            assert s.operation == (1 if len(s.created.members) == 2 else 2)


def test_trace_absorbs_negatives_in_prec_order():
    for pat in all_patterns(6):
        gp = build_good_partition(pat)
        negs = sorted(noncanonical_set(pat).negatives, key=prec_key)
        assert [TermIndex(*s.pair) for s in gp.trace] == negs


def test_case1_failures_end_vertically():
    """A pair absorbed by case 1 ends in nhdoub, any other in nvdoub."""
    for n in range(1, 7):
        for pat in all_patterns(n):
            gp = build_good_partition(pat)
            for s in gp.trace:
                tag = classify(s.pair, gp).tag
                assert tag == ("nhdoub" if s.case == "case1" else "nvdoub")


# ---------------------------------------------------------------------------
# classify


def test_classify_frozen():
    gp = build_good_partition((-1, 1))
    assert classify(TermIndex(2, 2), gp).tag == "hdoub"
    assert classify(TermIndex(1, 2), gp).tag == "nhdoub"
    assert classify(TermIndex(1, 2), gp).partner == (2, 2)
    assert classify(TermIndex(1, 1), gp).tag == "unassigned"


def test_classify_quadrupleton_corners():
    gp = build_good_partition((-1, -1, 1, -1))
    assert classify(TermIndex(3, 3), gp).tag == "iquad"
    assert classify(TermIndex(2, 4), gp).tag == "tquad"
    assert classify(TermIndex(2, 3), gp).tag == "nhdoub"
    assert classify(TermIndex(3, 4), gp).tag == "nvdoub"
    assert classify(TermIndex(1, 3), gp).tag == "vdoub"
    assert classify(TermIndex(1, 4), gp).tag == "nvdoub"


def test_classify_rejects_malformed_block():
    pat = (1, 1, 1, 1, 1, -1)
    gp = state_of(pat, [block_of([(3, 3), (1, 6)], pat)])  # diagonal pair
    with pytest.raises(ValueError):
        classify(TermIndex(3, 3), gp)


# ---------------------------------------------------------------------------
# validator


def test_validator_accepts_all_builds_small_n():
    for n in range(1, 7):
        for pat in all_patterns(n):
            gp = build_good_partition(pat)
            assert validate_partition(gp)


def _doubleton_pattern_cert():
    return build_good_partition((-1, 1))


@pytest.mark.parametrize("mutate,reason_prefix", [
    # n disagrees with the pattern length
    (lambda gp: GoodPartition(3, gp.pattern, gp.blocks), "bad-pattern"),
    (lambda gp: GoodPartition(gp.n, (0, 1), gp.blocks), "bad-pattern"),
    # kind string unknown / inconsistent with the member count
    (lambda gp: state_of(gp.pattern, [PartitionBlock("triple", gp.blocks[0].members,
                                                     "case1")]), "bad-kind"),
    (lambda gp: state_of(gp.pattern, [PartitionBlock("singleton", gp.blocks[0].members,
                                                     "case1")]), "bad-kind"),
    # member outside the triangle
    (lambda gp: state_of(gp.pattern, [PartitionBlock("doubleton", (
        gp.blocks[0].members[0],
        SignedTerm(TermIndex(2, 1), -1)), "case1")]), "bad-index"),
    # member that is canonical for this pattern
    (lambda gp: state_of(gp.pattern, [PartitionBlock("doubleton", (
        gp.blocks[0].members[0],
        SignedTerm(TermIndex(1, 1), -1)), "case1")]), "not-noncanonical"),
    # stored sign contradicts the pattern
    (lambda gp: state_of(gp.pattern, [PartitionBlock("doubleton", (
        SignedTerm(TermIndex(2, 2), -1),
        gp.blocks[0].members[1]), "case1")]), "sign-mismatch"),
    # same index in two blocks
    (lambda gp: state_of(gp.pattern, list(gp.blocks) + [
        block_of([(2, 2)], gp.pattern)]), "duplicate-member"),
    # negative singleton
    (lambda gp: state_of(gp.pattern, [block_of([(2, 2)], gp.pattern),
                                      block_of([(1, 2)], gp.pattern)]),
     "bad-singleton"),
    # a block dropped entirely
    (lambda gp: state_of(gp.pattern, []), "incomplete-cover"),
])
def test_validator_rejects(mutate, reason_prefix):
    gp = mutate(_doubleton_pattern_cert())
    r = validate_partition(gp)
    assert not r and r.reason.startswith(reason_prefix)


def test_validator_rejects_large_empty_cover_quickly():
    """Rejecting an empty cover costs time linear in the certificate,
    not in n^2, and names the first missing members as before."""
    rng = np.random.default_rng(2022)
    pattern = [1] + rng.choice((-1, 1), size=2999).tolist()
    text = json.dumps({"n": 3000, "pattern": pattern, "blocks": [], "version": "1"})
    t0 = time.perf_counter()
    r = validate_partition(certificate_from_json(text))
    elapsed = time.perf_counter() - t0
    assert not r and r.reason.startswith("incomplete-cover: missing [(1, 1), ")
    assert r.reason.endswith("...")
    assert elapsed < 3.0


def test_validator_rejects_two_positive_doubleton():
    pat = (1, 1, 1, 1, 1, -1)
    gp = state_of(pat, [block_of([(1, 5), (3, 5)], pat)])
    r = validate_partition(gp)
    assert not r and r.reason.startswith("bad-doubleton")


def test_validator_rejects_diagonal_doubleton():
    pat = (1, 1, 1, 1, 1, -1)
    gp = state_of(pat, [block_of([(3, 3), (1, 6)], pat)])
    r = validate_partition(gp)
    assert not r and "left in the row or above in the column" in r.reason


def test_validator_rejects_non_rectangle_quadrupleton():
    pat = (1, 1, 1, 1, 1, -1)
    gp = state_of(pat, [block_of([(1, 1), (2, 2), (1, 3), (3, 3)], pat)])
    r = validate_partition(gp)
    assert not r and r.reason.startswith("bad-quadrupleton")


def test_validator_rejects_rectangle_with_misplaced_signs():
    # a true rectangle of J members whose negative corners sit where the
    # positive ones belong
    pat = (1, 1, 1, 1, 1, -1)
    gp = state_of(pat, [block_of([(1, 5), (3, 5), (1, 6), (3, 6)], pat)])
    r = validate_partition(gp)
    assert not r and "corner" in r.reason


# ---------------------------------------------------------------------------
# impossible configurations


def test_impossible_accepts_all_final_states():
    for n in range(1, 7):
        for pat in all_patterns(n):
            assert check_impossible_configurations(build_good_partition(pat))


def test_impossible_1_interleaved_spans():
    pat = (1, 1, -1, 1, 1, 1)
    gp = state_of(pat, [block_of([(4, 6), (1, 6)], pat),
                        block_of([(6, 6), (3, 6)], pat)])
    r = check_impossible_configurations(gp)
    assert not r and r.code == 1


def test_impossible_2_drop_inside_span():
    pat = (1, 1, 1, -1, 1, -1, -1)
    gp = state_of(pat, [block_of([(5, 7), (2, 7)], pat),
                        block_of([(4, 6), (4, 7)], pat)])
    r = check_impossible_configurations(gp)
    assert not r and r.code == 2


def test_impossible_3_negative_left_of_vdoub():
    pat = (1, -1, 1, -1)
    gp = state_of(pat, [block_of([(3, 3), (3, 4)], pat)])
    r = check_impossible_configurations(gp)
    assert not r and r.code == 3


def test_impossible_4_unequal_drops():
    pat = (1, 1, 1, 1, 1, -1)
    gp = state_of(pat, [block_of([(1, 5), (1, 6)], pat),
                        block_of([(3, 3), (3, 6)], pat)])
    r = check_impossible_configurations(gp)
    assert not r and r.code == 4


def test_impossible_5_case2_pair_left_of_nvdoub():
    pat = (1, 1, 1, 1, 1, -1)
    b1 = block_of([(1, 5), (1, 6)], pat, prov="case2-op1")
    b2 = block_of([(3, 5), (3, 6)], pat)
    step = BuildStep(1, TermIndex(1, 6), "case2", 1, (), b1)
    r = check_impossible_configurations(state_of(pat, [b1, b2], [step]))
    assert not r and r.code == 5
    # without the case-2 history the same blocks are fine
    assert check_impossible_configurations(state_of(pat, [b1, b2]))


# ---------------------------------------------------------------------------
# audit


def test_audit_accepts_all_builds_small_n():
    for n in range(1, 7):
        for pat in all_patterns(n):
            assert audit_build(build_good_partition(pat))


def test_audit_rejects_foreign_consumed_block():
    gp = build_good_partition((-1, 1))
    step = BuildStep(1, TermIndex(1, 2), "case1", 1,
                     (block_of([(1, 1)], (1, 1)),), gp.blocks[0])
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, (step,)))
    assert not r and "is not present" in r.reason


def test_audit_rejects_truncated_trace():
    gp = build_good_partition((-1, -1, 1, -1))
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, gp.trace[:-1]))
    assert not r and "steps" in r.reason


def test_audit_rejects_swapped_steps():
    gp = build_good_partition((-1, -1, 1, -1))
    s1, s2, s3 = gp.trace
    swapped = (BuildStep(1, s2.pair, s2.case, s2.operation, s2.consumed, s2.created),
               BuildStep(2, s1.pair, s1.case, s1.operation, s1.consumed, s1.created),
               s3)
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, swapped))
    assert not r and "prec order" in r.reason


def test_audit_rejects_misnumbered_trace():
    gp = build_good_partition((-1, 1))
    s = gp.trace[0]
    renum = (BuildStep(7, s.pair, s.case, s.operation, s.consumed, s.created),)
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, renum))
    assert not r and "numbered" in r.reason


def test_audit_rejects_tampered_created_block():
    gp = build_good_partition((-1, 1))
    s = gp.trace[0]
    fat = block_of([(2, 2), (1, 2)], gp.pattern, prov="case1")
    fat = PartitionBlock("doubleton", fat.members + (
        SignedTerm(TermIndex(1, 1), -1),), "case1")
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks,
                                  (BuildStep(1, s.pair, s.case, 1, s.consumed, fat),)))
    assert not r and "consumed members plus" in r.reason


def test_audit_rejects_final_mismatch():
    gp = build_good_partition((-1, 1))
    relabeled = (PartitionBlock("doubleton", gp.blocks[0].members, "case2-op1"),)
    r = audit_build(GoodPartition(gp.n, gp.pattern, relabeled, gp.trace))
    assert not r and "final state" in r.reason


# ---------------------------------------------------------------------------
# parity, rectangles, ideal case, domination


@pytest.mark.parametrize("pattern,expected", [
    ((-1, 1), (1, 1)),
    ((-1, -1), (0, 0)),
    ((1, 1, 1, -1), (2, 2)),
])
def test_parity_counts_frozen(pattern, expected):
    assert parity_counts(pattern) == expected


def test_parity_balance_even_n_odd_negatives():
    for n in (2, 4, 6, 8):
        for pat in all_patterns(n):
            if pat.count(-1) % 2 == 1:
                b_plus, b_minus = parity_counts(pat)
                assert b_plus == b_minus


def test_sign_rectangle_relation_frozen():
    assert sign_rectangle_relation((-1, 1, -1),
                                   [(2, 2), (1, 2), (2, 3), (1, 3)])
    assert sign_rectangle_relation((1, 1, 1),
                                   [(2, 2), (1, 2), (2, 3), (1, 3)])


def test_sign_rectangle_relation_exhaustive():
    for n in range(2, 7):
        rects = []
        for i1, i2 in itertools.combinations(range(1, n + 1), 2):
            for j1, j2 in itertools.combinations(range(1, n + 1), 2):
                if i2 <= j1:  # all four corners inside the triangle
                    rects.append([(i1, j1), (i2, j1), (i1, j2), (i2, j2)])
        for pat in all_patterns(n):
            for corners in rects:
                assert sign_rectangle_relation(pat, corners)


@pytest.mark.parametrize("corners", [
    [(1, 1), (1, 1), (2, 2), (1, 2)],            # duplicate corner
    [(1, 2), (2, 2), (1, 3), (3, 3)],            # not a rectangle
    [(2, 2), (3, 2), (2, 3), (3, 3)],            # (3,2) leaves the triangle
])
def test_sign_rectangle_relation_rejects(corners):
    with pytest.raises(ValueError):
        sign_rectangle_relation((1, 1, 1), corners)


def test_ideal_case_frozen():
    one = ideal_case_factorization(1)
    assert one == [((1, 1),)]
    two = ideal_case_factorization(2)
    assert [set(b) for b in two] == [{(1, 1), (2, 2), (1, 2)}]
    three = {frozenset(b) for b in ideal_case_factorization(3)}
    assert three == {frozenset({(1, 1), (2, 2), (1, 2)}),
                     frozenset({(3, 3)}),
                     frozenset({(2, 3), (1, 3)})}


def test_ideal_case_covers_triangle():
    for n in range(1, 21):
        blocks = ideal_case_factorization(n)
        flat = [t for b in blocks for t in b]
        assert len(flat) == n * (n + 1) // 2
        assert set(flat) == set(term_indices(n))


def test_ideal_case_product_identity():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        v = rng.uniform(-1.0, 0.0, size=n)
        blocks = ideal_case_factorization(n)
        product = 1.0
        for b in blocks:
            for t in b:
                product *= eval_term(v, t)
        assert math.isclose(product, eval_f(v), rel_tol=1e-12)


def test_ideal_case_block_bounds_on_nonpositive_cube():
    # base triples stay <= 2, every other block <= 1
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for _ in range(50):
            v = rng.uniform(-1.0, 0.0, size=n)
            for b in ideal_case_factorization(n):
                p = math.prod(eval_term(v, t) for t in b)
                limit = 2.0 if len(b) in (1, 3) else 1.0
                assert p <= limit + 1e-12


def test_domination_check_frozen():
    v = (0.5, -0.5)
    gp = build_good_partition((1, -1))
    assert domination_check(v, gp)
    assert eval_f(v) == 0.9375 and eval_f((-0.5, -0.5)) == 1.6875


def test_domination_check_fixed_point():
    v = (-0.3, -0.9)
    gp = build_good_partition((-1, -1))
    assert domination_check(v, gp)


def test_domination_check_pattern_mismatch():
    r = domination_check((0.5, -0.5), build_good_partition((-1, 1)))
    assert not r and r.reason.startswith("pattern-mismatch")


def test_domination_random_small_n():
    rng = np.random.default_rng(17)
    cache = {}
    for _ in range(200):
        n = int(rng.integers(1, 7))
        v = rng.uniform(-1.0, 1.0, size=n)
        v[v == 0.0] = 0.25
        pat = tuple(1 if x > 0 else -1 for x in v)
        gp = cache.get(pat)
        if gp is None:
            gp = cache[pat] = build_good_partition(pat)
        assert domination_check(v, gp)


# ---------------------------------------------------------------------------
# certificates

GOLDEN = """\
{
  "blocks": [
    {
      "kind": "doubleton",
      "members": [
        [
          2,
          2
        ],
        [
          1,
          2
        ]
      ],
      "provenance": "case1",
      "signs": [
        1,
        -1
      ]
    }
  ],
  "n": 2,
  "pattern": [
    -1,
    1
  ],
  "version": "1"
}
"""


def test_certificate_golden_bytes():
    assert certificate_to_json(build_good_partition((-1, 1))) == GOLDEN


def test_certificate_round_trip_identity():
    for pat in all_patterns(5):
        gp = build_good_partition(pat)
        text = certificate_to_json(gp)
        back = certificate_from_json(text)
        assert back.n == gp.n and back.pattern == gp.pattern
        assert certificate_payload(back) == certificate_payload(gp)
        assert certificate_to_json(back) == text
        assert validate_partition(back)


@pytest.mark.parametrize("text,fragment", [
    ("not json", "not valid JSON"),
    ("[]", "JSON object"),
    ("{}", "missing key"),
    ('{"n": "2", "pattern": [-1, 1], "blocks": [], "version": "1"}', "positive integer"),
    ('{"n": 0, "pattern": [], "blocks": [], "version": "1"}', "positive integer"),
    ('{"n": 2, "pattern": [-1], "blocks": [], "version": "1"}', "list of n entries"),
    ('{"n": 2, "pattern": [-1, 0], "blocks": [], "version": "1"}', "list of n entries"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [], "version": 1}', "version"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [], "version": "zzz"}', "version"),
    ('{"n": true, "pattern": [1], "blocks": [], "version": "1"}', "positive integer"),
    ('{"n": 1, "pattern": [true], "blocks": [], "version": "1"}', "list of n entries"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": {}, "version": "1"}', "blocks must be"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [7], "version": "1"}', "block must be"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [{"kind": "doubleton"}], '
     '"version": "1"}', "block missing key"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [{"kind": "doubleton", '
     '"members": [[2, 2]], "signs": [1, -1], "provenance": "case1"}], '
     '"version": "1"}', "equal length"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [{"kind": "doubleton", '
     '"members": [[2], [1, 2]], "signs": [1, -1], "provenance": "case1"}], '
     '"version": "1"}', "bad member"),
    ('{"n": 1, "pattern": [1], "blocks": [{"kind": "singleton", '
     '"members": [[true, true]], "signs": [1], "provenance": "initial"}], '
     '"version": "1"}', "bad member"),
    ('{"n": 1, "pattern": [1], "blocks": [{"kind": "singleton", '
     '"members": [[1, 1]], "signs": [true], "provenance": "initial"}], '
     '"version": "1"}', "bad sign"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [{"kind": "doubleton", '
     '"members": [[2, 2], [1, 2]], "signs": [1, 0], "provenance": "case1"}], '
     '"version": "1"}', "bad sign"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [{"kind": "doubleton", '
     '"members": [[2, 2], [1, 2]], "signs": [1, -1], "provenance": 3}], '
     '"version": "1"}', "provenance"),
])
def test_certificate_from_json_rejects(text, fragment):
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_json(text)
    assert fragment in str(exc.value)


def test_certificate_format_error_is_value_error():
    assert issubclass(CertificateFormatError, ValueError)


def test_construction_failure_carries_context():
    err = ConstructionFailure(3, TermIndex(1, 4), "case3: boom", ())
    assert err.step == 3 and err.pair == (1, 4) and "boom" in str(err)
