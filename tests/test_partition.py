"""Good partitions: the builder, the independent validator, the
impossible-configuration catalogue, audits, parity, the ideal case,
domination, and certificate serialization."""

import copy
import gc
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pohst.partition import (
    AuditState,
    BuildState,
    BuildStep,
    CertificateFormatError,
    CheckResult,
    ConstructionFailure,
    GoodPartition,
    PartitionBlock,
    audit_build,
    build_good_partition,
    canonical_json,
    certificate_from_json,
    certificate_payload,
    certificate_to_json,
    check_impossible_configurations,
    domination_check,
    ideal_case_factorization,
    parity_counts,
    prec_key,
    sign_rectangle_relation,
    validate_partition,
    _block_layout,
    _negative_count,
    _row_members,
)
from pohst.search import pattern_from_index
from pohst.triangle import (
    TermIndex,
    eval_f,
    eval_term,
    noncanonical_set,
    prefix_classes,
    product_sign,
    term_indices,
)


#: The kind of a block by its number of members.
KINDS = {1: "singleton", 2: "doubleton", 4: "quadrupleton"}


def all_patterns(n):
    return itertools.product((1, -1), repeat=n)


def block_of(idx, pattern, kind=None, prov="initial"):
    """Assemble a block whose member signs are the true product signs."""
    kind = kind or KINDS[len(idx)]
    return PartitionBlock(kind, tuple(TermIndex(*t) for t in idx),
                          tuple(product_sign(pattern, t) for t in idx), prov)


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
    """a precedes b: lower rows first, right to left within a row."""
    assert (prec_key(TermIndex(*a)) < prec_key(TermIndex(*b))) is expected


@given(st.tuples(st.integers(1, 9), st.integers(1, 9)),
       st.tuples(st.integers(1, 9), st.integers(1, 9)))
def test_prec_total_order(a, b):
    """prec_key is one-to-one, so the order it gives is total."""
    a, b = TermIndex(*a), TermIndex(*b)
    assert (prec_key(a) < prec_key(b)) + (prec_key(b) < prec_key(a)) + (a == b) == 1


# ---------------------------------------------------------------------------
# rows of J from the prefix classes


def test_row_members_frozen():
    assert _row_members(prefix_classes((-1, 1)), 2) == ([2], [1])
    assert _row_members(prefix_classes((1, 1)), 1) == ([1], [])
    # (1,1) is a member, (1,2) is not
    assert _row_members(prefix_classes((1, 1, 1, 1)), 2) == ([2], [])


def test_row_members_match_noncanonical_set():
    """Row by row, and so column by column, the prefix classes give
    exactly the members of J, each half in ascending order and of the
    sign (-1)^(i+j) its name says."""
    for n in range(1, 7):
        for pat in all_patterns(n):
            q = prefix_classes(pat)
            J = noncanonical_set(pat).members
            for sign, half in ((1, 0), (-1, 1)):
                firsts = [_row_members(q, j)[half] for j in range(1, n + 1)]
                assert all(f == sorted(f) for f in firsts)
                rows = {TermIndex(i, j) for j, f in enumerate(firsts, start=1) for i in f}
                assert rows == {t for t in J if (-1) ** (t.i + t.j) == sign}


# ---------------------------------------------------------------------------
# builder


def test_build_single_negative():
    gp = build_good_partition((-1, 1))
    assert len(gp.blocks) == 1
    b = gp.blocks[0]
    assert b.kind == "doubleton" and b.provenance == "case1"
    assert [tuple(m) for m in b.members] == [(2, 2), (1, 2)]
    assert list(b.signs) == [1, -1]
    assert len(gp.trace) == 1 and gp.trace[0].case == "case1"


def test_build_all_negative_is_empty():
    for n in (1, 3, 6):
        gp = build_good_partition((-1,) * n)
        assert gp.blocks == () and gp.trace == ()


def test_build_all_positive_is_singletons():
    gp = build_good_partition((1, 1))
    assert [b.kind for b in gp.blocks] == ["singleton", "singleton"]
    assert [b.provenance for b in gp.blocks] == ["initial", "initial"]
    assert [tuple(b.members[0]) for b in gp.blocks] == [(1, 1), (2, 2)]


def test_build_exercises_all_three_cases():
    """(-1,-1,+1,-1) hits case 1, case 2 with operation 2, and case 3."""
    gp = build_good_partition((-1, -1, 1, -1))
    got = [(b.kind, tuple(tuple(m) for m in b.members), b.provenance)
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
    assert [tuple(m) for m in quad[0].members] == [
        (2, 4), (1, 4), (2, 5), (1, 5)]


def test_build_covers_every_provenance():
    seen = set()
    for n in range(1, 6):
        for pat in all_patterns(n):
            for b in build_good_partition(pat).blocks:
                seen.add(b.provenance)
    assert seen == {"initial", "case1", "case2-op1", "case2-op2",
                    "case3-op1", "case3-op2"}


def test_build_keeps_each_block_in_one_form():
    """A build makes each block object once: a consumed block is the very
    object an earlier step created (or an initial singleton), no object
    is consumed twice, and the final blocks are those same objects."""
    for n in range(1, 9):
        for pat in all_patterns(n):
            gp = build_good_partition(pat)
            created, consumed = [], set()
            for step in gp.trace:
                for b in step.consumed:
                    assert id(b) not in consumed
                    consumed.add(id(b))
                    assert all(c is b for c in created if c == b)
                created.append(step.created)
            created_ids = {id(c) for c in created}
            for b in gp.blocks:
                assert id(b) not in consumed
                assert id(b) in created_ids or (
                    b.kind == "singleton" and b.provenance == "initial")


def test_build_writes_blocks_in_final_shape():
    """The builder takes a created block's member order, signs, kind and
    provenance from its case; check them against their definitions for
    every pattern with n <= 8 and for 40 random patterns of the certify
    benchmark's sizes, n = 24..96."""
    rng = np.random.default_rng(13)
    patterns = [p for n in range(1, 9) for p in all_patterns(n)]
    patterns += [tuple(int(s) for s in rng.choice((-1, 1), size=int(n)))
                 for n in rng.integers(24, 97, size=40)]
    for pat in patterns:
        for step in build_good_partition(pat).trace:
            b = step.created
            assert b.members == tuple(sorted(b.members, key=prec_key))
            assert b.signs == tuple(1 if (i + j) % 2 == 0 else -1 for i, j in b.members)
            assert b.kind == KINDS[len(b.members)]
            assert b.provenance == (
                "case1" if step.case == "case1" else f"{step.case}-op{step.operation}")


def test_build_lists_blocks_in_prec_order_past_the_byte_pin():
    """The blocks come in the order the builder made their first members,
    with no sort: past the n <= 10 of test_certificate_bytes_pinned,
    for 30 random patterns of n = 11..300, each block's first member is
    a positive and the first members increase strictly in prec_key."""
    rng = np.random.default_rng(23)
    for n in rng.integers(11, 301, size=30):
        pat = tuple(int(s) for s in rng.choice((-1, 1), size=int(n)))
        heads = [b.members[0] for b in build_good_partition(pat).blocks]
        assert all((i + j) % 2 == 0 for i, j in heads), pat
        keys = [prec_key(t) for t in heads]
        assert all(a < b for a, b in zip(keys, keys[1:])), pat


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
        negs = sorted((t for t in noncanonical_set(pat).members if (t.i + t.j) % 2),
                      key=prec_key)
        assert [TermIndex(*s.pair) for s in gp.trace] == negs


def _row_view(gp):
    state = AuditState()
    for b in gp.blocks:
        state.add(b.members)
    return state


def test_case1_failures_end_vertically():
    """A pair absorbed by case 1 ends in nhdoub, any other in nvdoub: in
    the row view of the final blocks, a Case-1 pair sits in nh of its
    row and any other pair in nv."""
    for n in range(1, 7):
        for pat in all_patterns(n):
            gp = build_good_partition(pat)
            rows = _row_view(gp)
            for s in gp.trace:
                i, j = s.pair
                in_nh = i in {a for a, _ in rows.nh.get(j, ())}
                in_nv = i in {a for a, _ in rows.nv.get(j, ())}
                assert (in_nh, in_nv) == (s.case == "case1", s.case != "case1")


# ---------------------------------------------------------------------------
# corner roles, as the row view reads them


def test_row_view_frozen():
    # (1,2)- pairs horizontally with (2,2)+; (1,1) is in no block
    rows = _row_view(build_good_partition((-1, 1)))
    assert (rows.nh, rows.nv, rows.vd) == ({2: [(1, 2)]}, {}, {})


def test_row_view_quadrupleton_corners():
    # the rectangle's bottom-left negative (2,3) pairs horizontally with
    # (3,3), its top-right negative (3,4) drops by one; (1,4)- drops by
    # one onto the vdoub positive (1,3)
    rows = _row_view(build_good_partition((-1, -1, 1, -1)))
    assert rows.nh == {3: [(2, 3)]}
    assert rows.nv == {4: [(3, 1), (1, 1)]}
    assert rows.vd == {3: [1]}


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
                                                     gp.blocks[0].signs, "case1")]),
     "bad-kind"),
    (lambda gp: state_of(gp.pattern, [PartitionBlock("singleton", gp.blocks[0].members,
                                                     gp.blocks[0].signs, "case1")]),
     "bad-kind"),
    # fewer signs than members
    (lambda gp: state_of(gp.pattern, [PartitionBlock("doubleton", gp.blocks[0].members,
                                                     gp.blocks[0].signs[:1], "case1")]),
     "bad-signs"),
    # member outside the triangle
    (lambda gp: state_of(gp.pattern, [PartitionBlock("doubleton", (
        gp.blocks[0].members[0], TermIndex(2, 1)), (gp.blocks[0].signs[0], -1),
        "case1")]), "bad-index"),
    # member that is canonical for this pattern
    (lambda gp: state_of(gp.pattern, [PartitionBlock("doubleton", (
        gp.blocks[0].members[0], TermIndex(1, 1)), (gp.blocks[0].signs[0], -1),
        "case1")]), "not-noncanonical"),
    # stored sign contradicts the pattern
    (lambda gp: state_of(gp.pattern, [PartitionBlock("doubleton", gp.blocks[0].members, (
        -1, gp.blocks[0].signs[1]), "case1")]), "sign-mismatch"),
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


_ENTRY = st.one_of(st.integers(-2, 10), st.floats(), st.booleans(), st.none())
_PAIR = st.tuples(st.integers(0, 9), st.integers(0, 9))
_ANY_BLOCK = st.builds(
    PartitionBlock,
    st.one_of(st.sampled_from(sorted(KINDS.values())), st.text(max_size=3), _ENTRY),
    st.one_of(st.lists(st.one_of(_PAIR, st.lists(_ENTRY, max_size=3).map(tuple)),
                       max_size=5).map(tuple), st.none(), _ENTRY),
    st.one_of(st.lists(st.one_of(st.sampled_from((1, -1)), _ENTRY),
                       max_size=5).map(tuple), st.none(), _ENTRY),
    st.one_of(st.text(max_size=3), _ENTRY))


@st.composite
def _any_partition(draw):
    pattern = tuple(draw(st.lists(st.one_of(st.sampled_from((1, -1)), _ENTRY), max_size=9)))
    n = draw(st.one_of(st.just(len(pattern)), _ENTRY))
    listing = st.lists(st.one_of(_ANY_BLOCK, _ENTRY), max_size=6)
    return GoodPartition(n, pattern, tuple(draw(listing)))


@settings(max_examples=200, deadline=None)
@given(_any_partition())
def test_validator_returns_a_verdict_on_any_partition(gp):
    """Any n and pattern, and listed entries that are no blocks or blocks
    whose members have any arity and int, float, bool or None entries,
    whose kinds, signs and provenances are any such value:
    validate_partition, and with it check_blocks, which the sweep runs
    row by row, returns a CheckResult and raises nothing."""
    assert isinstance(validate_partition(gp), CheckResult)


#: A value for one field of a trace step or one listed entry: an entry, a
#: block of any shape, or a tuple of them.
_ANY_VALUE = st.one_of(_ENTRY, _ANY_BLOCK,
                       st.lists(st.one_of(_ENTRY, _ANY_BLOCK), max_size=3).map(tuple))


@st.composite
def _tampered_build(draw):
    """A build of a pattern with n <= 6 with one step field (k, pair,
    case, consumed or created), one listed entry or the whole listing
    replaced by _ANY_VALUE; an empty listing gets the value as its one
    entry."""
    gp = build_good_partition(draw(st.lists(st.sampled_from((1, -1)),
                                            min_size=1, max_size=6)))
    value = draw(_ANY_VALUE)
    fields = ("k", "pair", "case", "consumed", "created") if gp.trace else ()
    field = draw(st.sampled_from(fields + ("listed", "listing")))
    blocks, trace = list(gp.blocks), list(gp.trace)
    if field == "listing":
        return GoodPartition(gp.n, gp.pattern, value, gp.trace)
    if field == "listed":
        at = draw(st.integers(0, max(0, len(blocks) - 1)))
        blocks[at:at + 1] = [value]
    else:
        at = draw(st.integers(0, len(trace) - 1))
        trace[at] = trace[at]._replace(**{field: value})
    return GoodPartition(gp.n, gp.pattern, tuple(blocks), tuple(trace))


@settings(max_examples=300, deadline=None)
@given(_tampered_build())
def test_checkers_return_a_verdict_on_any_tampered_build(gp):
    """audit_build, check_impossible_configurations and validate_partition
    return a CheckResult, and raise nothing, on a build with one trace
    field, one listed entry or the whole listing replaced by an entry, a
    block of any shape or a tuple of them."""
    for check in (audit_build, check_impossible_configurations, validate_partition):
        assert isinstance(check(gp), CheckResult)


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


def test_validator_reads_a_doubleton_written_negative_first():
    """A doubleton may list its negative first: with signs (-1, 1) the
    well-placed one is accepted, and a misplaced one gets the reason its
    positive-first twin gets."""
    pat = (1, -1, 1, -1, -1)
    gp = build_good_partition(pat)
    first = gp.blocks[0]
    assert first.signs == (1, -1)
    swapped = first._replace(members=first.members[::-1], signs=(-1, 1))
    assert validate_partition(state_of(pat, (swapped,) + gp.blocks[1:]))
    # (3, 4) is a negative right of the positive (2, 4) in row 4
    reasons = {validate_partition(state_of(pat, [block_of(members, pat)])).reason
               for members in ([(2, 4), (3, 4)], [(3, 4), (2, 4)])}
    assert reasons == {"bad-doubleton: negative must sit left in the row or above in "
                       "the column"}


def test_validator_rejects_a_sign_that_is_an_array():
    """A sign whose comparison has no truth value, such as an array, gets
    the bad-signs verdict with its block as witness, instead of the
    ValueError of an ambiguous truth value."""
    signs = (np.array([1, 1]),)
    block = PartitionBlock("singleton", ((1, 1),), signs, "initial")
    r = validate_partition(GoodPartition(1, (1,), (block,)))
    assert not r and r.witness is block
    assert r.reason == f"bad-signs: {signs!r} for 1 members"


@pytest.mark.parametrize("bad", [(2.0, 2.0), (2, 2, 0), (2,), (None, 2), None, "ab"])
def test_validator_rejects_members_that_are_not_int_pairs(bad):
    """An in-process block may hold any member: one that is not a pair of
    ints gets a bad-index verdict naming it, after the members before it
    in its block passed, instead of a TypeError or ValueError."""
    gp = _doubleton_pattern_cert()
    (pos, neg), signs = gp.blocks[0].members, gp.blocks[0].signs
    for members in ((bad, neg), (pos, bad)):
        block = PartitionBlock("doubleton", members, signs, "case1")
        r = validate_partition(state_of(gp.pattern, [block]))
        assert not r and r.reason == f"bad-index: {bad!r} is not a pair of ints"
        assert r.witness is block
    # a member before it that fails first keeps its own reason
    block = PartitionBlock("doubleton", (TermIndex(2, 1), bad), signs, "case1")
    assert validate_partition(state_of(gp.pattern, [block])).reason == "bad-index: (2, 1)"


@pytest.mark.parametrize("block,reason", [
    (PartitionBlock("singleton", None, (1,), "x"), "bad-kind: singleton with members None"),
    (PartitionBlock("singleton", (TermIndex(2, 2),), None, "x"), "bad-signs: None for 1 members"),
])
def test_validator_rejects_members_or_signs_of_none(block, reason):
    """An in-process block whose members or signs are None gets a verdict
    with the block as witness, instead of a TypeError."""
    r = validate_partition(state_of((-1, 1), [block]))
    assert not r and r.witness is block and r.reason == reason


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
    fat = PartitionBlock("doubleton", fat.members + (TermIndex(1, 1),),
                         fat.signs + (-1,), "case1")
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks,
                                  (BuildStep(1, s.pair, s.case, 1, s.consumed, fat),)))
    assert not r and "consumed members plus" in r.reason


def test_audit_row_fails_at_a_row_with_too_few_or_too_many_steps():
    """The sweep's row-by-row replay counts each row's steps exactly."""
    pat = (-1, -1, 1, -1)
    q, trace = prefix_classes(pat), build_good_partition(pat).trace
    for steps in (trace[:-1], trace + trace[-1:]):
        audit = AuditState()
        assert all(audit.row(q, j, trace[:k], 0) for j, k in ((1, 0), (2, 0), (3, 1)))
        r = audit.row(q, 4, steps, 1)
        assert not r and r.reason == f"row 4: {len(steps) - 1} steps for 2 negative pairs"


def test_audit_seeds_each_row_before_its_steps():
    """A row-2 step of (-1, 1, 1) that also consumes (3, 3)'s initial
    singleton: audit_build rejects it as the row-by-row replay does,
    because row 3 is not seeded before row 2's steps."""
    pat = (-1, 1, 1)
    singles = [block_of([t], pat) for t in ((2, 2), (3, 3))]
    fat = block_of([(2, 2), (1, 2), (3, 3)], pat, "tripleton", "case1")
    trace = (BuildStep(1, TermIndex(1, 2), "case1", 1, tuple(singles), fat),)
    q, audit = prefix_classes(pat), AuditState()
    assert audit.row(q, 1, (), 0)
    by_row = audit.row(q, 2, trace, 0)
    r = audit_build(GoodPartition(3, pat, (fat,), trace))
    assert not r and r.reason == by_row.reason == (
        "step 1: consumed block [TermIndex(i=3, j=3)] is not present")


def test_audit_rejects_tripleton():
    """A step of (-1, -1, 1) that merges (2, 3) with the (1, 3) and (3, 3)
    singletons of its own row into one three-member block, with gp.blocks
    to match: the audit rejects the step by its size, not only the
    validator by its kind."""
    pat = (-1, -1, 1)
    singles = tuple(block_of([t], pat) for t in ((3, 3), (1, 3)))
    tri = block_of([(3, 3), (2, 3), (1, 3)], pat, "tripleton", "case1")
    gp = GoodPartition(3, pat, (tri,), (BuildStep(1, TermIndex(2, 3), "case1", 2,
                                                   singles, tri),))
    assert validate_partition(gp).reason == "bad-kind: 'tripleton'"
    r = audit_build(gp)
    assert not r and r.reason == "step 1: created block has 3 members"


def test_audit_rejects_a_pair_of_three_entries():
    """A step pair with a third entry is not the negative the replay
    expects: the audit rejects the step instead of raising TypeError."""
    gp = build_good_partition((-1, 1))
    s = gp.trace[0]
    bad = (BuildStep(1, (1, 2, 0), s.case, s.operation, s.consumed, s.created),)
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, bad))
    assert not r and r.reason == "step 1 absorbed (1, 2, 0), expected (1, 2) next in prec order"


def test_impossible_configurations_rejects_a_one_entry_case2_pair():
    """A Case-2 step whose pair has one entry names no anchor: the scan
    rejects it by its step instead of raising TypeError."""
    pat = (1, 1, 1, 1, 1, -1)
    b1 = block_of([(1, 5), (1, 6)], pat, prov="case2-op1")
    step = BuildStep(1, (1,), "case2", 1, (), b1)
    r = check_impossible_configurations(state_of(pat, [b1], [step]))
    assert not r and r.reason == "step 1: case2 pair (1,) is not an index pair (i, j)"


def test_impossible_configurations_rejects_a_case2_pair_that_is_not_iterable():
    """Step 1 of (1, -1, 1, -1, -1) is a Case-2 step: given the pair 7,
    the scan rejects it by its step instead of raising TypeError."""
    gp = build_good_partition((1, -1, 1, -1, -1))
    assert gp.trace[0].case == "case2"
    trace = (gp.trace[0]._replace(pair=7),) + gp.trace[1:]
    r = check_impossible_configurations(GoodPartition(gp.n, gp.pattern, gp.blocks, trace))
    assert not r and r.reason == "step 1: case2 pair 7 is not an index pair (i, j)"


def test_impossible_configurations_rejects_a_case2_pair_of_unhashable_entries():
    """Step 1 of (1, -1, 1, -1, -1) given the pair ([1], [2]), two entries
    that cannot be anchors, is rejected by its step instead of raising
    TypeError."""
    gp = build_good_partition((1, -1, 1, -1, -1))
    trace = (gp.trace[0]._replace(pair=([1], [2])),) + gp.trace[1:]
    r = check_impossible_configurations(GoodPartition(gp.n, gp.pattern, gp.blocks, trace))
    assert not r and r.reason == "step 1: case2 pair ([1], [2]) is not an index pair (i, j)"


def test_audit_rejects_a_case2_pair_that_cannot_be_an_anchor():
    """Step 1 of (1, -1, 1, -1, -1) given the pair (np.array(1), 2), which
    equals the expected (1, 2) entry by entry but cannot be hashed: the
    replay rejects it by its step, as the one-shot scan does, instead of
    raising TypeError."""
    gp = build_good_partition((1, -1, 1, -1, -1))
    assert gp.trace[0].case == "case2"
    trace = (gp.trace[0]._replace(pair=(np.array(1), 2)),) + gp.trace[1:]
    bad = GoodPartition(gp.n, gp.pattern, gp.blocks, trace)
    reason = "step 1: case2 pair (array(1), 2) is not an index pair (i, j)"
    r = audit_build(bad)
    assert not r and r.reason == reason
    r = check_impossible_configurations(bad)
    assert not r and r.reason == reason


#: Four members on two columns and three rows, and on three columns and
#: two rows: each has two columns or two rows but not both, so a check of
#: either count alone passes it.
_OFF_RECTANGLES = [((1, 2), (1, 3), (2, 3), (2, 4)), ((1, 3), (2, 3), (3, 3), (1, 4))]


@pytest.mark.parametrize("members", _OFF_RECTANGLES)
def test_impossible_configurations_rejects_four_members_off_a_rectangle(members):
    """Four members that are not on two columns and two rows have no
    corner roles, though they do lie on two columns or on two rows."""
    pat = (1, 1, 1, 1)
    block = block_of(members, pat, "quadrupleton", "x")
    r = check_impossible_configurations(state_of(pat, [block]))
    assert not r and r.witness is block and r.reason == (
        f"block {sorted(members)} of four members is not on two columns and two rows")


def test_impossible_configurations_rejects_four_members_in_one_column():
    """Four members in one column have no corner roles: the scan rejects
    the block before it reads them, instead of raising IndexError."""
    pat = (1, 1, 1, 1)
    block = PartitionBlock("quadrupleton", ((1, 1), (1, 2), (1, 3), (1, 4)),
                           (1, 1, 1, 1), "x")
    r = check_impossible_configurations(state_of(pat, [block]))
    assert not r and r.witness is block and r.reason == (
        "block [(1, 1), (1, 2), (1, 3), (1, 4)] of four members is not on two "
        "columns and two rows")


def test_impossible_configurations_rejects_members_of_none():
    """A block whose members are None is rejected with the block as
    witness, instead of a TypeError."""
    block = PartitionBlock("singleton", None, (1,), "x")
    r = check_impossible_configurations(state_of((-1, 1), [block]))
    assert not r and r.witness is block and r.reason == "block members None are not a sequence"


_MALFORMED_PATTERNS = [
    ((1, 2), "bad-pattern: sign pattern entries must be +1 or -1"),
    ((), "bad-pattern: sign pattern must be non-empty"),
]


@pytest.mark.parametrize("pattern,reason", _MALFORMED_PATTERNS)
def test_audit_rejects_a_malformed_pattern(pattern, reason):
    """A pattern with an entry other than +-1, or none, gets the
    validator's bad-pattern verdict from the audit instead of a
    ValueError."""
    gp = GoodPartition(len(pattern), pattern, ())
    assert validate_partition(gp).reason == reason
    r = audit_build(gp)
    assert not r and r.reason == reason


@pytest.mark.parametrize("pattern,reason", _MALFORMED_PATTERNS)
def test_impossible_configurations_rejects_a_malformed_pattern(pattern, reason):
    """The scan gives the validator's bad-pattern verdict on a malformed
    pattern instead of a ValueError."""
    r = check_impossible_configurations(GoodPartition(len(pattern), pattern, ()))
    assert not r and r.reason == reason


@pytest.mark.parametrize("pattern", [(None,), (1.5,)])
def test_checkers_reject_a_pattern_entry_that_is_not_an_int(pattern):
    """A None or float pattern entry gets the bad-pattern verdict from
    the validator, the audit and the scan, instead of a TypeError or a
    check of the pattern read as (1,); a build refuses it."""
    gp = GoodPartition(1, pattern, ())
    for check in (validate_partition, audit_build, check_impossible_configurations):
        r = check(gp)
        assert not r and r.reason == "bad-pattern: sign pattern entries must be +1 or -1"
    with pytest.raises(ValueError):
        build_good_partition(pattern)


def test_audit_rejects_a_consumed_block_with_a_repeated_member():
    """Step 1 of (-1, 1) consuming the doubleton ((2, 2), (2, 2)), whose
    member set is that of the live singleton {(2, 2)}: the replay rejects
    the block as not present, instead of raising KeyError."""
    gp = build_good_partition((-1, 1))
    s = gp.trace[0]
    twice = PartitionBlock("doubleton", ((2, 2), (2, 2)), (1, 1), "initial")
    trace = (BuildStep(1, s.pair, s.case, s.operation, (twice,), s.created),)
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, trace))
    assert not r and r.reason == "step 1: consumed block [(2, 2)] is not present"


def test_audit_reads_a_live_block_of_provenance_none_as_present():
    """Step 1 of (-1, 1, -1) creates a block of provenance None, and
    step 2 consumes it: the block is live, so the replay goes on, and
    the final listing, which carries step 2's block, matches."""
    gp = build_good_partition((-1, 1, -1))
    s1, s2 = gp.trace
    created = s1.created._replace(provenance=None)
    trace = (s1._replace(created=created), s2._replace(consumed=(created,) + s2.consumed[1:]))
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, trace))
    assert r and r.reason is None


def test_audit_rejects_a_pair_that_is_not_iterable():
    """Step 1 of (1, -1, 1, -1, -1) given the pair 7 is not the negative
    the replay expects: the audit rejects the step instead of raising
    TypeError."""
    gp = build_good_partition((1, -1, 1, -1, -1))
    trace = (gp.trace[0]._replace(pair=7),) + gp.trace[1:]
    r = audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks, trace))
    assert not r and r.reason == "step 1 absorbed 7, expected (1, 2) next in prec order"


def test_audit_rejects_a_listed_block_of_members_none():
    """A listed block whose members are None is no live block: the
    replay's final state differs, instead of a TypeError."""
    gp = GoodPartition(1, (1,), (PartitionBlock(None, None, (), "initial"),))
    r = audit_build(gp)
    assert not r and r.reason == "final state of the replay differs from gp.blocks"


def test_audit_reads_a_block_listed_twice_by_its_provenances():
    """A block listed twice counts once with one provenance; listed again
    with another, the replay's final state differs."""
    gp = build_good_partition((-1, 1, -1))

    def again(b):
        return audit_build(GoodPartition(gp.n, gp.pattern, gp.blocks + (b,), gp.trace))

    assert again(gp.blocks[0])
    r = again(gp.blocks[0]._replace(provenance="other"))
    assert not r and r.reason == "final state of the replay differs from gp.blocks"


def _case2_build():
    """The build of (1, -1, 1, -1, -1), whose step 1 is the Case-2
    absorption of (1, 2)."""
    gp = build_good_partition((1, -1, 1, -1, -1))
    assert gp.trace[0].case == "case2" and tuple(gp.trace[0].pair) == (1, 2)
    return gp


def _with_step_1(gp, **fields):
    return GoodPartition(gp.n, gp.pattern, gp.blocks,
                         (gp.trace[0]._replace(**fields),) + gp.trace[1:])


@pytest.mark.parametrize("tamper", [
    lambda gp: _with_step_1(gp, consumed=None),
    lambda gp: _with_step_1(gp, consumed=3),
    lambda gp: _with_step_1(gp, consumed=(1, 2)),
    lambda gp: _with_step_1(gp, consumed=(PartitionBlock("singleton", None, (1,), "initial"),)),
    # members that do not sort, so no reason can list them sorted
    lambda gp: _with_step_1(gp, consumed=(
        PartitionBlock("doubleton", ((1, 1), ("a", 2)), (1, -1), "initial"),)),
    lambda gp: _with_step_1(gp, created=None),
    lambda gp: _with_step_1(gp, created=PartitionBlock("doubleton", None, (1, -1), "case2-op1")),
    lambda gp: GoodPartition(gp.n, gp.pattern, gp.blocks, None),
    lambda gp: GoodPartition(gp.n, gp.pattern, gp.blocks, tuple(range(len(gp.trace)))),
])
def test_audit_rejects_a_trace_it_cannot_read(tamper):
    """Step 1 consuming no sequence of blocks, entries that are not
    blocks, or a block whose members are None or do not sort; step 1
    creating no block or a block of members None; no trace, or a trace
    of ints: the replay rejects each before its first step is through,
    instead of raising TypeError or AttributeError."""
    r = audit_build(tamper(_case2_build()))
    assert not r and r.reason == "trace cannot be read after 0 steps"


@pytest.mark.parametrize("entry", [3, None])
def test_checkers_reject_a_listed_entry_that_is_not_a_block(entry):
    """A listed entry 3 or None is a bad kind to the validator, no live
    block to the replay and unreadable to the scan, instead of an
    AttributeError."""
    gp = _case2_build()
    bad = GoodPartition(gp.n, gp.pattern, gp.blocks + (entry,), gp.trace)
    r = validate_partition(bad)
    assert not r and r.witness is entry and r.reason == f"bad-kind: {entry!r} is not a block"
    r = audit_build(bad)
    assert not r and r.reason == "final state of the replay differs from gp.blocks"
    r = check_impossible_configurations(bad)
    assert not r and r.reason == "a listed block or a trace step cannot be read"


@pytest.mark.parametrize("listing", [None, 3])
def test_checkers_reject_a_listing_that_cannot_be_iterated(listing):
    """A listing None or 3 is a bad kind to the validator, a final state
    the replay does not end in and unreadable to the scan, instead of a
    TypeError."""
    gp = build_good_partition((-1, 1))
    bad = GoodPartition(2, (-1, 1), listing, gp.trace)
    r = validate_partition(bad)
    assert not r and r.reason == f"bad-kind: listing {listing!r} is not a sequence of blocks"
    r = audit_build(bad)
    assert not r and r.reason == "final state of the replay differs from gp.blocks"
    r = check_impossible_configurations(bad)
    assert not r and r.reason == "a listed block or a trace step cannot be read"


def _plus_block(gp, members):
    block = PartitionBlock(KINDS[len(members)], members, (1,) * len(members), "x")
    return GoodPartition(gp.n, gp.pattern, gp.blocks + (block,), gp.trace)


@pytest.mark.parametrize("tamper", [
    lambda gp: _plus_block(gp, ((1, 1), 1)),
    lambda gp: _plus_block(gp, ((1, 1), None)),
    lambda gp: _plus_block(gp, ((1, 1), ())),
    lambda gp: _plus_block(gp, ((1, 1), (1, 2), (2, 2), 1)),
    # ("a", 2) sorted beside the ints of the drops in row 2
    lambda gp: _plus_block(gp, ((1, 1), ("a", 2))),
    lambda gp: GoodPartition(gp.n, gp.pattern, gp.blocks, (3,)),
])
def test_impossible_configurations_rejects_what_it_cannot_read(tamper):
    """A member the scan cannot read as an index pair, where the corner
    roles read it or where check_row compares it with the row's other
    entries, and a trace entry that is not a step: the scan rejects
    them instead of raising TypeError, IndexError or AttributeError."""
    r = check_impossible_configurations(tamper(_case2_build()))
    assert not r and r.reason == "a listed block or a trace step cannot be read"


def test_audit_rejects_a_created_block_of_four_members_in_one_column():
    """Step 3 of (1, 1, 1, 1, 1, -1) absorbs (1, 6) with the three live
    singletons of its column: the union checks pass, and the replay
    rejects the four-member block by its step number before it reads
    corner roles."""
    pat = (1, 1, 1, 1, 1, -1)
    gp = build_good_partition(pat)
    s = gp.trace[2]
    assert tuple(s.pair) == (1, 6)
    column = block_of([(1, 1), (1, 3), (1, 5), (1, 6)], pat, "quadrupleton", "case3-op1")
    singles = tuple(block_of([t], pat) for t in ((1, 1), (1, 3), (1, 5)))
    trace = gp.trace[:2] + (BuildStep(3, s.pair, s.case, 1, singles, column),)
    r = audit_build(GoodPartition(gp.n, pat, gp.blocks, trace))
    assert not r and r.reason == (
        "step 3: created block [(1, 1), (1, 3), (1, 5), (1, 6)] is not on two "
        "columns and two rows")


@pytest.mark.parametrize("members", _OFF_RECTANGLES)
def test_audit_rejects_a_created_block_off_a_rectangle(members):
    """A replay state holding the first three members as one live block:
    step 1 absorbs the fourth into it, the union checks pass, and the
    step rejects the block, which lies on two columns or on two rows but
    not on both, by its step number."""
    pat = (1, 1, 1, 1)
    *rest, pair = members
    consumed = block_of(rest, pat, "triple", "x")
    created = block_of(members, pat, "quadrupleton", "case2-op2")
    state = AuditState()
    state.live[frozenset(consumed.members)] = "x"
    r = state.step(1, BuildStep(1, TermIndex(*pair), "case2", 2, (consumed,), created), pair)
    assert not r and r.reason == (
        f"step 1: created block {sorted(members)} is not on two columns and two rows")


def test_negative_count_matches_the_row_scan():
    """audit_build's O(n) count of J's negatives equals the count over
    every member of every row, for every pattern with n <= 10."""
    for n in range(1, 11):
        for pat in all_patterns(n):
            q = prefix_classes(pat)
            assert _negative_count(q) == sum(
                (i + j) % 2 for i, j in noncanonical_set(pat).members)


def test_audit_rejects_final_mismatch():
    gp = build_good_partition((-1, 1))
    relabeled = (PartitionBlock("doubleton", gp.blocks[0].members, gp.blocks[0].signs,
                                "case2-op1"),)
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


def test_parity_counts_match_the_border_set():
    """parity_counts equals the count over the set of border pairs,
    (1, j) and (i, n), of their signs in J, for every pattern with
    n <= 12."""
    for n in range(1, 13):
        for pat in all_patterns(n):
            q = prefix_classes(pat)
            border = {(1, j) for j in range(1, n + 1)} | {(i, n) for i in range(1, n + 1)}
            signs = [1 if (i + j) % 2 == 0 else -1 for i, j in border if q[i - 1] != q[j]]
            assert parity_counts(pat) == (signs.count(1), signs.count(-1))


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


def test_ideal_case_factorization_rejects_n_below_one():
    with pytest.raises(ValueError, match="n must be >= 1"):
        ideal_case_factorization(0)


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


def test_domination_check_rejects_undominated_block():
    # (1,2)- alone is not dominated: 1 - 0.5*(-0.5) = 1.25 > 1 - 0.25
    pos = PartitionBlock("singleton", (TermIndex(1, 1),), (1,), "initial")
    neg = PartitionBlock("singleton", (TermIndex(1, 2),), (-1,), "initial")
    r = domination_check((0.5, -0.5), GoodPartition(2, (1, -1), (pos, neg)))
    assert not r
    assert r.reason == "block-domination-failed: 1.25 > 0.75"
    assert r.witness == neg


def test_domination_check_rejects_a_global_failure(monkeypatch):
    """Every block dominates, but with eval_f replaced by x_1 the mirror's
    value is the smaller one: the global check rejects."""
    monkeypatch.setattr("pohst.partition.eval_f", lambda v: float(v[0]))
    r = domination_check((0.5, -0.5), build_good_partition((1, -1)))
    assert not r and r.reason == "global-domination-failed: 0.5 > -0.5"


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


def test_certificate_bytes_pinned():
    """The certificates of every pattern for n = 1..10, concatenated in
    pattern_from_index order, hash to one fixed digest: a change to the
    bytes of any certificate fails here."""
    digest = hashlib.sha256()
    for n in range(1, 11):
        for idx in range(2 ** n):
            gp = build_good_partition(pattern_from_index(n, idx))
            digest.update(certificate_to_json(gp).encode())
    assert digest.hexdigest() == (
        "f42064bfa6de04813217235ff6e61106a7425a890140725bdf7a94a73aff0ae6")


def test_build_trace_pinned():
    """The build traces of every pattern for n = 1..10, as repr text in
    pattern_from_index order, hash to one fixed digest, and so do those
    of the 40 random patterns of n = 24..96 that
    test_build_writes_blocks_in_final_shape draws: a change to any step,
    case, operation or block of any trace fails here."""
    digest = hashlib.sha256()
    for n in range(1, 11):
        for idx in range(2 ** n):
            digest.update(repr(build_good_partition(pattern_from_index(n, idx)).trace).encode())
    assert digest.hexdigest() == (
        "6fd2590ff8a6c6658f5c7c7c6d676aad422fd9fda9c80c6c35897ead22c9c8bf")
    rng = np.random.default_rng(13)
    digest = hashlib.sha256()
    for n in rng.integers(24, 97, size=40):
        pat = tuple(int(s) for s in rng.choice((-1, 1), size=int(n)))
        digest.update(repr(build_good_partition(pat).trace).encode())
    assert digest.hexdigest() == (
        "393bf1ed04421782f839b933a3d7538cf734852e0608a1f4a0194388f558cc44")


def _mutated_traces(trace):
    """The trace itself, then per step: dropped, dropped with the rest
    renumbered, duplicated, swapped with the next, its case relabeled,
    and its first consumed block dropped."""
    def renumber(steps):
        return tuple(BuildStep(k, s.pair, s.case, s.operation, s.consumed, s.created)
                     for k, s in enumerate(steps, start=1))

    yield trace
    for a, s in enumerate(trace):
        yield trace[:a] + trace[a + 1:]
        yield renumber(trace[:a] + trace[a + 1:])
        yield trace[:a + 1] + trace[a:]
        if a + 1 < len(trace):
            yield renumber(trace[:a] + (trace[a + 1], s) + trace[a + 2:])
        case = "case2" if s.case != "case2" else "case1"
        yield trace[:a] + (BuildStep(s.k, s.pair, case, s.operation, s.consumed,
                                     s.created),) + trace[a + 1:]
        if s.consumed:
            yield trace[:a] + (BuildStep(s.k, s.pair, s.case, s.operation,
                                         s.consumed[1:], s.created),) + trace[a + 1:]


def test_audit_reasons_pinned():
    """For every pattern with n <= 6, in pattern_from_index order:
    audit_build over every mutated trace, and
    check_impossible_configurations of its blocks and trace read under
    every pattern of the same n.  The (ok, reason, code) of each hash to
    one fixed digest: a change to any verdict, reason text or code fails
    here."""
    digest, results = hashlib.sha256(), []
    for n in range(1, 7):
        gps = [build_good_partition(pattern_from_index(n, idx)) for idx in range(2 ** n)]
        for gp in gps:
            results += [audit_build(GoodPartition(n, gp.pattern, gp.blocks, trace))
                        for trace in _mutated_traces(gp.trace)]
            results += [check_impossible_configurations(
                GoodPartition(n, other.pattern, gp.blocks, gp.trace)) for other in gps]
    for r in results:
        digest.update(repr((r.ok, r.reason, r.code)).encode())
    # codes 3 and 5 read the row's negatives and the Case-2 anchors
    assert {r.code for r in results} == {None, 3, 5}
    assert digest.hexdigest() == (
        "60d93077aa2d38d1873bb622a2ff3ded876efc31295e69466f25fd0421464bf6")


def _random_row_state(rng):
    """A row r <= 8 and an AuditState whose view of row r holds seeded
    random spans, drops, vdoub positives, negatives and Case-2 anchors,
    up to three of each; lists may be empty or absent."""
    row = int(rng.integers(2, 9))
    state = AuditState()

    def firsts():
        return [int(i) for i in rng.integers(1, row + 1, size=int(rng.integers(0, 4)))]

    views = (
        (state.nh, [(i, int(rng.integers(i + 1, row + 1))) for i in firsts() if i < row]),
        (state.nv, [(i, int(rng.integers(1, 3))) for i in firsts()]),
        (state.vd, firsts()),
        (state.negatives, firsts()),
    )
    for view, entries in views:
        if entries or rng.random() < 0.5:
            view[row] = entries
    state.anchors = {(i, row) for i in firsts()}
    return row, state


def test_check_row_codes_pinned():
    """AuditState.check_row over 6,000 seeded random row states
    (_random_row_state).  Every outcome occurs, acceptance and each of
    the five codes, and the (ok, reason, code, witness) of each hash to
    one fixed digest: a change to any verdict, reason text, code or
    witness fails here."""
    rng = np.random.default_rng(20)
    digest, results = hashlib.sha256(), []
    for _ in range(6000):
        row, state = _random_row_state(rng)
        results.append(state.check_row(row))
    for r in results:
        digest.update(repr((r.ok, r.reason, r.code, r.witness)).encode())
    assert {r.code for r in results} == {None, 1, 2, 3, 4, 5}
    assert digest.hexdigest() == (
        "07a0601e8fd103c03baccaadf9e9bb81bcd3c8d887589bd945675519fe79dae7")


def _odd_strings_certificate():
    """A parsed certificate whose strings need escaping, with an empty block."""
    payload = json.loads(GOLDEN)
    payload["blocks"][0]["kind"] = 'double"ton\u00e9'
    payload["blocks"][0]["provenance"] = 'case1 "\u03c0" \\ \u20ac'
    payload["blocks"].append({"kind": "x", "members": [], "signs": [], "provenance": ""})
    return certificate_from_json(json.dumps(payload))


def test_certificate_emitter_matches_reference():
    """certificate_to_json writes exactly the bytes of canonical_json over
    certificate_payload, the reference layout."""
    rng = np.random.default_rng(96)
    gps = [build_good_partition(p) for n in range(1, 9) for p in all_patterns(n)]
    gps.append(build_good_partition((-1,) * 6))
    gps += [build_good_partition(tuple(rng.choice((1, -1), size=96).tolist()))
            for _ in range(5)]
    gps.append(_odd_strings_certificate())
    assert gps[-7].blocks == ()
    assert 'double\\"ton' in certificate_to_json(gps[-1])
    for gp in gps:
        assert certificate_to_json(gp) == canonical_json(certificate_payload(gp))


def test_certificate_emitter_edge_shapes():
    """Blocks of 0-5 members with as many signs, or with 0-5 signs of
    another count, are written as the reference writes them: one layout
    per (members, signs) count, bounded in number, with no second path.
    A member that is not a pair raises and is never re-paired."""
    pool = [TermIndex(i, j) for j in range(1, 7) for i in range(1, j + 1)]
    blocks = [PartitionBlock(f"kind{m}", tuple(pool[m:2 * m]), (1, -1, 1, -1, 1)[:s],
                             f"prov{s}")
              for m in range(6) for s in range(6)]
    for order in (blocks, blocks[::-1]):
        gp = GoodPartition(6, (1, -1, 1, 1, -1, -1), tuple(order))
        assert certificate_to_json(gp) == canonical_json(certificate_payload(gp))
    assert _block_layout.cache_info().maxsize is not None
    for members in (((1, 1, 1), (2,)), ((1, 2, 3),), ((1,), (1,)), ((1, 2), (3,))):
        gp = GoodPartition(2, (1, 1), (PartitionBlock("x", members, (1,) * len(members),
                                                      "y"),))
        with pytest.raises(ValueError):
            certificate_to_json(gp)
        with pytest.raises(ValueError):
            canonical_json(certificate_payload(gp))


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
    pytest.param("[" * 100_000, "not valid JSON", id="deep-nesting"),
    pytest.param('{"n": 1, "pattern": [1], "blocks": [{"kind": "singleton", '
                 '"members": [[1, ' + "9" * 5000 + ']], "signs": [1], '
                 '"provenance": "initial"}], "version": "1"}', "not valid JSON",
                 id="long-int"),
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
     '"version": "1"}', "bad member [2]"),
    ('{"n": 1, "pattern": [1], "blocks": [{"kind": "singleton", '
     '"members": [[true, true]], "signs": [1], "provenance": "initial"}], '
     '"version": "1"}', "bad member [True, True]"),
    ('{"n": 1, "pattern": [1], "blocks": [{"kind": "singleton", '
     '"members": [[1, 1]], "signs": [true], "provenance": "initial"}], '
     '"version": "1"}', "bad sign True"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [{"kind": "doubleton", '
     '"members": [[2, 2], [1, 2]], "signs": [1, 0], "provenance": "case1"}], '
     '"version": "1"}', "bad sign 0"),
    ('{"n": 2, "pattern": [-1, 1], "blocks": [{"kind": "doubleton", '
     '"members": [[2, 2], [1, 2]], "signs": [1, -1], "provenance": 3}], '
     '"version": "1"}', "provenance"),
])
def test_certificate_from_json_rejects(text, fragment):
    """fragment is part of the message; a bad member or bad sign message
    must equal it whole, so the value it reports is pinned too."""
    with pytest.raises(CertificateFormatError) as exc:
        certificate_from_json(text)
    msg = str(exc.value)
    assert msg == fragment if msg.startswith("bad ") else fragment in msg


# Seeds for the fuzzer: the golden certificate, and one with every block kind.
_FUZZ_SEEDS = [json.loads(GOLDEN),
               certificate_payload(build_good_partition((1, 1, -1, 1, -1)))]
_JUNK = [None, True, False, 0, -1, 1, 2, 7, 1.5, "", "1", "x", [], {}, [1],
         [[1, 1]], [1, -1], [[2, 2], [1, 2]], {"kind": "singleton"}]


def _slots(node):
    """Every (container, key) position inside a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_certificate_fuzz_mutated_golden(data):
    """Mutated certificates: the parser raises CertificateFormatError or
    nothing, and the validator always returns a CheckResult."""
    cert = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_SEEDS)))
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["drop", "retype", "swap", "duplicate"]))
        slots = list(_slots(cert))
        blocks = cert.get("blocks") if isinstance(cert.get("blocks"), list) else []
        if op == "drop" and slots:
            node, key = data.draw(st.sampled_from(slots))
            del node[key]
        elif op == "retype" and slots:
            node, key = data.draw(st.sampled_from(slots))
            node[key] = copy.deepcopy(data.draw(st.sampled_from(_JUNK)))
        elif op == "swap":
            members = [(b["members"], k) for b in blocks
                       if isinstance(b, dict) and isinstance(b.get("members"), list)
                       for k in range(len(b["members"]))]
            if len(members) >= 2:
                (a, i), (b, k) = data.draw(st.lists(st.sampled_from(members),
                                                    min_size=2, max_size=2))
                a[i], b[k] = b[k], a[i]
        elif op == "duplicate" and blocks:
            blocks.append(copy.deepcopy(data.draw(st.sampled_from(blocks))))
    try:
        gp = certificate_from_json(json.dumps(cert))
    except CertificateFormatError:
        return
    assert isinstance(validate_partition(gp), CheckResult)


def test_certificate_format_error_is_value_error():
    assert issubclass(CertificateFormatError, ValueError)


def test_records_keep_the_frozen_dataclass_contract(monkeypatch):
    """PartitionBlock and BuildStep are immutable, equal and hash by
    value, keep their field order and repr, and carry no __dict__, so
    each is at most one object the collector tracks.  build_good_partition and
    certificate_from_json run with the collector off and leave it as
    they found it, on return and on raise."""
    gp = build_good_partition((-1, 1, -1, -1))
    step = gp.trace[-1]
    block = step.created
    assert repr(PartitionBlock("singleton", (TermIndex(1, 1),), (1,), "initial")) == (
        "PartitionBlock(kind='singleton', members=(TermIndex(i=1, j=1),), signs=(1,), "
        "provenance='initial')")
    assert repr(step).startswith(f"BuildStep(k={step.k}, pair={step.pair!r}, "
                                 f"case={step.case!r}, operation={step.operation}, "
                                 f"consumed={step.consumed!r}, created=PartitionBlock(")
    twin = PartitionBlock(block.kind, tuple(TermIndex(i, j) for i, j in block.members),
                          tuple(block.signs), block.provenance)
    assert twin is not block and twin == block and hash(twin) == hash(block)
    assert twin != PartitionBlock(block.kind, block.members, block.signs, "initial")
    step_twin = BuildStep(step.k, TermIndex(*step.pair), step.case, step.operation,
                          tuple(step.consumed), twin)
    assert step_twin is not step and step_twin == step and hash(step_twin) == hash(step)
    for record, field in ((block, "kind"), (step, "case")):
        with pytest.raises(AttributeError):
            setattr(record, field, "x")
        assert not hasattr(record, "__dict__")

    class Injected(ConstructionFailure):
        pass

    def failing_row(self, q, j):
        raise Injected(1, TermIndex(1, j), "injected", ())

    text = certificate_to_json(gp)
    seen = []
    row = BuildState.row

    def watched_row(self, q, j):
        seen.append(gc.isenabled())
        row(self, q, j)

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(BuildState, "row", watched_row)
            assert build_good_partition(gp.pattern) == gp
            assert gc.isenabled() is enabled
            assert certificate_from_json(text).blocks == gp.blocks
            assert gc.isenabled() is enabled
            monkeypatch.setattr(BuildState, "row", failing_row)
            with pytest.raises(Injected):
                build_good_partition(gp.pattern)
            assert gc.isenabled() is enabled
            with pytest.raises(CertificateFormatError):
                certificate_from_json(text.replace('"n": 4', '"n": 5'))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


def _mutated_block_lists(blocks, rng):
    """The blocks, then copies in which one seeded block is dropped,
    listed twice, given a flipped sign, a new provenance or a new kind,
    or swaps its first member with the next block's."""
    yield blocks
    if not blocks:
        return
    a = int(rng.integers(len(blocks)))
    b, rest = blocks[a], blocks[:a] + blocks[a + 1:]
    yield rest
    yield blocks + (b,)
    kind, members, signs, provenance = b.kind, b.members, b.signs, b.provenance
    yield rest + (PartitionBlock(kind, members, (-signs[0],) + signs[1:], provenance),)
    yield rest + (PartitionBlock(kind, members, signs,
                                 "case1" if provenance != "case1" else "initial"),)
    yield rest + (PartitionBlock("doubleton" if kind != "doubleton" else "singleton",
                                 members, signs, provenance),)
    if len(blocks) > 1:
        c = blocks[(a + 1) % len(blocks)]
        others = tuple(x for x in blocks if x is not b and x is not c)
        yield others + (
            PartitionBlock(kind, (c.members[0],) + members[1:], signs, provenance),
            PartitionBlock(c.kind, (members[0],) + c.members[1:], c.signs, c.provenance))


def test_verdicts_do_not_depend_on_block_order():
    """For every pattern with n <= 8 and mutated block lists of each, the
    accept/reject verdicts of validate_partition and of AuditState.final
    after the sweep's row-by-row replay are those of the same blocks
    under seeded permutations (the reason text may differ)."""
    rng = np.random.default_rng(18)
    verdicts = set()
    for n in range(1, 9):
        for idx in range(2 ** n):
            pattern = pattern_from_index(n, idx)
            q = prefix_classes(pattern)
            build, audit = BuildState(n), AuditState()
            for j in range(1, n + 1):
                k0 = len(build.steps)
                build.row(q, j)
                assert audit.row(q, j, build.steps, k0)
            for blocks in _mutated_block_lists(build.partition(pattern).blocks, rng):
                verdict = (validate_partition(GoodPartition(n, pattern, blocks)).ok,
                           audit.final(blocks).ok)
                verdicts.add(verdict)
                for _ in range(3):
                    shuffled = tuple(blocks[k] for k in rng.permutation(len(blocks)))
                    assert (validate_partition(GoodPartition(n, pattern, shuffled)).ok,
                            audit.final(shuffled).ok) == verdict
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def _neighbour(t, n):
    """The first of t's four neighbours that lies in the triangle of n."""
    i, j = t
    for ci, cj in ((i - 1, j), (i + 1, j), (i, j + 1), (i, j - 1)):
        if 1 <= ci <= cj <= n:
            return TermIndex(ci, cj)
    return None


def test_validator_reasons_pinned():
    """For every pattern with n <= 8, in pattern_from_index order:
    validate_partition over the _mutated_block_lists copies of its
    build; over each block dropped, given a flipped first sign, or with
    its first member moved to a neighbour (as criterion 9 mutates), and
    each block of two or four split into singletons; and over the build
    read under each pattern one sign away.  The (ok,
    reason, code, witness) of each hash to one fixed digest: a change to
    any verdict, reason text, code or witness fails here."""
    rng = np.random.default_rng(20)
    digest, results = hashlib.sha256(), []
    for n in range(1, 9):
        for idx in range(2 ** n):
            pattern = pattern_from_index(n, idx)
            blocks = build_good_partition(pattern).blocks
            inputs = [(pattern, m) for m in _mutated_block_lists(blocks, rng)]
            for k, b in enumerate(blocks):
                rest = blocks[:k] + blocks[k + 1:]
                inputs.append((pattern, rest))
                inputs.append((pattern, rest + (PartitionBlock(
                    b.kind, b.members, (-b.signs[0],) + b.signs[1:], b.provenance),)))
                target = _neighbour(b.members[0], n)
                if target is not None:
                    inputs.append((pattern, rest + (PartitionBlock(
                        b.kind, (target,) + b.members[1:], b.signs, b.provenance),)))
                if len(b.members) > 1:
                    inputs.append((pattern, rest + tuple(
                        PartitionBlock("singleton", (t,), (s,), b.provenance)
                        for t, s in zip(b.members, b.signs))))
            inputs += [(pattern_from_index(n, idx ^ 1 << bit), blocks) for bit in range(n)]
            results += [validate_partition(GoodPartition(n, p, m)) for p, m in inputs]
    for r in results:
        digest.update(repr((r.ok, r.reason, r.code, r.witness)).encode())
    assert len(results) == 20_184
    assert {r.reason.split(":")[0] for r in results if not r.ok} == {
        "bad-kind", "not-noncanonical", "sign-mismatch", "duplicate-member",
        "bad-singleton", "bad-doubleton", "bad-quadrupleton", "incomplete-cover"}
    assert digest.hexdigest() == (
        "b8f25ba352a67029a39c2fdbe0b8b254058a9a524b61fa6c50bd146cb96cb5ae")


def test_validator_rectangle_reasons_pinned():
    """For every pattern with n <= 7 and every rectangle c0 < c1 <= r0 <
    r1 whose four corners are in J: the build with the blocks that hold
    a corner replaced by one quadrupleton of the corners, listed as the
    builder lists them, with their true signs.  Its (ok, reason, code,
    witness) hash to one fixed digest.  The mutations of
    test_validator_reasons_pinned reach no corner-sign reason; here each
    corner but (c1, r1) is named, and (c1, r1) cannot fail alone: the
    parity of c1 + r1 follows from the other three corners'."""
    digest, corners_failed = hashlib.sha256(), set()
    for n in range(1, 8):
        for idx in range(2 ** n):
            pattern = pattern_from_index(n, idx)
            blocks = build_good_partition(pattern).blocks
            members, quads = {t for b in blocks for t in b.members}, []
            for c0, c1 in itertools.combinations(range(1, n + 1), 2):
                for r0, r1 in itertools.combinations(range(c1, n + 1), 2):
                    quad = ((c1, r0), (c0, r0), (c1, r1), (c0, r1))
                    if members.issuperset(quad):
                        quads.append(quad)
            for quad in quads:
                rest = tuple(b for b in blocks if not set(b.members) & set(quad))
                r = validate_partition(GoodPartition(n, pattern, rest + (
                    block_of(quad, pattern, prov="case2-op2"),)))
                digest.update(repr((r.ok, r.reason, r.code, r.witness)).encode())
                corners_failed |= {k for k, t in enumerate(quad)
                                   if f"corner {t} must" in (r.reason or "")}
    assert corners_failed == {0, 1, 3}
    assert digest.hexdigest() == (
        "8e426bd054aea29e3cea48e4b70124dca4c0bc9f494ed3847a2d259cec739e11")


def test_construction_failure_carries_context():
    err = ConstructionFailure(3, TermIndex(1, 4), "case3: boom", ())
    assert err.step == 3 and err.pair == (1, 4) and "boom" in str(err)


def _row_fails(pattern, j, edit=lambda state: None):
    """The message of the ConstructionFailure that row j raises after
    rows 1..j-1 were built and edit was applied to the state."""
    q = prefix_classes(pattern)
    state = BuildState(len(pattern))
    for r in range(1, j):
        state.row(q, r)
    edit(state)
    with pytest.raises(ConstructionFailure) as info:
        state.row(q, j)
    return str(info.value)


def _case2_writes(monkeypatch, drop):
    """Make every Case-2 step leave its pair in a block of its own
    (drop None) or in a doubleton under (column, pair row - drop)."""
    absorb = BuildState._absorb

    def patched(self, k, neg, case, *args):
        absorb(self, k, neg, case, *args)
        if case == "case2":
            members = (neg,) if drop is None else (TermIndex(neg[0], neg[1] - drop), neg)
            self.owner[neg] = PartitionBlock(KINDS[len(members)], members,
                                             (1, -1)[-len(members):], "case2-op1")

    monkeypatch.setattr(BuildState, "_absorb", patched)


def _clear_sing(r, i):
    def edit(state):
        state.sing[r] &= ~(1 << i)
    return edit


def test_case2_failure_reasons():
    """Case 2 asserts that exactly one positive below the anchor is
    usable.  (1, -1, 1): row 2's anchor (1, 2) can use only the singleton
    (1, 1); (1, -1, -1, -1): row 4's anchor (1, 4) uses (1, 3), and
    (1, 1), in J but absorbed, becomes usable once it is marked sing."""
    assert _row_fails((1, -1, 1), 2, _clear_sing(1, 1)) == (
        "step 1, pair (1, 2): case2: no usable positive in the vertical list")

    def mark(state):
        state.sing[1] |= 1 << 1
    assert _row_fails((1, -1, -1, -1), 4, mark) == (
        "step 2, pair (1, 4): case2: usable positive not unique: [(1, 1), (1, 3)]")


def test_case3_failure_reasons(monkeypatch):
    """Case 3 mirrors the anchor's drop.  (1, 1, 1, -1): row 4's anchor
    (3, 4) drops to (3, 3) and (1, 4) then uses the singleton (1, 3);
    (1, 1, 1, 1, -1, 1): row 6's anchor (3, 6) drops to (3, 3), and a
    drop to row 5 would point (1, 6) at (1, 5), which is not in J."""
    assert _row_fails((1, 1, 1, -1), 4, _clear_sing(3, 1)) == (
        "step 2, pair (1, 4): case3: positive pair (1, 3) neither sing nor in an "
        "hdoub usable for operation 2")
    _case2_writes(monkeypatch, None)
    assert _row_fails((1, 1, 1, -1), 4) == (
        "step 2, pair (1, 4): case3: anchor (3, 4) not in nvdoub configuration")
    _case2_writes(monkeypatch, 1)
    assert _row_fails((1, 1, 1, 1, -1, 1), 6) == (
        "step 5, pair (1, 6): case3: expected positive pair (1, 5) not in J")
