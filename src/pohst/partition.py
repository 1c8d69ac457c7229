"""Good partitions of the non-canonical term set, with certificates.

A *good partition* covers the non-canonical index set J of a sign
pattern by three block shapes:

  singleton     {(i,j)+}
  doubleton     {(i,j)+, (i',j')-} with (i' <= i, j' = j) or (i' = i, j <= j')
  quadrupleton  axis-aligned rectangle with positive product signs on the
                bottom-right and top-left corners and negative on the
                other two.

Block-wise, each shape forces the product of its terms under v to be
dominated by the product under the mirror -|v|; a good partition of J
therefore certifies f_n(v) <= f_n(-|v|) <= 2^floor((n+1)/2).

The builder processes negative members of J in the total order of
prec_key (lower rows first, right to left inside a row), one row at a
time (BuildState.row): row j puts its positive members into singletons,
then absorbs its negatives.  A negative is absorbed by one of two
operations: operation 1 merges it with a singleton positive into a
doubleton; operation 2 completes a rectangle from a positive's
horizontal doubleton (hdoub) and a singleton positive corner in row j.
Three cases decide where that positive lies: Case 1 (operation 1 only)
right of the negative in row j, Cases 2 and 3 below it in its column
(BuildState._usable).
The case analysis is a constructive proof, so every "some block must
exist here" claim is asserted at run time and a violation raises
ConstructionFailure with the full trace.  Row j reads only x_1..x_j,
which lets a sweep share the rows of a common prefix.

The audit (AuditState) is a fold over rows in the same way: it seeds
each row from the prefix classes just before that row's steps and
replays them against the five impossible configurations.
AuditState._entries is the one reader of corner roles: it returns a
block's row entries directly, none for a singleton.  The replay compares
indices as plain tuples, whatever record type a trace carries.

The validator is written against the block-shape definition only and
shares no shape logic with the builder, so a certificate produced by
one can be rejected by the other if either is wrong.  It also keeps its
own prefix-product derivation of J instead of calling the builder-side
noncanonical_set or prefix_classes: with r_k = (-1)^k x_1...x_k, a
member (i, j) is in J iff r_{i-1} != r_j, and its sign is then
(-1)^(i+j).  It checks each member in O(1), keyed by the int i(n+1) + j
once its bounds are checked, and the cover by count.  validate_partition
is the composition of its two halves: check_blocks, the per-block check,
over every block, then check_cover.  The sweep (search.sweep_patterns)
runs the same check_blocks row by row, on the blocks row j of a build
creates, with the classes r_0..r_j, and at each leaf only on the listed
blocks no row checked, before it counts the cover (covers_by_count).
"""

from __future__ import annotations

import gc
import json
import math
from bisect import bisect_left
from collections.abc import Sized
from dataclasses import dataclass
from functools import lru_cache, partial, wraps
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .triangle import (
    TermIndex,
    as_sign_pattern,
    as_vector,
    eval_f,
    leq_with_tol,
    negate_abs,
    prefix_classes,
    product_sign,
    running_terms,
    sign_pattern_of,
)

#: Serialized certificate format version.
CERTIFICATE_VERSION = "1"

#: The longest pattern build_good_partition accepts.  A build holds about
#: 400 B per member of J and |J| is about n^2/4: a seeded random pattern
#: of this length has 1,048,670 members and peaked at 425 MB under
#: tracemalloc.
MAX_BUILD_N = 2048

#: The provenance a builder step writes, by case and operation, and the
#: signs of a rectangle in prec order: hdoub positive, hdoub negative,
#: absorbed negative, corner.
_OP1_PROVENANCE = {"case1": "case1", "case2": "case2-op1", "case3": "case3-op1"}
_OP2_PROVENANCE = {"case2": "case2-op2", "case3": "case3-op2"}
_RECTANGLE_SIGNS = (1, -1, -1, 1)
#: What AuditState.step pops for a member set that is not live.
_ABSENT = object()


def prec_key(t: TermIndex) -> tuple[int, int]:
    """Sort key of the processing order, lower rows first and right to
    left within a row: (i, j) comes before (i', j') iff j < j', or
    j = j' and i > i'."""
    return (t[1], -t[0])


class PartitionBlock(NamedTuple):
    """One block, field for field as in a certificate.  signs[k] is the
    sign the block claims for members[k]; it is stored because a
    certificate can get it wrong, and the validator checks it.

    A tuple, not a frozen dataclass: a build or a parse makes about 2.5
    records per member of J, and a tuple is one object the cyclic
    collector tracks where a dataclass instance is two (itself and its
    __dict__), and costs less than half as much to make.  Its repr, value
    equality and hash are those the dataclass had.  BuildState.row and
    certificate_from_json make it with tuple's own constructor (_block),
    which skips the NamedTuple's Python-level __new__: about 210 ns a
    record against 300 ns on CPython 3.11."""

    kind: str
    members: tuple[TermIndex, ...]
    signs: tuple[int, ...]
    provenance: str


class BuildStep(NamedTuple):
    """One absorption step of the builder: which negative pair, which
    case and operation, which blocks were consumed and created.

    Each block is built once per build: a consumed block is the very
    object an earlier step created, or an initial singleton.  A tuple,
    made by BuildState._absorb with tuple's constructor (_step), for the
    reasons PartitionBlock gives."""

    k: int
    pair: TermIndex
    case: str
    operation: int
    consumed: tuple[PartitionBlock, ...]
    created: PartitionBlock


# tuple's own C constructor for the records the hot loops make (one
# BuildState.row member, one parsed member): it skips the Python-level
# __new__ of a NamedTuple, and with it the arity check, so it is only
# ever given a tuple literal of the record's size, or a parsed member
# whose length and types were checked first.
_term = partial(tuple.__new__, TermIndex)
_block = partial(tuple.__new__, PartitionBlock)
_step = partial(tuple.__new__, BuildStep)


@dataclass(frozen=True)
class GoodPartition:
    n: int
    pattern: tuple[int, ...]
    blocks: tuple[PartitionBlock, ...]
    trace: tuple[BuildStep, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    reason: str | None = None
    witness: object = None
    code: int | None = None

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = CheckResult(True)


class ConstructionFailure(Exception):
    """The constructive case analysis hit a state it claims impossible."""

    def __init__(self, step: int, pair: TermIndex, reason: str,
                 trace: tuple[BuildStep, ...]):
        self.step = step
        self.pair = pair
        self.reason = reason
        self.trace = trace
        super().__init__(f"step {step}, pair {tuple(pair)}: {reason}")


# ---------------------------------------------------------------------------
# Builder


def _collector_paused(fn):
    """Run fn with the cyclic collector off and restore the caller's
    on/off state afterwards, on return or raise.  The records a build or
    a parse makes form no reference cycles, yet each pass of the
    collector over them costs time linear in all of them (about 40 % of
    an n = 1000 build).

    The pause defers those passes; it skips them only for records that
    die inside it.  Records that outlive fn are still tracked, and the
    caller's next allocations start the passes over them, so a caller
    that frees them soon (pohst certify and check) pauses around its
    whole use of them."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _row_members(q: Sequence[int], j: int) -> tuple[list[int], list[int]]:
    """First indices i, ascending, of the positive and of the negative
    members (i, j) of J in row j, from the prefix classes q_0..q_j:
    (i, j) is in J iff q[i-1] != q[j], and positive iff i = j (mod 2), so
    each half is a stride-2 range, the positives' ending at i = j."""
    qj, p = q[j], 2 - (j & 1)
    return ([i for i in range(p, j + 1, 2) if q[i - 1] != qj],
            [i for i in range(3 - p, j, 2) if q[i - 1] != qj])


class BuildState:
    """The builder's state after rows 1..j of a pattern.

    owner maps each member of J in rows <= j to the block that holds it;
    sing[r] has bit i set while (i, r) is a singleton positive, which
    is what Case 1 and _usable read (only positive members of J ever
    get a bit); steps is the trace so far.  Row j reads only
    x_1..x_j, so every pattern with the same prefix shares this state.

    A step writes its block in final form (_absorb): the case fixes the
    kind, the prec order of the members and the signs, so none of them
    is derived per member.
    """

    __slots__ = ("owner", "sing", "steps")

    def __init__(self, n: int):
        self.owner: dict[TermIndex, PartitionBlock] = {}
        self.sing = [0] * (n + 1)
        self.steps: list[BuildStep] = []

    def copy(self) -> BuildState:
        c = BuildState.__new__(BuildState)
        c.owner, c.sing, c.steps = self.owner.copy(), self.sing[:], self.steps[:]
        return c

    def row(self, q: Sequence[int], j: int) -> None:
        """Apply row j: put its positive members of J as initial
        singletons, then absorb its negatives right to left.

        Positives go in right to left, so owner takes them in prec order;
        a block's first member is a positive, and a reassigned key keeps
        its slot, so owner lists block heads in prec order, unsorted.

        The row's members of J and their signs come from the prefix
        classes q_0..q_j alone, split once by _row_members.  Raises
        ConstructionFailure when a case's existence or uniqueness
        assertion fails; the exception carries the trace up to that point.
        """
        owner, sing, steps = self.owner, self.sing, self.steps
        positives, negatives = _row_members(q, j)
        mask = 0
        for i in reversed(positives):
            p = _term((i, j))
            owner[p] = _block(("singleton", (p,), (1,), "initial"))
            mask |= 1 << i
        sing[j] = mask
        anchor = None   # the row's first Case-1 failure

        for i in reversed(negatives):
            neg = _term((i, j))
            k = len(steps) + 1

            # Case 1: prec-maximal sing positive to the right in row j,
            # i.e. the one with the smallest first index: the lowest bit
            # of sing[j] above bit i.  Its singleton holds its index.
            right = sing[j] >> (i + 1)
            if right:
                pos = owner[(right & -right).bit_length() + i, j].members[0]
                self._absorb(k, neg, "case1", pos)
                continue

            # Anchor: prec-minimal Case-1 failure in the row segment, which
            # is the failed pair with the largest first index.  Rows are
            # processed right to left, so that is the row's first failure;
            # without one, neg becomes it.
            if anchor is None:
                anchor = neg
                # Case 2: exactly one positive (i, r), r = i, i+2, .., j-1,
                # in the column segment below neg is usable.
                found = [u for r in range(i, j, 2) if (u := self._usable((i, r), j))]
                if not found:
                    raise self._fail(k, neg, "case2: no usable positive in the vertical list")
                if len(found) > 1:
                    raise self._fail(k, neg, "case2: usable positive not unique: "
                                     f"{[tuple(keys[0]) for keys in found]}")
                self._absorb(k, neg, "case2", *found[0])
                continue

            # Case 3: the anchor was absorbed vertically; mirror its drop,
            # read from the first member of its block, the positive.
            top = owner[anchor].members[0]
            if top[0] != anchor[0] or top[1] >= j:
                raise self._fail(k, neg, f"case3: anchor {tuple(anchor)} not in nvdoub "
                                 "configuration")
            j1 = top[1]
            if q[i - 1] == q[j1] or (i + j1) % 2:
                raise self._fail(k, neg, f"case3: expected positive pair {(i, j1)} not in J")
            usable = self._usable((i, j1), j)
            if usable is None:
                raise self._fail(k, neg, f"case3: positive pair {(i, j1)} neither sing "
                                 "nor in an hdoub usable for operation 2")
            self._absorb(k, neg, "case3", *usable)

    def _absorb(self, k: int, neg: TermIndex, case: str, pos: TermIndex,
                corner: TermIndex | None = None) -> None:
        """Merge neg with the sing positive pos (operation 1, and Case 1),
        or with the hdoub of pos and the sing corner (operation 2).

        The case fixes the created block's shape, so its members are
        written in prec order and its signs taken from constants, with
        no sort and no per-member parity: pos lies right of neg in row
        j or in a lower row, and the hdoub of pos is (pos, (c, r)) with
        c < pos[0] and corner (c, j).  The one singleton consumed has
        its sing bit cleared at its known position.
        """
        owner = self.owner
        if corner is None:
            consumed = (owner[pos],)
            self.sing[pos[1]] &= ~(1 << pos[0])
            created = _block(("doubleton", (pos, neg), (1, -1), _OP1_PROVENANCE[case]))
            owner[pos] = owner[neg] = created
        else:
            hdoub = owner[pos]
            consumed = (hdoub, owner[corner])
            self.sing[corner[1]] &= ~(1 << corner[0])
            created = _block(("quadrupleton", hdoub.members + (neg, corner),
                              _RECTANGLE_SIGNS, _OP2_PROVENANCE[case]))
            for m in created.members:
                owner[m] = created
        self.steps.append(_step((k, neg, case, len(consumed), consumed, created)))

    def _usable(self, pos: tuple[int, int], j: int) -> tuple[TermIndex, ...] | None:
        """How the positive pos, below row j, can absorb a negative of
        row j: (pos,) while it is sing (operation 1); (pos, corner) while
        it sits in an hdoub whose negative partner (c, r) has c < pos[0]
        and the corner (c, j) is sing (operation 2); else None, also when
        pos is not in J.  The indices returned are those owner holds."""
        i, r = pos
        if self.sing[r] >> i & 1:
            return (self.owner[pos].members[0],)
        block = self.owner.get(pos)
        if block is None or len(block.members) != 2:
            return None
        c, r2 = block.members[1]
        if r2 != r or c >= i or not self.sing[j] >> c & 1:
            return None
        return block.members[0], self.owner[c, j].members[0]

    def _fail(self, k: int, neg: TermIndex, reason: str) -> ConstructionFailure:
        return ConstructionFailure(k, neg, reason, tuple(self.steps))

    def partition(self, pattern: tuple[int, ...]) -> GoodPartition:
        """The finished partition, each block listed once, under its
        first member, in prec order: the order owner holds them in by
        construction (row)."""
        blocks = tuple(b for t, b in self.owner.items() if b.members[0] == t)
        return GoodPartition(len(pattern), pattern, blocks, tuple(self.steps))


@_collector_paused
def build_good_partition(pattern: Sequence[int]) -> GoodPartition:
    """Construct a good partition of the non-canonical set of a pattern.

    A fold of BuildState.row over rows 1..n.  Returns the finished
    partition together with the full build trace.  Raises
    ConstructionFailure when a case's existence or uniqueness assertion
    fails; the exception carries the trace up to that point, and
    ValueError, before any row, on a pattern longer than MAX_BUILD_N.
    """
    pat = as_sign_pattern(pattern)
    if len(pat) > MAX_BUILD_N:
        raise ValueError(f"pattern has {len(pat)} entries, a build accepts at most "
                         f"{MAX_BUILD_N}")
    q = prefix_classes(pat)
    state = BuildState(len(pat))
    for j in range(1, len(pat) + 1):
        state.row(q, j)
    return state.partition(pat)


# ---------------------------------------------------------------------------
# Independent validator


#: Block kinds and their sizes, as the validator reads them.
_SHAPE_SIZES = {"singleton": 1, "doubleton": 2, "quadrupleton": 4}


def _non_pair_reason(members: Iterable) -> str | None:
    """The bad-index reason of the first member that does not unpack to
    two ints (which operator.index accepts, as list indexing does), or
    None."""
    for m in members:
        try:
            i, j = m
            index(i), index(j)
        except (TypeError, ValueError):
            return f"bad-index: {m!r} is not a pair of ints"
    return None


def validator_classes(pattern: Sequence[int]) -> list[int]:
    """The validator's own r_0..r_n of a checked pattern, r_k =
    (-1)^k x_1...x_k: (i, j) is in J iff r_{i-1} != r_j, and its sign is
    then (-1)^(i+j)."""
    r = [1] * (len(pattern) + 1)
    for k, x in enumerate(pattern, start=1):
        r[k] = -r[k - 1] * x
    return r


def noncanonical_size(r: Sequence[int]) -> int:
    """|J| of the pattern with classes r_0..r_n: the product of the
    sizes of r's two classes."""
    a = r.count(1)
    return a * (len(r) - a)


def check_blocks(blocks: Iterable[PartitionBlock], r: Sequence[int],
                 seen: set[int]) -> CheckResult | None:
    """The per-block half of validate_partition: the verdict on the first
    block that is not a legal block of J, else None.

    A legal block has a known kind and size, one sign per member, and
    distinct members (i, j) with 1 <= i <= j <= top, each in J by
    r_0..r_top with its true sign (-1)^(i+j), in one of the three
    shapes.  The top row a member may sit in is len(r) - 1: n for the
    classes of a whole pattern, j for r_0..r_j, which the sweep passes
    with the blocks row j of a build creates.  Each member is keyed in
    seen by the int i len(r) + j once its bounds are checked, so a
    member met twice in one call, in one block or in two, is a duplicate.
    A listed entry that is not a block, such as None, is a bad kind.
    """
    width = len(r)
    top = width - 1
    for b in blocks:
        try:
            kind, members, signs = b.kind, b.members, b.signs
            if kind not in ("singleton", "doubleton", "quadrupleton"):
                return CheckResult(False, f"bad-kind: {kind!r}", b)
            if len(members) != _SHAPE_SIZES[kind]:
                return CheckResult(False, f"bad-kind: {kind} with {len(members)} members", b)
            if len(signs) != len(members):
                return CheckResult(False, f"bad-signs: {len(signs)} signs for "
                                   f"{len(members)} members", b)
        except AttributeError:   # a listed entry that is not a block, such as None
            return CheckResult(False, f"bad-kind: {b!r} is not a block", b)
        except TypeError:
            # members or signs without a length, such as None (the
            # certificate parser admits neither): members are read first.
            if not isinstance(members, Sized):
                return CheckResult(False, f"bad-kind: {kind} with members {members!r}", b)
            return CheckResult(False, f"bad-signs: {signs!r} for {len(members)} members", b)
        try:
            for (i, j), sign in zip(members, signs):
                if not (1 <= i <= j <= top):
                    return CheckResult(False, f"bad-index: {(i, j)}", b)
                if r[i - 1] == r[j]:
                    return CheckResult(False, f"not-noncanonical: {(i, j)}", b)
                if sign != (-1 if (i + j) & 1 else 1):
                    return CheckResult(False, f"sign-mismatch: {(i, j)}", b)
                key = i * width + j
                if key in seen:
                    return CheckResult(False, f"duplicate-member: {(i, j)}", b)
                seen.add(key)
        except (TypeError, ValueError):
            # A member that is not a pair of ints raises here (the
            # certificate parser admits none).  The members before it
            # passed, so it is the first such member; without one, a
            # sign's comparison raised (an array's truth is ambiguous),
            # and the block's signs are bad.
            reason = _non_pair_reason(members) or (
                f"bad-signs: {signs!r} for {len(members)} members")
            return CheckResult(False, reason, b)

        # From here on the members of b are distinct and each claimed
        # sign is the true sign (-1)^(i+j) of its member.
        if kind == "singleton":
            if signs[0] != 1:
                return CheckResult(False, "bad-singleton: negative sign", b)
        elif kind == "doubleton":
            (s0, s1), (m0, m1) = signs, members
            if s0 > 0 > s1:
                (pi, pj), (ni, nj) = m0, m1
            elif s1 > 0 > s0:
                (pi, pj), (ni, nj) = m1, m0
            else:
                return CheckResult(False, "bad-doubleton: must pair one + with one -", b)
            horizontal = nj == pj and ni < pi
            vertical = ni == pi and nj > pj
            if not (horizontal or vertical):
                return CheckResult(False, "bad-doubleton: negative must sit left in the "
                                   "row or above in the column", b)
        else:
            (i0, j0), (i1, j1), (i2, j2), (i3, j3) = members
            cols, rows = {i0, i1, i2, i3}, {j0, j1, j2, j3}
            # Four distinct members on two columns and two rows are
            # exactly the four corners of the rectangle.
            if len(cols) != 2 or len(rows) != 2:
                return CheckResult(False, "bad-quadrupleton: not a rectangle", b)
            (c0, c1), (r0, r1) = sorted(cols), sorted(rows)
            # Three corners decide the fourth: c1 + r1 = (c1 + r0) +
            # (c0 + r1) - (c0 + r0) is odd once the first two sums are
            # even and the third odd, so (c1, r1) is then negative.
            if (c1 + r0) & 1 or (c0 + r1) & 1 or not (c0 + r0) & 1:
                for c, row, want in ((c1, r0, 1), (c0, r1, 1), (c0, r0, -1)):
                    if (1 if (c + row) % 2 == 0 else -1) != want:
                        return CheckResult(False, f"bad-quadrupleton: corner {(c, row)} "
                                           f"must have sign {want:+d}", b)
    return None


def check_cover(r: Sequence[int], seen: set[int]) -> CheckResult:
    """The cover half of validate_partition: seen holds the keys i (n+1) + j
    of distinct members of J (check_blocks with r_0..r_n), so they cover J
    iff they number |J|; else the first missing members, by row of J.
    Row i of J is the k >= i in the class opposite r_{i-1}."""
    if len(seen) == noncanonical_size(r):
        return ACCEPT
    n = len(r) - 1
    width = n + 1
    classes = {c: [k for k in range(n + 1) if r[k] == c] for c in (1, -1)}
    missing: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        other = classes[-r[i - 1]]
        missing += [(i, k) for k in other[bisect_left(other, i):]
                    if i * width + k not in seen]
        if len(missing) > 4:
            break
    return CheckResult(False, f"incomplete-cover: missing {missing[:4]}"
                       + ("..." if len(missing) > 4 else ""))


def covers_by_count(blocks: Sequence[PartitionBlock], r: Sequence[int]) -> bool:
    """check_cover for blocks that each passed check_blocks, though not
    in one call: their members are in J and distinct within each block,
    so they cover J exactly iff they are distinct across blocks and
    number |J|.  Its one caller, the sweep's leaf, passes the builder's
    blocks, whose members are tuples."""
    members = [m for b in blocks for m in b.members]
    return len(members) == noncanonical_size(r) and len(set(members)) == len(members)


def validate_partition(gp: GoodPartition) -> CheckResult:
    """Check a partition against the block-shape definition alone.

    Re-derives the non-canonical set from the pattern; accepts iff the
    blocks are disjoint, cover it exactly, carry correct signs, and
    every block has one of the three legal shapes: check_blocks over
    all blocks with r_0..r_n and one seen set, then check_cover.
    """
    try:
        pat = as_sign_pattern(gp.pattern)
    except ValueError as e:
        return CheckResult(False, f"bad-pattern: {e}")
    n = len(pat)
    if gp.n != n:
        return CheckResult(False, f"bad-pattern: n={gp.n} but pattern has {n} entries")
    r, seen = validator_classes(pat), set()
    bad = check_blocks(gp.blocks, r, seen)
    return check_cover(r, seen) if bad is None else bad


# ---------------------------------------------------------------------------
# Impossible configurations


def _plain_pair(pair: object) -> object:
    """A trace step's pair as a plain tuple, or as it is if not iterable."""
    try:
        return tuple(pair)
    except TypeError:
        return pair


class AuditState:
    """The audit's replay state: the live blocks (members -> provenance),
    the Case-2 anchors so far, and the per-row view that the five
    impossible configurations read.  All five live inside one row, so
    the one-shot scan and the replay both reduce to check_row.

    negatives: row -> first indices of the row's negatives in J
    nh: row -> list of (neg first index, positive partner first index)
    nv: row -> list of (neg first index, drop length)
    vd: row -> first indices of positives sitting in vertical doubletons

    seed puts a row in from the prefix classes just before its steps,
    as BuildState.row does; step is the one per-step check.  live is
    keyed by the frozenset of a block's members; anchors and the pairs
    step compares are plain (i, j) tuples.  check_row is one full scan
    of its row's sorted spans and drops.
    """

    __slots__ = ("live", "anchors", "negatives", "nh", "nv", "vd")

    def __init__(self) -> None:
        self.live: dict[frozenset, str] = {}
        self.anchors: set[tuple[int, int]] = set()
        self.negatives: dict[int, list[int]] = {}
        self.nh: dict[int, list[tuple[int, int]]] = {}
        self.nv: dict[int, list[tuple[int, int]]] = {}
        self.vd: dict[int, list[int]] = {}

    def copy(self) -> AuditState:
        c = AuditState.__new__(AuditState)
        c.live, c.anchors, c.negatives = (self.live.copy(), self.anchors.copy(),
                                          self.negatives.copy())
        c.nh = {r: v[:] for r, v in self.nh.items()}
        c.nv = {r: v[:] for r, v in self.nv.items()}
        c.vd = {r: v[:] for r, v in self.vd.items()}
        return c

    def anchor(self, pair: object) -> bool:
        """Add a Case-2 pair, read by _plain_pair, to anchors; False, and
        nothing added, when it is not a tuple of two hashable entries."""
        if type(pair) is not tuple or len(pair) != 2:
            return False
        try:
            self.anchors.add(pair)
        except TypeError:   # an entry that cannot be hashed, such as a list
            return False
        return True

    def _entries(self, idx: tuple[TermIndex, ...]) -> tuple | None:
        """(structure, row, payload) contributions of one block; none for
        a block that is neither two nor four members, a singleton
        included, and None for four members that do not lie on two
        columns and two rows, whose corner roles do not exist.

        Signs are forced by index parity, so a doubleton's positive is
        the member with even i + j.
        """
        if len(idx) == 2:
            a, b = idx
            pos, neg = (a, b) if (a[0] + a[1]) % 2 == 0 else (b, a)
            if pos[1] == neg[1]:
                return ((self.nh, neg[1], (neg[0], pos[0])),)
            return ((self.nv, neg[1], (neg[0], neg[1] - pos[1])),
                    (self.vd, pos[1], pos[0]))
        if len(idx) == 4:
            cols = sorted({t[0] for t in idx})
            rows = sorted({t[1] for t in idx})
            if len(cols) != 2 or len(rows) != 2:
                return None
            # bottom-left negative pairs horizontally, top-right vertically
            return ((self.nh, rows[0], (cols[0], cols[1])),
                    (self.nv, rows[1], (cols[1], rows[1] - rows[0])))
        return ()

    def add(self, idx: tuple[TermIndex, ...]) -> set[int] | None:
        """Put one block in the row view; return the rows it touches, or
        None, with nothing put in, for four members that are not on two
        columns and two rows."""
        entries = self._entries(idx)
        if entries is None:
            return None
        touched = set()
        for struct, row, payload in entries:
            struct.setdefault(row, []).append(payload)
            touched.add(row)
        return touched

    def check_row(self, row: int) -> CheckResult:
        spans = sorted(self.nh.get(row, ()))
        drops = sorted(self.nv.get(row, ()))
        for a in range(len(spans) - 1):
            i1, e1 = spans[a]
            for b in range(a + 1, len(spans)):
                i2, e2 = spans[b]
                if i1 < i2 < e1 < e2:
                    return CheckResult(
                        False, f"impossible-configuration-1: interleaved nhdoub "
                        f"spans {(i1, e1)} and {(i2, e2)} in row {row}",
                        ((i1, row), (i2, row)), 1)
        for i1, e1 in spans:
            for i2, _l in drops:
                if i1 < i2 < e1:
                    return CheckResult(
                        False, f"impossible-configuration-2: nvdoub at {(i2, row)} "
                        f"inside nhdoub span {(i1, e1)} of row {row}",
                        ((i1, row), (i2, row)), 2)
        vd_here = self.vd.get(row, ())
        if vd_here:
            nh_negs = {i for i, _ in spans}
            not_nh = [i for i in self.negatives.get(row, ()) if i not in nh_negs]
            if not_nh:
                leftmost = min(not_nh)
                for ip in vd_here:
                    if leftmost < ip:
                        return CheckResult(
                            False, f"impossible-configuration-3: negative "
                            f"{(leftmost, row)} without nhdoub left of vdoub "
                            f"positive {(ip, row)}", ((leftmost, row), (ip, row)), 3)
        if len(drops) > 1:
            ia, la = drops[0]
            for ib, lb in drops:
                if lb != la:
                    return CheckResult(
                        False, f"impossible-configuration-4: nvdoub drops of lengths "
                        f"{la} and {lb} from row {row}", ((ia, row), (ib, row)), 4)
            for a in range(len(drops) - 1):
                i1 = drops[a][0]
                if (i1, row) in self.anchors:
                    i2 = drops[a + 1][0]
                    return CheckResult(
                        False, f"impossible-configuration-5: Case-2 pair {(i1, row)} "
                        f"left of nvdoub {(i2, row)}", ((i1, row), (i2, row)), 5)
        return ACCEPT

    def step(self, k: int, step: BuildStep, expected: tuple[int, int]) -> CheckResult:
        """Check step k, which must absorb expected: its numbering, its
        pair, that its consumed blocks are live, that it creates exactly
        their members plus the pair, as a block of two or four members,
        and that no affected row shows an impossible configuration.  The
        pair is compared as _plain_pair reads it, so one of other than two
        entries is a wrong pair, not an error, and a Case-2 pair equal to
        expected that cannot be an anchor is rejected."""
        if step.k != k:
            return CheckResult(False, f"step {k}: trace numbered {step.k}")
        pair = _plain_pair(step.pair)
        if pair != expected:
            return CheckResult(False, f"step {k} absorbed {pair}, expected "
                               f"{tuple(expected)} next in prec order")
        if step.case == "case2" and not self.anchor(pair):
            return CheckResult(False, f"step {k}: case2 pair {pair} is not "
                               "an index pair (i, j)")
        live, union = self.live, {pair}
        for blk in step.consumed:
            key = frozenset(blk.members)
            # members listed twice would match a live block of fewer members
            if len(key) != len(blk.members) or live.pop(key, _ABSENT) is _ABSENT:
                return CheckResult(False, f"step {k}: consumed block "
                                   f"{sorted(key)} is not present")
            for struct, row, payload in self._entries(blk.members):
                struct[row].remove(payload)
            union |= key
        created = step.created.members
        key = frozenset(created)
        if key != union:
            return CheckResult(False, f"step {k}: created block is not the consumed "
                               "members plus the absorbed pair")
        if len(created) != 2 and len(created) != 4:
            return CheckResult(False, f"step {k}: created block has {len(created)} members")
        live[key] = step.created.provenance
        touched = self.add(created)
        if touched is None:
            return CheckResult(False, f"step {k}: created block "
                               f"{sorted(map(tuple, key))} is not on two columns "
                               "and two rows")
        for row in touched:
            r = self.check_row(row)
            if not r:
                return CheckResult(False, f"step {k}: {r.reason}", r.witness, r.code)
        return ACCEPT

    def seed(self, q: Sequence[int], j: int) -> list[int]:
        """Put row j's positive members of J, split from its negatives by
        _row_members as BuildState.row splits them, in as initial
        singletons; store and return the first indices of its negatives,
        ascending."""
        positives, negatives = _row_members(q, j)
        for i in positives:
            self.live[frozenset(((i, j),))] = "initial"
        self.negatives[j] = negatives
        return negatives

    def row(self, q: Sequence[int], j: int, steps: Sequence[BuildStep],
            k0: int) -> CheckResult:
        """Seed row j, then check steps[k0:], which must absorb row j's
        negatives right to left, one step each."""
        negatives = self.seed(q, j)
        if len(steps) - k0 != len(negatives):
            return CheckResult(False, f"row {j}: {len(steps) - k0} steps for "
                               f"{len(negatives)} negative pairs")
        for k, i in enumerate(reversed(negatives), start=k0 + 1):
            r = self.step(k, steps[k - 1], (i, j))
            if not r:
                return r
        return ACCEPT

    def final(self, blocks: Iterable[PartitionBlock]) -> CheckResult:
        """The replay must end in exactly the given blocks: the listing,
        read as member set -> provenance, must equal live.  A block listed
        twice counts once, and twice with two provenances, or with members
        that make no member set, such as None, differs."""
        listed: dict[frozenset, str] = {}
        for b in blocks:
            try:
                key = frozenset(b.members)
            except (TypeError, AttributeError):   # no members, or not a block
                break
            if listed.setdefault(key, b.provenance) != b.provenance:
                break
        else:
            if listed == self.live:
                return ACCEPT
        return CheckResult(False, "final state of the replay differs from gp.blocks")


def check_impossible_configurations(gp: GoodPartition) -> CheckResult:
    """Scan one (possibly intermediate) partition state for the five
    configurations ruled out by the construction.

    Each row's negatives come from the prefix classes, as in the audit.
    Case-2 history is read from gp.trace; for states assembled by hand
    pass a trace whose steps carry the intended cases.  A Case-2 step
    whose pair is not an (i, j) pair is rejected by its step number; a
    listing or a trace that cannot be read as blocks of index pairs and
    steps, by one guard.
    """
    try:
        q = prefix_classes(gp.pattern)
    except ValueError as e:
        return CheckResult(False, f"bad-pattern: {e}")
    state = AuditState()
    for j in range(1, len(q)):
        state.seed(q, j)
    rows: set[int] = set()
    try:
        for b in gp.blocks:
            if not isinstance(b.members, Sized):
                return CheckResult(False, f"block members {b.members!r} are not a sequence", b)
            touched = state.add(b.members)
            if touched is None:
                return CheckResult(False, f"block {sorted(map(tuple, b.members))} of four "
                                   "members is not on two columns and two rows", b)
            rows |= touched
        for s in gp.trace:
            if s.case == "case2":
                pair = _plain_pair(s.pair)
                if not state.anchor(pair):
                    return CheckResult(False, f"step {s.k}: case2 pair {pair} is not "
                                       "an index pair (i, j)")
        for row in sorted(rows):
            r = state.check_row(row)
            if not r:
                return r
    except (TypeError, AttributeError, IndexError):
        return CheckResult(False, "a listed block or a trace step cannot be read")
    return ACCEPT


def _negative_count(q: Sequence[int]) -> int:
    """The number of negatives of J, from the prefix classes q_0..q_n.

    (i, j) is a negative iff q[i-1] != q[j] and i + j is odd, that is,
    k = i - 1 < j has the parity of j and the other class: one negative
    per pair {k, j} of indices of one parity in opposite classes.  Of
    the indices of parity p, A_p lie in class 1 and B_p in class -1,
    so there are A_0 B_0 + A_1 B_1."""
    even, odd = q[::2], q[1::2]
    a, b = even.count(1), odd.count(1)
    return a * (len(even) - a) + b * (len(odd) - b)


def audit_build(gp: GoodPartition) -> CheckResult:
    """Replay a build trace and re-check the structural invariants.

    A fold over rows 1..n, as build_good_partition folds BuildState.row:
    each row is seeded from the prefix classes (AuditState.seed) just
    before its steps, which absorb its negatives right to left, so a
    step sees only the blocks of rows up to its own.  After each step
    (AuditState.step): the absorbed pair is the next negative in prec
    order, the created block is exactly the consumed members plus that
    pair (so coverage grows by one and no later negative sneaks in), and
    no affected row shows an impossible configuration.  The replay must
    end in gp.blocks.  A trace, step or block it cannot read is rejected.
    """
    try:
        q = prefix_classes(gp.pattern)
    except ValueError as e:
        return CheckResult(False, f"bad-pattern: {e}")
    total = _negative_count(q)
    state, k = AuditState(), 0
    try:
        if len(gp.trace) != total:
            return CheckResult(False, f"trace has {len(gp.trace)} steps for "
                               f"{total} negative pairs")
        for j in range(1, len(q)):
            for i in reversed(state.seed(q, j)):
                r = state.step(k + 1, gp.trace[k], (i, j))
                if not r:
                    return r
                k += 1
    except (TypeError, AttributeError):   # a trace, step or block that cannot be read
        return CheckResult(False, f"trace cannot be read after {k} steps")
    return state.final(gp.blocks)


# ---------------------------------------------------------------------------
# Parity, rectangles, the ideal case, domination


def parity_counts(pattern: Sequence[int]) -> tuple[int, int]:
    """Counts (b_plus, b_minus) of non-canonical border pairs by sign.

    Border pairs are those with i = 1 or j = n.  For even n and an odd
    number of negative signs the two counts agree.
    """
    q = prefix_classes(pattern)
    n = len(q) - 1
    # (1, j) is in J iff q_j != q_0, and positive iff j is odd; (i, n),
    # 1 < i <= n, iff q_{i-1} != q_n, and positive iff i + n is even, that
    # is, iff k = i - 1 has the parity of n + 1.  q has entries +-1.
    first, last = -q[0], -q[n]
    odd, even = q[1:n:2].count(last), q[2:n:2].count(last)
    if n % 2:
        odd, even = even, odd
    return q[1::2].count(first) + odd, q[2::2].count(first) + even


def sign_rectangle_relation(pattern: Sequence[int],
                            corners: Sequence[TermIndex]) -> bool:
    """Whether opposite corners of a rectangle have equal sign products.

    s(i,j) s(i-l, j+l') = s(i-l, j) s(i, j+l') holds for every rectangle
    because every corner sign is a ratio of the same prefix products;
    the function exists so that the identity is checked, not assumed.
    """
    pat = as_sign_pattern(pattern)
    n = len(pat)
    pts = [TermIndex(*c) for c in corners]
    if len(pts) != 4 or len(set(pts)) != 4:
        raise ValueError("need four distinct corners")
    cols = sorted({p[0] for p in pts})
    rows = sorted({p[1] for p in pts})
    # four distinct points on two columns and two rows are the four corners
    if len(cols) != 2 or len(rows) != 2:
        raise ValueError("corners do not form an axis-aligned rectangle")
    if not (1 <= cols[0] and cols[1] <= rows[0] and rows[1] <= n):
        raise ValueError("rectangle leaves the triangle")
    s = {p: product_sign(pat, p) for p in pts}
    lhs = s[TermIndex(cols[1], rows[0])] * s[TermIndex(cols[0], rows[1])]
    rhs = s[TermIndex(cols[0], rows[0])] * s[TermIndex(cols[1], rows[1])]
    return lhs == rhs


def ideal_case_factorization(n: int) -> list[tuple[TermIndex, ...]]:
    """Block factorization of the full triangle used for all-nonpositive v.

    Even n: base triples {(2k-1,2k-1), (2k,2k), (2k-1,2k)} plus 2x2
    rectangles filling the rest.  Odd n: the factorization for n-1 plus
    the singleton {(n,n)} and column pairs {(2k,n), (2k-1,n)}.  The
    blocks exactly cover all n(n+1)/2 indices; each block's term product
    is bounded by 2 (triples) or 1 (the rest) on [-1,0]^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [(TermIndex(1, 1),)]
    if n % 2 == 1:
        out = ideal_case_factorization(n - 1)
        out.append((TermIndex(n, n),))
        for k in range(1, (n - 1) // 2 + 1):
            out.append((TermIndex(2 * k, n), TermIndex(2 * k - 1, n)))
        return out
    out = []
    for k in range(1, n // 2 + 1):
        out.append((TermIndex(2 * k - 1, 2 * k - 1), TermIndex(2 * k, 2 * k),
                    TermIndex(2 * k - 1, 2 * k)))
    for k in range(1, n // 2):
        for step in range(n // 2 - k):
            r1 = 2 * k + 2 * step + 1
            out.append((TermIndex(2 * k, r1), TermIndex(2 * k - 1, r1),
                        TermIndex(2 * k, r1 + 1), TermIndex(2 * k - 1, r1 + 1)))
    return out


def block_products(cols: Sequence, blocks: Sequence[Sequence[TermIndex]]) -> list:
    """The product of each block's terms in member order, from one pass of
    running_terms over cols (x_{k+1} = cols[k], floats or batch columns)."""
    terms = {(i, j): t for i, j, t in running_terms(cols)}
    return [math.prod(terms[t] for t in b) for b in blocks]


def domination_check(v, gp: GoodPartition) -> CheckResult:
    """Block-wise and global domination of f under the mirror -|v|.

    For every block p of the good partition of v's sign pattern:
    prod_{t in p} term_v(t) <= prod_{t in p} term_{-|v|}(t), and
    globally eval_f(v) <= eval_f(-|v|).  Tolerance 1e-12 relative.
    """
    arr = as_vector(v)
    pat = sign_pattern_of(arr)
    if tuple(gp.pattern) != pat:
        return CheckResult(False, f"pattern-mismatch: partition is for {gp.pattern}")
    mirror = negate_abs(arr)
    members = [b.members for b in gp.blocks]
    lhs = block_products(arr.tolist(), members)
    rhs = block_products(mirror.tolist(), members)
    for b, x, y in zip(gp.blocks, lhs, rhs):
        if not leq_with_tol(x, y):
            return CheckResult(False, f"block-domination-failed: {x} > {y}", b)
    fv, fm = eval_f(arr), eval_f(mirror)
    if not leq_with_tol(fv, fm):
        return CheckResult(False, f"global-domination-failed: {fv} > {fm}")
    return ACCEPT


# ---------------------------------------------------------------------------
# Certificates


class CertificateFormatError(ValueError):
    """Raised when certificate JSON is malformed or breaks the schema."""


def certificate_payload(gp: GoodPartition) -> dict:
    """Plain-data form of a partition, ready for canonical JSON."""
    return {
        "n": gp.n,
        "pattern": list(gp.pattern),
        "blocks": [
            {
                "kind": b.kind,
                "members": [[i, j] for i, j in b.members],
                "signs": list(b.signs),
                "provenance": b.provenance,
            }
            for b in gp.blocks
        ],
        "version": CERTIFICATE_VERSION,
    }


def canonical_json(payload: dict) -> str:
    """Sorted keys, two-space indent and a final newline, so equal
    payloads give equal bytes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# The layout json.dumps(sort_keys=True, indent=2) gives the certificate
# schema, one template per level.  Members and signs are ints.
_CERT = '{\n  "blocks": %s,\n  "n": %d,\n  "pattern": %s,\n  "version": %s\n}\n'
_BLOCK = ('    {\n      "kind": %s,\n      "members": %s,\n'
          '      "provenance": %s,\n      "signs": %s\n    }')
_MEMBER = "        [\n          %d,\n          %d\n        ]"


def _array(items: list[str], indent: str) -> str:
    """A JSON array of items already laid out one level below indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


@lru_cache(maxsize=16)
def _block_layout(members: int, signs: int) -> str:
    """The whole layout of a block with this many members and signs, one
    %-template over (kind, i_1, j_1, .., provenance, s_1, ..).  A build
    makes three shapes; a parsed certificate can carry any, hence the
    bound."""
    return _BLOCK % ("%s", _array([_MEMBER] * members, "      "), "%s",
                     _array(["        %d"] * signs, "      "))


def certificate_to_json(gp: GoodPartition) -> str:
    """Canonical JSON text of a certificate: the bytes of
    canonical_json(certificate_payload(gp)), written from the fixed
    schema because json.dumps uses its pure-Python encoder whenever
    indent is set.  Each block is one % over its layout; a member is
    unpacked as a pair, so one of other than two entries raises, as it
    does in certificate_payload."""
    # A few distinct strings recur across many blocks.
    strings = {s for b in gp.blocks for s in (b.kind, b.provenance)}
    quoted = {s: json.dumps(s) for s in strings}
    blocks = []
    for kind, members, signs, provenance in gp.blocks:
        args = [quoted[kind]]
        for i, j in members:
            args += (i, j)
        args.append(quoted[provenance])
        args += signs
        blocks.append(_block_layout(len(members), len(signs)) % tuple(args))
    return _CERT % (_array(blocks, "  "), gp.n,
                    _array(["    %d" % s for s in gp.pattern], "  "),
                    json.dumps(CERTIFICATE_VERSION))


@_collector_paused
def certificate_from_json(text: str) -> GoodPartition:
    """Parse certificate JSON back into a partition (without trace).

    Raises CertificateFormatError on malformed JSON or schema breaks;
    semantic validity is validate_partition's job.
    """
    # ValueError covers JSONDecodeError and integers past CPython's digit
    # limit; deep nesting raises RecursionError.
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise CertificateFormatError(f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    for key in ("n", "pattern", "blocks", "version"):
        if key not in data:
            raise CertificateFormatError(f"missing key {key!r}")
    # type(x) is int, not isinstance: JSON true/false parse to bool, an int.
    n = data["n"]
    if type(n) is not int or n < 1:
        raise CertificateFormatError("n must be a positive integer")
    pattern = data["pattern"]
    if (not isinstance(pattern, list) or len(pattern) != n
            or any(type(s) is not int or s not in (-1, 1) for s in pattern)):
        raise CertificateFormatError("pattern must be a list of n entries +1/-1")
    if data["version"] != CERTIFICATE_VERSION:
        raise CertificateFormatError(f"unsupported version {data['version']!r}, "
                                     f"expected {CERTIFICATE_VERSION!r}")
    if not isinstance(data["blocks"], list):
        raise CertificateFormatError("blocks must be a list")
    blocks = []
    for raw in data["blocks"]:
        if not isinstance(raw, dict):
            raise CertificateFormatError("each block must be a JSON object")
        for key in ("kind", "members", "signs", "provenance"):
            if key not in raw:
                raise CertificateFormatError(f"block missing key {key!r}")
        members = raw["members"]
        signs = raw["signs"]
        if (not isinstance(members, list) or not isinstance(signs, list)
                or len(members) != len(signs)):
            raise CertificateFormatError("members and signs must be lists of equal length")
        terms = []
        for m, s in zip(members, signs):
            if not isinstance(m, list) or len(m) != 2:
                raise CertificateFormatError(f"bad member {m!r}")
            i, j = m
            if type(i) is not int or type(j) is not int:
                raise CertificateFormatError(f"bad member {m!r}")
            if type(s) is not int or s not in (-1, 1):
                raise CertificateFormatError(f"bad sign {s!r}")
            terms.append(_term(m))
        if not isinstance(raw["provenance"], str):
            raise CertificateFormatError("provenance must be a string")
        blocks.append(_block((str(raw["kind"]), tuple(terms), tuple(signs),
                              raw["provenance"])))
    return GoodPartition(n, tuple(pattern), tuple(blocks))
