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

The builder processes negative members of J in the total order

  (i,j) < (i',j')  iff  j' > j, or j' = j and i' < i

(lower rows first, right to left inside a row), starting from the
partition of all positive members into singletons.  Each negative pair
is absorbed by one of three cases; the case analysis is a constructive
proof, so every "some block must exist here" claim is asserted at run
time and a violation raises ConstructionFailure with the full trace.

The validator is written against the block-shape definition only and
shares no shape logic with the builder, so a certificate produced by
one can be rejected by the other if either is wrong.  It also keeps its
own prefix-product derivation of J instead of calling the builder-side
noncanonical_set: it checks each member in O(1) and the cover by count.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .triangle import (
    NonCanonicalSet,
    SignedTerm,
    TermIndex,
    as_sign_pattern,
    as_vector,
    eval_f,
    eval_term,
    leq_with_tol,
    negate_abs,
    noncanonical_set,
    prefix_classes,
    product_sign,
    sign_pattern_of,
)

#: Serialized certificate format version.
CERTIFICATE_VERSION = "1"

BLOCK_KINDS = {1: "singleton", 2: "doubleton", 4: "quadrupleton"}


def prec_less(a: TermIndex, b: TermIndex) -> bool:
    """Processing order: lower rows first, right to left within a row."""
    ai, aj = a
    bi, bj = b
    return bj > aj or (bj == aj and bi < ai)


def prec_key(t: TermIndex) -> tuple[int, int]:
    """Sort key realizing prec_less (ascending)."""
    return (t[1], -t[0])


@dataclass(frozen=True)
class PartitionBlock:
    kind: str
    members: tuple[SignedTerm, ...]
    provenance: str

    @property
    def indices(self) -> tuple[TermIndex, ...]:
        return tuple(m.index for m in self.members)


@dataclass(frozen=True)
class BuildStep:
    """One absorption step of the builder: which negative pair, which
    case and operation, which blocks were consumed and created."""

    k: int
    pair: TermIndex
    case: str
    operation: int
    consumed: tuple[PartitionBlock, ...]
    created: PartitionBlock


@dataclass(frozen=True)
class GoodPartition:
    n: int
    pattern: tuple[int, ...]
    blocks: tuple[PartitionBlock, ...]
    trace: tuple[BuildStep, ...] = ()


@dataclass(frozen=True)
class Configuration:
    """How one term currently sits inside a partition.

    Positive terms: sing, hdoub, vdoub, iquad (bottom-right corner of a
    rectangle), tquad (top-left corner).  Negative terms: nhdoub when a
    positive block-mate sits to the right in the same row, nvdoub when
    one sits below in the same column.  Terms in no block: unassigned.
    """

    tag: str
    partner: TermIndex | None = None
    block: PartitionBlock | None = None


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


def horizontal_list(t: TermIndex, J: NonCanonicalSet) -> list[SignedTerm]:
    """Members of J in row j with first index >= i, ascending by first index."""
    i, j = t
    out = []
    for i2 in range(i, j + 1):
        s = J.sign_of(TermIndex(i2, j))
        if s is not None:
            out.append(SignedTerm(TermIndex(i2, j), s))
    return out


def vertical_list(t: TermIndex, J: NonCanonicalSet) -> list[SignedTerm]:
    """Members of J in column i with second index <= j, ascending by second index."""
    i, j = t
    out = []
    for j2 in range(i, j + 1):
        s = J.sign_of(TermIndex(i, j2))
        if s is not None:
            out.append(SignedTerm(TermIndex(i, j2), s))
    return out


# ---------------------------------------------------------------------------
# Builder


def _freeze_block(members: Sequence[TermIndex], signs: dict[TermIndex, int],
                  provenance: str) -> PartitionBlock:
    ordered = sorted((TermIndex(*m) for m in members), key=prec_key)
    terms = tuple(SignedTerm(m, signs[m]) for m in ordered)
    return PartitionBlock(BLOCK_KINDS[len(terms)], terms, provenance)


def build_good_partition(pattern: Sequence[int]) -> GoodPartition:
    """Construct a good partition of the non-canonical set of a pattern.

    Returns the finished partition together with the full build trace.
    Raises ConstructionFailure when a case's existence or uniqueness
    assertion fails; the exception carries the trace up to that point.
    """
    pat = as_sign_pattern(pattern)
    J = noncanonical_set(pat)
    signs = dict(J.signs)

    positives = sorted(J.positives, key=prec_key)
    negatives = sorted(J.negatives, key=prec_key)

    blocks: dict[int, tuple[TermIndex, ...]] = {}
    prov: dict[int, str] = {}
    owner: dict[TermIndex, int] = {}
    for bid, p in enumerate(positives):
        blocks[bid] = (p,)
        prov[bid] = "initial"
        owner[p] = bid
    next_id = len(positives)

    failed: set[TermIndex] = set()   # negatives whose Case 1 did not apply
    anchors: set[TermIndex] = set()  # negatives absorbed via Case 2
    steps: list[BuildStep] = []

    def snapshot(bid: int) -> PartitionBlock:
        return _freeze_block(blocks[bid], signs, prov[bid])

    def fail(k: int, neg: TermIndex, reason: str) -> ConstructionFailure:
        return ConstructionFailure(k, neg, reason, tuple(steps))

    def is_sing(idx: TermIndex) -> bool:
        return len(blocks[owner[idx]]) == 1

    def hdoub_partner(idx: TermIndex) -> TermIndex | None:
        """Negative left partner when idx sits in a horizontal doubleton."""
        mem = blocks[owner[idx]]
        if len(mem) != 2:
            return None
        other = mem[0] if mem[1] == idx else mem[1]
        if other[1] == idx[1] and other[0] < idx[0]:
            return other
        return None

    def apply_op1(k: int, neg: TermIndex, pos: TermIndex, case: str) -> None:
        bid = owner[pos]
        consumed = (snapshot(bid),)
        blocks[bid] = (pos, neg)
        prov[bid] = case if case == "case1" else case + "-op1"
        owner[neg] = bid
        created = snapshot(bid)
        steps.append(BuildStep(k, neg, case, 1, consumed, created))

    def apply_op2(k: int, neg: TermIndex, pos: TermIndex, left: TermIndex,
                  corner: TermIndex, case: str) -> None:
        nonlocal next_id
        dbid = owner[pos]
        sbid = owner[corner]
        consumed = (snapshot(dbid), snapshot(sbid))
        del blocks[dbid], blocks[sbid]
        bid = next_id
        next_id += 1
        blocks[bid] = (pos, left, neg, corner)
        prov[bid] = case + "-op2"
        for m in blocks[bid]:
            owner[m] = bid
        created = snapshot(bid)
        steps.append(BuildStep(k, neg, case, 2, consumed, created))

    for k, neg in enumerate(negatives, start=1):
        i, j = neg

        # Case 1: prec-maximal sing positive to the right in row j,
        # i.e. the one with the smallest first index.
        target = None
        for i2 in range(i + 1, j + 1):
            cand = TermIndex(i2, j)
            if signs.get(cand) == 1 and is_sing(cand):
                target = cand
                break
        if target is not None:
            apply_op1(k, neg, target, "case1")
            continue
        failed.add(neg)

        # Anchor: prec-minimal Case-1 failure in the row segment, which
        # is the failed pair with the largest first index.
        anchor = None
        for i2 in range(j, i, -1):
            if TermIndex(i2, j) in failed:
                anchor = TermIndex(i2, j)
                break

        if anchor is None:
            # Case 2: exactly one positive in the column segment below
            # is usable, either directly (sing) or through a rectangle.
            found = []
            for j2 in range(i, j):
                pos = TermIndex(i, j2)
                if signs.get(pos) != 1:
                    continue
                if is_sing(pos):
                    found.append((pos, None))
                    continue
                left = hdoub_partner(pos)
                if left is not None:
                    corner = TermIndex(left[0], j)
                    if signs.get(corner) == 1 and is_sing(corner):
                        found.append((pos, (left, corner)))
            if not found:
                raise fail(k, neg, "case2: no usable positive in the vertical list")
            if len(found) > 1:
                raise fail(k, neg, "case2: usable positive not unique: "
                           f"{[tuple(p) for p, _ in found]}")
            anchors.add(neg)
            pos, via = found[0]
            if via is None:
                apply_op1(k, neg, pos, "case2")
            else:
                left, corner = via
                apply_op2(k, neg, pos, left, corner, "case2")
            continue

        # Case 3: the anchor was absorbed vertically; mirror its drop.
        amem = blocks[owner[anchor]]
        j1 = None
        for m in amem:
            if m[0] == anchor[0] and m[1] < j and signs[m] == 1:
                j1 = m[1]
                break
        if j1 is None:
            raise fail(k, neg, f"case3: anchor {tuple(anchor)} not in nvdoub configuration")
        pos = TermIndex(i, j1)
        if signs.get(pos) != 1:
            raise fail(k, neg, f"case3: expected positive pair {tuple(pos)} not in J")
        if is_sing(pos):
            apply_op1(k, neg, pos, "case3")
            continue
        left = hdoub_partner(pos)
        if left is not None:
            corner = TermIndex(left[0], j)
            if signs.get(corner) == 1 and is_sing(corner):
                apply_op2(k, neg, pos, left, corner, "case3")
                continue
        raise fail(k, neg, f"case3: positive pair {tuple(pos)} neither sing "
                   "nor in an hdoub usable for operation 2")

    final = tuple(sorted((_freeze_block(mem, signs, prov[bid])
                          for bid, mem in blocks.items()),
                         key=lambda b: prec_key(b.members[0].index)))
    return GoodPartition(len(pat), pat, final, tuple(steps))


# ---------------------------------------------------------------------------
# Configuration taxonomy


def _block_map(gp: GoodPartition) -> dict[TermIndex, PartitionBlock]:
    out: dict[TermIndex, PartitionBlock] = {}
    for b in gp.blocks:
        for m in b.members:
            out[m.index] = b
    return out


def classify(t: SignedTerm | TermIndex, gp: GoodPartition) -> Configuration:
    """Configuration of one term inside a partition (possibly intermediate)."""
    idx = t.index if isinstance(t, SignedTerm) else TermIndex(*t)
    sign = product_sign(gp.pattern, idx)
    block = _block_map(gp).get(idx)
    if block is None:
        return Configuration("unassigned")
    mem = block.indices
    i, j = idx
    if len(mem) == 1:
        return Configuration("sing", None, block)
    if len(mem) == 2:
        other = mem[0] if mem[1] == idx else mem[1]
        if sign > 0:
            if other[1] == j and other[0] < i:
                return Configuration("hdoub", other, block)
            if other[0] == i and other[1] > j:
                return Configuration("vdoub", other, block)
        else:
            if other[1] == j and other[0] > i:
                return Configuration("nhdoub", other, block)
            if other[0] == i and other[1] < j:
                return Configuration("nvdoub", other, block)
        raise ValueError(f"malformed doubleton {mem}")
    if len(mem) == 4:
        cols = sorted({m[0] for m in mem})
        rows = sorted({m[1] for m in mem})
        if sign > 0:
            if (i, j) == (cols[1], rows[0]):
                return Configuration("iquad", None, block)
            if (i, j) == (cols[0], rows[1]):
                return Configuration("tquad", None, block)
        else:
            if (i, j) == (cols[0], rows[0]):
                return Configuration("nhdoub", TermIndex(cols[1], rows[0]), block)
            if (i, j) == (cols[1], rows[1]):
                return Configuration("nvdoub", TermIndex(cols[1], rows[0]), block)
        raise ValueError(f"term {tuple(idx)} in unexpected corner of {mem}")
    raise ValueError(f"block of size {len(mem)} is not a partition shape")


# ---------------------------------------------------------------------------
# Independent validator


def validate_partition(gp: GoodPartition) -> CheckResult:
    """Check a partition against the block-shape definition alone.

    Re-derives the non-canonical set from the pattern; accepts iff the
    blocks are disjoint, cover it exactly, carry correct signs, and
    every block has one of the three legal shapes.
    """
    try:
        pat = as_sign_pattern(gp.pattern)
    except ValueError as e:
        return CheckResult(False, f"bad-pattern: {e}")
    n = len(pat)
    if gp.n != n:
        return CheckResult(False, f"bad-pattern: n={gp.n} but pattern has {n} entries")

    prefix = [1] * (n + 1)
    for k in range(1, n + 1):
        prefix[k] = prefix[k - 1] * pat[k - 1]

    seen: set[tuple[int, int]] = set()
    for b in gp.blocks:
        if b.kind not in ("singleton", "doubleton", "quadrupleton"):
            return CheckResult(False, f"bad-kind: {b.kind!r}", b)
        if len(b.members) != {"singleton": 1, "doubleton": 2, "quadrupleton": 4}[b.kind]:
            return CheckResult(False, f"bad-kind: {b.kind} with {len(b.members)} members", b)
        for m in b.members:
            i, j = m.index
            if not (1 <= i <= j <= n):
                return CheckResult(False, f"bad-index: {(i, j)}", b)
            s = prefix[j] * prefix[i - 1]
            if s != (1 if (i + j) % 2 == 0 else -1):
                return CheckResult(False, f"not-noncanonical: {(i, j)}", b)
            if m.sign != s:
                return CheckResult(False, f"sign-mismatch: {(i, j)}", b)
            if (i, j) in seen:
                return CheckResult(False, f"duplicate-member: {(i, j)}", b)
            seen.add((i, j))

        idx = [tuple(m.index) for m in b.members]
        sgn = {tuple(m.index): m.sign for m in b.members}
        if b.kind == "singleton":
            if sgn[idx[0]] != 1:
                return CheckResult(False, "bad-singleton: negative sign", b)
        elif b.kind == "doubleton":
            pos = [t for t in idx if sgn[t] > 0]
            neg = [t for t in idx if sgn[t] < 0]
            if len(pos) != 1 or len(neg) != 1:
                return CheckResult(False, "bad-doubleton: must pair one + with one -", b)
            (pi, pj), (ni, nj) = pos[0], neg[0]
            horizontal = nj == pj and ni < pi
            vertical = ni == pi and nj > pj
            if not (horizontal or vertical):
                return CheckResult(False, "bad-doubleton: negative must sit left in the "
                                   "row or above in the column", b)
        else:
            cols = sorted({t[0] for t in idx})
            rows = sorted({t[1] for t in idx})
            if len(cols) != 2 or len(rows) != 2:
                return CheckResult(False, "bad-quadrupleton: not a rectangle", b)
            corners = {(c, r) for c in cols for r in rows}
            if set(idx) != corners:
                return CheckResult(False, "bad-quadrupleton: not a rectangle", b)
            want = {(cols[1], rows[0]): 1, (cols[0], rows[1]): 1,
                    (cols[0], rows[0]): -1, (cols[1], rows[1]): -1}
            for t, s in want.items():
                if sgn[t] != s:
                    return CheckResult(False, f"bad-quadrupleton: corner {t} must have "
                                       f"sign {s:+d}", b)

    # seen holds distinct members of J, so the cover is complete iff
    # |seen| = |J|.  With r_k = (-1)^k prefix[k], the member test above
    # reads r_{i-1} != r_j: |J| is the product of the two class sizes of
    # r, and row i of J is the k >= i in the class opposite r_{i-1}.
    r = [p if k % 2 == 0 else -p for k, p in enumerate(prefix)]
    classes = {c: [k for k in range(n + 1) if r[k] == c] for c in (1, -1)}
    if len(seen) == len(classes[1]) * len(classes[-1]):
        return ACCEPT

    missing: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        other = classes[-r[i - 1]]
        missing += [(i, k) for k in other[bisect_left(other, i):] if (i, k) not in seen]
        if len(missing) > 4:
            break
    return CheckResult(False, f"incomplete-cover: missing {missing[:4]}"
                       + ("..." if len(missing) > 4 else ""))


# ---------------------------------------------------------------------------
# Impossible configurations


class _RowState:
    """Per-row view of a partition state, for the impossible-configuration
    scan.  All five forbidden patterns live inside a single row, so both
    the one-shot checker and the step-by-step audit reduce to _check_row.

    nh: row -> list of (neg first index, positive partner first index)
    nv: row -> list of (neg first index, drop length)
    vd: row -> first indices of positives sitting in vertical doubletons
    """

    def __init__(self, negatives_by_row: dict[int, list[int]]):
        self.negatives_by_row = negatives_by_row
        self.nh: dict[int, list[tuple[int, int]]] = {}
        self.nv: dict[int, list[tuple[int, int]]] = {}
        self.vd: dict[int, list[int]] = {}

    def _entries(self, idx: tuple[TermIndex, ...]):
        """(structure, row, payload) contributions of one block.

        Signs are forced by index parity, so a doubleton's positive is
        the member with even i + j.
        """
        if len(idx) == 2:
            a, b = idx
            pos, neg = (a, b) if (a[0] + a[1]) % 2 == 0 else (b, a)
            if pos[1] == neg[1]:
                yield self.nh, neg[1], (neg[0], pos[0])
            else:
                yield self.nv, neg[1], (neg[0], neg[1] - pos[1])
                yield self.vd, pos[1], pos[0]
        elif len(idx) == 4:
            cols = sorted({t[0] for t in idx})
            rows = sorted({t[1] for t in idx})
            # bottom-left negative pairs horizontally, top-right vertically
            yield self.nh, rows[0], (cols[0], cols[1])
            yield self.nv, rows[1], (cols[1], rows[1] - rows[0])

    def add(self, idx: tuple[TermIndex, ...]) -> set[int]:
        touched = set()
        for struct, row, payload in self._entries(idx):
            struct.setdefault(row, []).append(payload)
            touched.add(row)
        return touched

    def remove(self, idx: tuple[TermIndex, ...]) -> set[int]:
        touched = set()
        for struct, row, payload in self._entries(idx):
            struct[row].remove(payload)
            touched.add(row)
        return touched

    def check_row(self, row: int, anchors: set[TermIndex]) -> CheckResult:
        spans = sorted(self.nh.get(row, ()))
        drops = sorted(self.nv.get(row, ()))
        for a in range(len(spans)):
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
            not_nh = [i for i in self.negatives_by_row.get(row, ())
                      if i not in nh_negs]
            if not_nh:
                leftmost = min(not_nh)
                for ip in vd_here:
                    if leftmost < ip:
                        return CheckResult(
                            False, f"impossible-configuration-3: negative "
                            f"{(leftmost, row)} without nhdoub left of vdoub "
                            f"positive {(ip, row)}", ((leftmost, row), (ip, row)), 3)
        if drops:
            lengths = {l for _, l in drops}
            if len(lengths) > 1:
                ia, la = drops[0]
                ib, lb = next(d for d in drops if d[1] != la)
                return CheckResult(
                    False, f"impossible-configuration-4: nvdoub drops of lengths "
                    f"{la} and {lb} from row {row}", ((ia, row), (ib, row)), 4)
            for a in range(len(drops) - 1):
                i1 = drops[a][0]
                if TermIndex(i1, row) in anchors:
                    i2 = drops[a + 1][0]
                    return CheckResult(
                        False, f"impossible-configuration-5: Case-2 pair {(i1, row)} "
                        f"left of nvdoub {(i2, row)}", ((i1, row), (i2, row)), 5)
        return ACCEPT

    def check_rows(self, rows: Iterable[int], anchors: set[TermIndex]) -> CheckResult:
        for row in rows:
            r = self.check_row(row, anchors)
            if not r:
                return r
        return ACCEPT


def _negatives_by_row(J: NonCanonicalSet) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for t in J.negatives:
        out.setdefault(t[1], []).append(t[0])
    return out


def check_impossible_configurations(gp: GoodPartition) -> CheckResult:
    """Scan one (possibly intermediate) partition state for the five
    configurations ruled out by the construction.

    Case-2 history is read from gp.trace; for states assembled by hand
    pass a trace whose steps carry the intended cases.
    """
    state = _RowState(_negatives_by_row(noncanonical_set(gp.pattern)))
    rows: set[int] = set()
    for b in gp.blocks:
        rows |= state.add(b.indices)
    anchors = {TermIndex(*s.pair) for s in gp.trace if s.case == "case2"}
    return state.check_rows(sorted(rows), anchors)


def audit_build(gp: GoodPartition) -> CheckResult:
    """Replay a build trace and re-check the structural invariants.

    After each step: the absorbed pair is the next negative in prec
    order, the created block is exactly the consumed members plus that
    pair (so coverage grows by one and no later negative sneaks in),
    and no affected row shows an impossible configuration.
    """
    J = noncanonical_set(gp.pattern)
    negatives = sorted(J.negatives, key=prec_key)
    if len(gp.trace) != len(negatives):
        return CheckResult(False, f"trace has {len(gp.trace)} steps for "
                           f"{len(negatives)} negative pairs")

    live: dict[frozenset, str] = {frozenset([t]): "initial" for t in J.positives}
    rows = _RowState(_negatives_by_row(J))
    anchors: set[TermIndex] = set()

    for k, step in enumerate(gp.trace, start=1):
        if step.k != k:
            return CheckResult(False, f"step {k}: trace numbered {step.k}")
        pair = TermIndex(*step.pair)
        if pair != TermIndex(*negatives[k - 1]):
            return CheckResult(False, f"step {k} absorbed {tuple(pair)}, expected "
                               f"{tuple(negatives[k - 1])} next in prec order")
        if step.case == "case2":
            anchors.add(pair)
        union: set[TermIndex] = set()
        for blk in step.consumed:
            key = frozenset(blk.indices)
            if live.pop(key, None) is None:
                return CheckResult(False, f"step {k}: consumed block "
                                   f"{sorted(key)} is not present")
            rows.remove(blk.indices)
            union |= key
        created = set(step.created.indices)
        if created != union | {pair}:
            return CheckResult(False, f"step {k}: created block is not the consumed "
                               "members plus the absorbed pair")
        live[frozenset(created)] = step.created.provenance
        touched = rows.add(step.created.indices)
        r = rows.check_rows(touched, anchors)
        if not r:
            return CheckResult(False, f"step {k}: {r.reason}", r.witness, r.code)

    final = {(frozenset(b.indices), b.provenance) for b in gp.blocks}
    if final != set(live.items()):
        return CheckResult(False, "final state of the replay differs from gp.blocks")
    return ACCEPT


# ---------------------------------------------------------------------------
# Parity, rectangles, the ideal case, domination


def parity_counts(pattern: Sequence[int]) -> tuple[int, int]:
    """Counts (b_plus, b_minus) of non-canonical border pairs by sign.

    Border pairs are those with i = 1 or j = n.  For even n and an odd
    number of negative signs the two counts agree.
    """
    q = prefix_classes(pattern)
    n = len(q) - 1
    border = {(1, j) for j in range(1, n + 1)} | {(i, n) for i in range(1, n + 1)}
    signs = [1 if (i + j) % 2 == 0 else -1 for i, j in border if q[i - 1] != q[j]]
    return signs.count(1), signs.count(-1)


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
    if len(cols) != 2 or len(rows) != 2 or set(pts) != {
            TermIndex(c, r) for c in cols for r in rows}:
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
    for b in gp.blocks:
        lhs = rhs = 1.0
        for m in b.members:
            lhs *= eval_term(arr, m.index)
            rhs *= eval_term(mirror, m.index)
        if not leq_with_tol(lhs, rhs):
            return CheckResult(False, f"block-domination-failed: {lhs} > {rhs}", b)
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
                "members": [[m.index.i, m.index.j] for m in b.members],
                "signs": [m.sign for m in b.members],
                "provenance": b.provenance,
            }
            for b in gp.blocks
        ],
        "version": CERTIFICATE_VERSION,
    }


def certificate_to_json(gp: GoodPartition) -> str:
    """Canonical JSON text of a certificate (sorted keys, stable layout)."""
    return json.dumps(certificate_payload(gp), sort_keys=True, indent=2) + "\n"


def certificate_from_json(text: str) -> GoodPartition:
    """Parse certificate JSON back into a partition (without trace).

    Raises CertificateFormatError on malformed JSON or schema breaks;
    semantic validity is validate_partition's job.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
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
            if (not isinstance(m, list) or len(m) != 2
                    or not all(type(c) is int for c in m)):
                raise CertificateFormatError(f"bad member {m!r}")
            if type(s) is not int or s not in (-1, 1):
                raise CertificateFormatError(f"bad sign {s!r}")
            terms.append(SignedTerm(TermIndex(*m), s))
        if not isinstance(raw["provenance"], str):
            raise CertificateFormatError("provenance must be a string")
        blocks.append(PartitionBlock(str(raw["kind"]), tuple(terms), raw["provenance"]))
    return GoodPartition(n, tuple(pattern), tuple(blocks))
