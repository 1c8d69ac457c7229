"""Building and checking a good partition, step by step.

A good partition covers the non-canonical terms of a sign pattern with
singletons, doubletons, and rectangle quadrupletons; each block's term
product is dominated by the mirrored vector, which is the whole proof
of f_n(v) <= 2^floor((n+1)/2).  The demo builds one for a pattern that
exercises all three construction cases, prints the trace, serializes
the certificate, and shows the independent validator rejecting a
tampered copy.  A member (i, j) of the non-canonical set has sign
(-1)^(i+j), so the set stores indices only; a block stores the signs
it claims, as a certificate does, and the validator checks them.

Run: python demos/good_partitions.py
"""

import json

from pohst import (
    GoodPartition,
    build_good_partition,
    certificate_from_json,
    certificate_to_json,
    check_impossible_configurations,
    domination_check,
    ideal_case_factorization,
    noncanonical_set,
    validate_partition,
)

pattern = (-1, -1, 1, -1)
J = noncanonical_set(pattern)
print(f"pattern {pattern}")
print(f"non-canonical terms: {sorted(tuple(t) for t in J.members)}")
print(f"their signs (-1)^(i+j): {sorted((tuple(t), s) for t, s in J.signs.items())}")
print()

gp = build_good_partition(pattern)
print("construction trace (negatives absorbed lower rows first, right to left):")
for s in gp.trace:
    print(f"  step {s.k}: pair {tuple(s.pair)} via {s.case} operation {s.operation}"
          f" -> {s.created.kind} {[tuple(m) for m in s.created.members]}")
print()

print("final blocks (each member with its stored sign):")
for b in gp.blocks:
    members = ", ".join(f"{tuple(m)}{s:+d}" for m, s in zip(b.members, b.signs))
    print(f"  {b.kind:13s} {members}   [{b.provenance}]")
print()

assert validate_partition(gp)
assert check_impossible_configurations(gp)
assert domination_check((-0.9, -0.4, 0.7, -0.2), gp)
print("independent validator: accept; impossible-configuration scan: accept")
print("block-wise domination on a matching vector: accept")
print()

text = certificate_to_json(gp)
print("certificate JSON (canonical, byte-stable):")
print("  " + text.replace("\n", "\n  ").rstrip())
back = certificate_from_json(text)
assert certificate_to_json(back) == text

payload = json.loads(text)
payload["blocks"][0]["signs"][0] *= -1
tampered = certificate_from_json(json.dumps(payload))
verdict = validate_partition(tampered)
print(f"tampered copy (one sign flipped): rejected, reason {verdict.reason!r}")
print()

print("ideal-case factorization of the full triangle for n = 4:")
for block in ideal_case_factorization(4):
    print(f"  {[tuple(t) for t in block]}")
print()
print("ok: round trip is byte-identical and mutations are caught")
