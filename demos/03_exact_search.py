"""
Exact optima: exhaustive search and stored proofs
=================================================

The search engine enumerates gap sequences with rotation canonicalization
and incremental pruning, so it can both find minimum codes and certify
that no code of a given size exists.  For locating and identifying codes
of C(n;1,3) with n >= 13, a stored transfer-matrix proof gives the
minimum for every n, and those questions are answered from it.
"""

import time

from circodes import (
    CirculantGraph,
    Kind,
    exists_code_of_size,
    lower_bound,
    min_code_size,
    naive_min_code_size,
)

# Small orders first: search every n from 7 to 12 and print the optimum
# with its certificate.  These six values are exactly the known sequence
# 3, 6, 4, 4, 4, 5 for locating codes.
print("minimum locating codes:")
for n in range(7, 13):
    result = min_code_size(CirculantGraph(n), Kind.LOCATING)
    opt = result.outcome
    print(f"  n={n:2d}: size {opt.size}  certificate {sorted(opt.certificate.members)}")

# The pruned search (at n = 14, the stored proof) agrees with a dumb
# enumeration of every subset, the correctness oracle for anything the
# pruning might skip.
for n in (9, 12, 14):
    fast = min_code_size(CirculantGraph(n), Kind.IDENTIFYING).outcome.size
    slow = naive_min_code_size(CirculantGraph(n), Kind.IDENTIFYING).outcome.size
    assert fast == slow
print("\nmin_code_size matches the naive oracle on n = 9, 12, 14")

# Nonexistence is the harder half of an exact value.  C(19;1,3) needs
# ceil(76/11) = 7 identifying vertices by the share bound, but no code of
# size 7 exists, so the optimum is 8.  The stored proof says so at once.
t0 = time.time()
witness = exists_code_of_size(CirculantGraph(19), Kind.IDENTIFYING, 7)
print(f"\nC(19;1,3), identifying, k=7: "
      f"{'found' if witness else 'no code exists'} ({time.time()-t0:.2f}s)")

bounds = lower_bound(19, Kind.IDENTIFYING)
print(f"lower bound report: general {bounds.general_bound}, "
      f"specific {bounds.specific_bound}, effective {bounds.effective}")

result = min_code_size(CirculantGraph(19), Kind.IDENTIFYING)
print(f"optimum {result.outcome.size}, answered by the {result.engine} engine")

# Offsets {1,4} have no stored proof, so the search exhausts every
# canonical 8-subset of C(25;1,4) to show that none is locating.
t0 = time.time()
witness = exists_code_of_size(CirculantGraph(25, (1, 4)), Kind.LOCATING, 8)
result = min_code_size(CirculantGraph(25, (1, 4)), Kind.LOCATING)
print(f"C(25;1,4), locating, k=8: {'found' if witness else 'no code exists'}; "
      f"optimum {result.outcome.size}, {result.engine} engine, "
      f"examined {result.stats.examined} canonical candidates ({time.time()-t0:.2f}s)")

# The same machinery answers questions about other offset sets.  For
# C(n;1,2) the locating number stays within one vertex of n/3.
print("\nC(n;1,2) cross-check:")
for n in (10, 14, 18):
    g = CirculantGraph(n, (1, 2))
    opt = min_code_size(g, Kind.LOCATING).outcome
    print(f"  n={n:2d}: locating optimum {opt.size}")
