"""The transfer-matrix solver, the stored proofs, and the search's routing to them."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import circodes
from circodes import (
    CirculantGraph,
    Code,
    Kind,
    identifying_code_for,
    identifying_code_size,
    locating_code_size,
    min_code_size,
    naive_min_code_size,
)
from circodes import search, transfer
from circodes.cli import DENSITY_FLOORS
from circodes.codes import defects
from circodes.proofs import PROOFS, proof_for

LOC, IDE = Kind.LOCATING, Kind.IDENTIFYING
SIZE = {LOC: locating_code_size, IDE: identifying_code_size}


def _window(mask, n, u, dmax):
    """Code bits of u - dmax .. u + 3*dmax (mod n) as a window word."""
    return sum(((mask >> ((u - dmax + j) % n)) & 1) << j for j in range(4 * dmax + 1))


@pytest.mark.parametrize("offsets", [(1,), (2,), (1, 2), (2, 3), (1, 3), (1, 2, 3)])
def test_windows_decide_whole_codes(offsets):
    # a code is valid exactly when the window around every vertex passes
    rng = random.Random(str(offsets))
    dmax = offsets[-1]
    for kind in Kind:
        allowed = transfer.allowed_windows(offsets, kind)
        for _ in range(150):
            n = rng.randrange(4 * dmax + 1, 4 * dmax + 30)
            density = rng.choice((0.3, 0.45, 0.6))
            mask = sum(1 << v for v in range(n) if rng.random() < density)
            pattern = CirculantGraph(n, offsets).pattern
            whole = next(defects(n, mask, pattern, kind), None) is None
            windows = all(allowed[_window(mask, n, u, dmax)] for u in range(n))
            assert whole == windows, (offsets, kind, n, bin(mask))


def test_anchored_defects_restrict_the_whole_check():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(13, 40)
        pattern = CirculantGraph(n).pattern
        mask = rng.getrandbits(n)
        anchors = rng.getrandbits(n)
        kind = rng.choice(list(Kind))
        whole = dict(defects(n, mask, pattern, kind))
        got = dict(defects(n, mask, pattern, kind, anchors))
        if whole.get(0, 0) & anchors:
            assert got == {0: whole[0] & anchors}
        elif 0 not in whole:
            assert got == {d: bits & anchors for d, bits in whole.items() if bits & anchors}
        else:
            # undominated vertices lie outside the anchors only
            assert 0 not in got


# live states of every offset set with dmax <= 3: dominating, locating, identifying
LIVE_STATES = {
    (1,): (13, 13, 10),
    (2,): (169, 169, 100),
    (3,): (2197, 2197, 1000),
    (1, 2): (236, 206, 104),
    (1, 3): (3532, 2908, 2834),
    (2, 3): (3489, 3386, 3240),
    (1, 2, 3): (3984, 3010, 966),
}


def test_live_state_counts():
    kinds = (Kind.DOMINATING, LOC, IDE)
    graphs = {(offsets, kind): transfer.live_graph(offsets, kind)
              for offsets in LIVE_STATES for kind in kinds}
    assert {key: len(states) for key, (states, _) in graphs.items()} == {
        (offsets, kind): count for offsets, counts in LIVE_STATES.items()
        for kind, count in zip(kinds, counts)}
    for _, preds in graphs.values():
        assert all(1 <= len(p) <= 2 for p in preds)


# onset, period and increment of every offset set with dmax <= 3: dominating,
# locating, identifying; with LIVE_STATES, what transfer.solve finds
REPEATS = {
    (1,): ((5, 3, 1), (6, 5, 2), (13, 2, 1)),
    (2,): ((10, 6, 2), (12, 10, 4), (26, 4, 2)),
    (3,): ((15, 9, 3), (18, 15, 6), (39, 6, 3)),
    (1, 2): ((9, 5, 1), (19, 6, 2), (23, 10, 5)),
    (1, 3): ((25, 5, 1), (66, 6, 2), (107, 11, 4)),
    (2, 3): ((28, 8, 2), (36, 13, 4), (54, 20, 7)),
    (1, 2, 3): ((13, 7, 1), (55, 6, 2), (33, 14, 7)),
}


# the largest excess digit, minimum(n) - ceil(n * density), of every offset set
# with dmax <= 3: dominating, locating, identifying
LARGEST_EXCESS = {
    (1,): "001", (2,): "113", (3,): "224", (1, 2): "012", (1, 3): "111", (2, 3): "011",
    (1, 2, 3): "013",
}


def _check_repeats(offset_sets):
    kinds = (Kind.DOMINATING, LOC, IDE)
    got = {}
    for offsets in offset_sets:
        for kind in kinds:
            p = transfer.solve(offsets, kind)
            # one character per stored order: every excess fits one digit
            assert len(p.excess) == max(p.onset, p.first) + p.period - p.first
            got[offsets, kind] = (p.live_states, p.onset, p.period, p.increment, max(p.excess))
    assert got == {(offsets, kind): (LIVE_STATES[offsets][i], *REPEATS[offsets][i],
                                     LARGEST_EXCESS[offsets][i])
                   for offsets in offset_sets for i, kind in enumerate(kinds)}


def test_repeats_up_to_dmax_two():
    _check_repeats([offsets for offsets in REPEATS if offsets[-1] <= 2])


@pytest.mark.extended
def test_repeats_up_to_dmax_three():
    _check_repeats(REPEATS)


class _CountedList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_solver_steps_once_to_the_repeat(monkeypatch):
    # each min-plus step reads the predecessor lists once; the minima below
    # max(onset, first) + period and the repeat itself need no more steps
    live_graph = transfer.live_graph
    counted = _CountedList()

    def counting(offsets, kind):
        states, preds = live_graph(offsets, kind)
        counted.extend(preds)
        return states, counted
    monkeypatch.setattr(transfer, "live_graph", counting)
    proof = transfer.solve((1, 2), LOC)
    assert counted.iterations <= max(proof.onset, proof.first) + proof.period == 25


def test_stored_proofs():
    assert {key: (p.live_states, p.onset, p.period, p.increment, p.first)
            for key, p in PROOFS.items()} == {
        ((1, 3), LOC): (2908, 66, 6, 2, 13),
        ((1, 3), IDE): (2834, 107, 11, 4, 13),
    }
    for (offsets, kind), proof in PROOFS.items():
        assert len(proof.minima) == proof.onset + proof.period - proof.first
        assert proof_for(offsets, kind, 12) is None
        assert proof_for(offsets, kind, 13) is proof
        assert proof_for(offsets[::-1], kind, 13) is proof
    assert proof_for((1, 3), Kind.DOMINATING, 40) is None
    assert proof_for((1, 4), LOC, 40) is None


def test_density_floors_come_from_the_proofs():
    assert DENSITY_FLOORS == {LOC: Fraction(1, 3), IDE: Fraction(4, 11)}


def _past_the_stored_range(proof):
    """n from first through the stored range plus two periods."""
    return range(proof.first, proof.first + len(proof.minima) + 2 * proof.period + 1)


@pytest.mark.parametrize("kind, bound", [(LOC, lambda n: -(-n // 3)),
                                         (IDE, lambda n: -(-4 * n // 11))])
def test_sharp_bound_comes_from_the_proof(kind, bound):
    # the paper's ceil(n/3) and ceil(4n/11), for either order of the offsets
    assert search.lower_bound(12, kind).specific_bound is None
    for n in _past_the_stored_range(PROOFS[((1, 3), kind)]):
        for offsets in ((1, 3), (3, 1)):
            report = search.lower_bound(n, kind, offsets)
            assert report.specific_bound == bound(n), (offsets, n)
            assert report.effective == bound(n)


# the residues n mod period, each from its first n, where the minimum is one
# above ceil(n * density)
EXCESS = {LOC: {2: 14, 3: 15, 5: 17}, IDE: {8: 19, 5: 38, 2: 46}}


@pytest.mark.parametrize("kind", [LOC, IDE])
def test_minimum_exceeds_the_density_bound_by_at_most_one(kind):
    # the paper's c, c' in {0, 1}; past the stored range the minima repeat
    # with the period, so two periods more cover every n
    proof = PROOFS[((1, 3), kind)]
    for n in _past_the_stored_range(proof):
        excess = proof.minimum(n) - math.ceil(n * proof.density)
        start = EXCESS[kind].get(n % proof.period)
        assert excess == (start is not None and n >= start), n


@pytest.mark.parametrize("kind", [LOC, IDE])
def test_stored_proof_against_the_search(kind):
    # the dfs finds a code at the proved minimum and none one below it
    proof = PROOFS[((1, 3), kind)]
    for n in range(13, 31):
        g = CirculantGraph(n)
        size = proof.minimum(n)
        assert search._search_at_size(g, kind, size)[0] is not None, n
        assert search._search_at_size(g, kind, size - 1)[0] is None, n


def test_solver_on_offsets_1_2():
    for kind in (LOC, IDE):
        proof = transfer.solve((1, 2), kind)
        assert proof.first == 9
        for n in range(9, 25):
            g = CirculantGraph(n, (1, 2))
            expected = min_code_size(g, kind)
            assert expected.engine == "dfs"
            assert proof.minimum(n) == expected.outcome.size, (kind, n)
            if n <= 16:
                assert proof.minimum(n) == naive_min_code_size(g, kind).outcome.size


def test_solver_on_cycles():
    # C(n;1): locating-dominating density 2/5 (Slater), identifying 1/2
    # (Bertrand, Charon, Hudry and Lobstein)
    proofs = {kind: transfer.solve((1,), kind) for kind in (LOC, IDE)}
    assert (proofs[LOC].density, proofs[IDE].density) == (Fraction(2, 5), Fraction(1, 2))
    for kind, proof in proofs.items():
        for n in range(proof.first, 17):
            expected = naive_min_code_size(CirculantGraph(n, (1,)), kind).outcome.size
            assert proof.minimum(n) == expected, (kind, n)


@pytest.mark.parametrize("kind", [LOC, IDE])
def test_routed_certificates_verify(kind):
    for n in range(13, 201):
        result = min_code_size(CirculantGraph(n), kind, budget=0)
        assert result.engine == "proof"
        assert result.stats.examined == 0
        assert result.outcome.size == SIZE[kind](n) == PROOFS[((1, 3), kind)].minimum(n)
        assert len(result.outcome.certificate) == result.outcome.size
        assert result.outcome.certificate.verify(kind).ok, n


def test_search_runs_where_no_proof_applies():
    assert min_code_size(CirculantGraph(12), LOC).engine == "dfs"
    assert min_code_size(CirculantGraph(14), Kind.DOMINATING).engine == "dfs"
    assert min_code_size(CirculantGraph(14, (1, 4)), LOC).engine == "dfs"


@pytest.mark.parametrize("build", [
    lambda n: Code(CirculantGraph(n - 1), range(n // 2)),        # another graph
    lambda n: Code(CirculantGraph(n), range(n)),                 # too large
    lambda n: Code(CirculantGraph(n), range(SIZE[LOC](n))),      # not locating
])
def test_bad_construction_falls_back_to_the_search(monkeypatch, build):
    from circodes import constructions
    monkeypatch.setattr(constructions, "locating_code_for", build)
    result = min_code_size(CirculantGraph(20), LOC)
    assert result.engine == "dfs"
    assert result.outcome.size == SIZE[LOC](20) == 8
    assert result.outcome.certificate.is_locating()


def test_exists_below_the_proved_minimum_does_not_search(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("searched")
    g = CirculantGraph(41)
    monkeypatch.setattr(search, "_search_at_size", fail)
    assert search.exists_code_of_size(g, IDE, 15) is None
    # at or above the minimum: the construction plus the smallest non-members
    construction = identifying_code_for(41).members
    for k in (16, 17, 30, 41):
        code = search.exists_code_of_size(g, IDE, k)
        assert len(code) == k and code.verify(IDE).ok
        assert construction <= code.members
        assert sorted(code.members - construction) == \
            sorted(set(range(41)) - construction)[:k - 16]


def test_exists_falls_back_to_the_search(monkeypatch):
    from circodes import constructions
    monkeypatch.setattr(constructions, "locating_code_for",
                        lambda n: Code(CirculantGraph(n), range(SIZE[LOC](n))))
    code = search.exists_code_of_size(CirculantGraph(20), LOC, 9)
    assert len(code) == 9 and code.is_locating() and 0 in code


@pytest.mark.parametrize("n, kind", [(13, LOC), (41, IDE)])
def test_proved_minimum_builds_no_all_vertex_code(monkeypatch, n, kind):
    # a proved minimum means a code exists: no twin check runs
    def fail(*args, **kwargs):
        raise AssertionError("asked _no_code")
    monkeypatch.setattr(search, "_no_code", fail)
    result = min_code_size(CirculantGraph(n), kind)
    assert result.engine == "proof"
    assert result.note == f"proved minimum {result.outcome.size}"


@pytest.mark.parametrize("k", [None, 16, 17, 41])
def test_one_lookup_and_one_verify_per_proof_answer(monkeypatch, k):
    calls = {"verify": 0, "proof_for": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(Code, "verify", counted("verify", Code.verify))
    monkeypatch.setattr(search, "proof_for", counted("proof_for", search.proof_for))
    g = CirculantGraph(41)
    if k is None:
        assert min_code_size(g, IDE).outcome.size == 16
    else:
        assert len(search.exists_code_of_size(g, IDE, k)) == k
    assert calls == {"verify": 1, "proof_for": 1}


class _Unread:
    """A descriptor that fails any read of ``Code.members``."""

    def __get__(self, code, owner=None):
        raise AssertionError("read Code.members")


@pytest.mark.parametrize("kind", [LOC, IDE])
def test_proof_answers_never_read_members(monkeypatch, kind):
    # a proof answer is built and checked as a mask, at any n
    n = 10**5
    g = CirculantGraph(n)
    size = proof_for((1, 3), kind, n).minimum(n)
    monkeypatch.setattr(Code, "members", _Unread())
    result = min_code_size(g, kind)
    assert result.engine == "proof" and result.outcome.size == len(result.outcome.certificate) == size
    for k in (size, size + 2):
        code = search.exists_code_of_size(g, kind, k)
        assert len(code) == k and code.verify(kind)
    padded = search.exists_code_of_size(g, kind, size + 2)
    # the two added members are the two smallest non-members of the construction
    bits = format(result.outcome.certificate.mask, f"0{n}b")[::-1]  # bits[v]: vertex v
    first = bits.index("0")
    second = bits.index("0", first + 1)
    assert padded.mask == result.outcome.certificate.mask | 1 << first | 1 << second


def test_padding_reaches_every_vertex():
    g = CirculantGraph(61)
    code = search.exists_code_of_size(g, IDE, 61)
    assert code.mask == (1 << 61) - 1
    assert [len(search.exists_code_of_size(g, IDE, k)) for k in range(23, 62)] == \
        list(range(23, 62))
    assert search._lowest_bits(0b1011010, 2) == 0b1010
    assert search._lowest_bits(0b1011010, 9) == 0b1011010
    assert search._lowest_bits(0b1011010, 0) == 0


def test_solver_rejects_dmax_four():
    with pytest.raises(ValueError, match="dmax <= 3"):
        transfer.solve((1, 4), LOC)


@pytest.mark.parametrize("offsets, named", [((), "nonempty"), ((1, 1), "duplicate"),
                                            ((0, 3), "got 0$")])
def test_solver_rejects_a_bad_offset_set(offsets, named):
    # the window graph rejects an empty or repeated set, as any graph does
    for call in (transfer.allowed_windows, transfer.solve):
        with pytest.raises(ValueError, match=named):
            call(offsets, LOC)


def test_import_loads_neither_solver_nor_numpy():
    src = os.path.dirname(os.path.dirname(circodes.__file__))
    code = ("import sys, circodes, circodes.cli; "
            "print(sorted(m for m in ('circodes.transfer', 'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


@pytest.mark.extended
def test_stored_proofs_recomputed_and_dfs_nonexistence():
    for (offsets, kind), proof in PROOFS.items():
        assert transfer.solve(offsets, kind) == proof
    for n, kind, k in ((38, IDE, 14), (41, IDE, 15), (38, LOC, 13)):
        assert search._search_at_size(CirculantGraph(n), kind, k)[0] is None, (n, kind)
