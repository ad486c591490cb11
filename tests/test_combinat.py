"""Exact combinatorics: counting primitives, the dominance order and the
JSON codec of the enumerated objects."""
from __future__ import annotations

import math
from itertools import product

import pytest

from flowpoly import combinat as C
from flowpoly import gravity as GR
from flowpoly import paths as P
from flowpoly import unified as U
from oracles import (
    dominating_compositions_by_units, is_log_concave, record_from_json, record_json, weak_compositions,
)


def pascal_triangle(rows: int) -> list[list[int]]:
    table = [[1]]
    for n in range(1, rows + 1):
        prev = table[-1] + [0]
        table.append([1] + [prev[j - 1] + prev[j] for j in range(1, n + 1)])
    return table


def test_binomial_values():
    assert C.binomial(5, 2) == 10
    assert C.binomial(9, 0) == 1
    assert C.binomial(3, 7) == 0
    table = pascal_triangle(12)
    for n in range(13):
        for k in range(n + 1):
            assert C.binomial(n, k) == table[n][k]
    assert C.binomial(7, 4) == table[7][4] == 35


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        C.binomial(-1, 0)
    with pytest.raises(ValueError):
        C.binomial(3, -2)


def test_multichoose():
    assert C.multichoose(3, 2) == 6
    assert C.multichoose(17, 0) == 1
    assert C.multichoose(0, 0) == 1
    assert C.multichoose(0, 4) == 0
    # brute force: count multisets directly
    from itertools import combinations_with_replacement

    for n in range(1, 6):
        for k in range(5):
            assert C.multichoose(n, k) == sum(
                1 for _ in combinations_with_replacement(range(n), k)
            )
    # below zero, the rising product n(n+1)...(n+k-1)/k! of the multiset
    # form of the Lidskii sum
    for n in range(-6, 1):
        for k in range(7):
            assert C.multichoose(n, k) == math.prod(range(n, n + k)) // math.factorial(k)
    with pytest.raises(C.InputError, match="k >= 0"):
        C.multichoose(3, -1)
    # the factor inside T_2(4,2) = 275 = 5 * 55
    assert C.multichoose(10, 2) == 55
    assert C.k_parking_number(2, 4, 2) == 5 * C.multichoose(10, 2) == 275


def test_multinomial():
    assert C.multinomial(6, (2, 2, 2)) == 90
    assert C.multinomial(6, (6, 0, 0)) == 1
    assert C.multinomial(6, (2, 1, 3)) == 60
    with pytest.raises(C.InputError, match="do not sum to 6"):
        C.multinomial(6, (2, 2, 3))
    for n in range(8):
        for parts in weak_compositions(n, 3):
            assert C.multinomial(n, parts) == math.factorial(n) // math.prod(
                math.factorial(p) for p in parts
            )


def test_multinomial_theorem():
    for k in range(1, 5):
        for n in range(11):
            total = sum(C.multinomial(n, d) for d in weak_compositions(n, k))
            assert total == k**n


def count_rational_dyck_paths(a: int, b: int) -> int:
    """Independent oracle: walk the b x a grid staying above y = (a/b)x."""

    def go(x: int, y: int) -> int:
        if (x, y) == (b, a):
            return 1
        total = 0
        if y < a:
            total += go(x, y + 1)
        if x < b and (y * b > a * (x + 1) or (y == a)):
            total += go(x + 1, y)
        return total

    return go(0, 0)


def test_rational_catalan():
    assert C.rational_catalan(3, 5) == 7
    for b in range(1, 9):
        assert C.rational_catalan(1, b) == 1
    assert C.rational_catalan(4, 3) == 5
    assert C.rational_catalan(4, 3) == count_rational_dyck_paths(3, 4)
    # the three defining expressions agree on coprime pairs
    for a in range(1, 9):
        for b in range(1, 9):
            if math.gcd(a, b) == 1:
                first = C.rational_catalan(a, b)
                assert C.binomial(a + b - 1, a) % b == 0
                assert C.binomial(a + b - 1, b) % a == 0
                assert first == C.binomial(a + b - 1, a) // b
                assert first == C.binomial(a + b - 1, b) // a


def test_rational_catalan_non_integral():
    with pytest.raises(C.NonIntegral):
        C.rational_catalan(2, 2)
    with pytest.raises(ValueError):
        C.rational_catalan(0, 3)


PARKING_TRIANGLES = {
    1: [
        [1],
        [1, 1],
        [2, 3, 3],
        [5, 10, 16, 16],
        [14, 35, 75, 125, 125],
        [42, 126, 336, 756, 1296, 1296],
    ],
    2: [
        [1],
        [2, 1],
        [7, 6, 3],
        [30, 36, 32, 16],
        [143, 220, 275, 250, 125],
        [728, 1365, 2184, 2808, 2592, 1296],
    ],
    3: [
        [1],
        [3, 1],
        [15, 9, 3],
        [91, 78, 48, 16],
        [612, 680, 600, 375, 125],
        [4389, 5985, 6840, 6156, 3888, 1296],
    ],
    4: [
        [1],
        [4, 1],
        [26, 12, 3],
        [204, 136, 64, 16],
        [1771, 1540, 1050, 500, 125],
        [16380, 17550, 15600, 10800, 5184, 1296],
    ],
}


def test_parking_triangles():
    for k, triangle in PARKING_TRIANGLES.items():
        for r, row in enumerate(triangle):
            for i, value in enumerate(row):
                assert C.k_parking_number(k, r, i) == value, (k, r, i)
    assert C.k_parking_number(2, 3, 1) == 36
    assert C.k_parking_number(3, 4, 2) == 600
    assert C.k_parking_number(1, 3, 3) == 16


def test_parking_special_columns():
    for k in range(1, 5):
        for r in range(6):
            if k * (r + 1) - 1 >= 1:
                assert C.k_parking_number(k, r, 0) == C.rational_catalan(
                    r + 1, k * (r + 1) - 1
                )
            if r >= 1:
                assert C.k_parking_number(k, r, r) == (r + 1) ** (r - 1)
                assert C.k_parking_number(k, r, r - 1) == k * C.k_parking_number(
                    k, r, r
                )


def test_log_concave():
    assert is_log_concave((1, 1, 1))
    assert is_log_concave((30, 36, 32, 16))
    assert not is_log_concave((1, 1, 3))
    assert is_log_concave(())
    assert is_log_concave((5,))
    for k, triangle in PARKING_TRIANGLES.items():
        for row in triangle:
            assert is_log_concave(row)


def test_dominates():
    assert C.dominates((1, 1, 0), (1, 1, 0))
    assert C.dominates((2, 0), (1, 1))
    assert not C.dominates((0, 2), (1, 1))
    with pytest.raises(C.InputError, match="lengths differ"):
        C.dominates((1, 0), (1, 0, 0))
    with pytest.raises(C.InputError, match="sums differ"):
        C.dominates((2, 0), (1, 0))
    # the message names the two totals, not an earlier prefix sum
    with pytest.raises(C.InputError, match="sums differ: 2 vs 1"):
        C.dominates((1, 1), (0, 1))


def test_dominating_compositions():
    assert list(C.dominating_compositions((1, 0))) == [(1, 0)]
    assert list(C.dominating_compositions((0, 1))) == [(1, 0), (0, 1)]
    # the brute-force filter fixes the count: only (2,0,0) and (1,1,0)
    assert list(C.dominating_compositions((1, 1, 0))) == [(2, 0, 0), (1, 1, 0)]


def test_dominating_compositions_matches_filter():
    for length in range(1, 7):
        for total in range(0, 9 - length):
            for t in weak_compositions(total, length):
                expect = sorted(
                    s for s in weak_compositions(total, length) if C.dominates(s, t)
                )
                got = sorted(C.dominating_compositions(t))
                assert got == expect, t
                # lex decreasing order, no duplicates
                listed = list(C.dominating_compositions(t))
                assert listed == sorted(listed, reverse=True)
                assert len(set(listed)) == len(listed)


def test_dominating_compositions_match_the_unit_placement():
    """The odometer on s lists what placing units lists, in the same order,
    at every t of length <= 7 and sum <= 7, zero parts anywhere."""
    count = 0
    for length in range(8):
        for total in range(8):
            for t in weak_compositions(total, length):
                listed = list(C.dominating_compositions(t))
                assert listed == dominating_compositions_by_units(t), t
                count += len(listed)
    assert count == 1_362_315


@pytest.mark.parametrize("t", [(1.5, 0.5), (True, 0)])
def test_dominating_compositions_take_int_parts_only(t):
    with pytest.raises(C.InputError, match="composition parts must be ints"):
        next(C.dominating_compositions(t))


def test_dominating_steps_name_the_first_changed_part():
    """Each step's p is the first part that differs from the s before, at
    most one past the p before; every part after p+1 is 0."""
    for t in [(0, 0, 3, 0, 1), (2, 0, 1, 1), P.rational_shape(4, 7), (1,) * 6]:
        before, last = None, 0
        for p, s in C._dominating_steps(t):
            s = tuple(s)
            if before is None:
                assert (p, s) == (0, (sum(t),) + (0,) * (len(t) - 1))
            else:
                assert s[:p] == before[:p] and s[p] == before[p] - 1, (t, p, s)
                assert p <= last + 1 and not any(s[p + 2 :]), (t, p, s)
            before, last = s, p


def _monotone_by_filter(lo, hi) -> list[tuple[int, ...]]:
    """The weakly increasing members of the product of the bound ranges, in
    the product's lex order."""
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [x for x in product(*ranges) if list(x) == sorted(x)]


def test_monotone_concat_lists_the_filtered_sequences():
    """Every pair of nondecreasing bounds up to length 4 and bound 4,
    infeasible ones included: with the piece (v,), the lister gives the
    weakly increasing members of the product of the bound ranges, in the
    product's lex order."""
    bare = lambda q, prev, v: (v,)
    for length in range(5):
        bounds = [b for b in product(range(5), repeat=length) if list(b) == sorted(b)]
        for lo in bounds:
            for hi in bounds:
                assert list(C.monotone_concat(lo, hi, bare)) == _monotone_by_filter(lo, hi), (lo, hi)
    assert list(C.monotone_concat((), (), bare)) == [()]
    assert list(C.monotone_concat((0, 3), (2, 2), bare)) == []


def _labelled(q, prev, v):
    """A piece of varying length that names its position and both values:
    a wrong position, a wrong previous entry or a stale prefix shows."""
    return ((q, prev, v),) * (v - prev + 1)


def test_monotone_concat_joins_the_pieces_of_each_sequence():
    """On every pair of nondecreasing bounds up to length 4 and bound 3, the
    concatenation of the pieces of each weakly increasing sequence, in lex
    order, with lo[0] as the previous entry of position 0."""
    for length in range(5):
        bounds = [b for b in product(range(4), repeat=length) if list(b) == sorted(b)]
        for lo in bounds:
            for hi in bounds:
                expect = []
                for x in _monotone_by_filter(lo, hi):
                    prevs = lo[:1] + x[:-1]
                    pieces = [_labelled(q, *pv) for q, pv in enumerate(zip(prevs, x))]
                    expect.append(sum(pieces, ()))
                assert list(C.monotone_concat(lo, hi, _labelled)) == expect, (lo, hi)


def test_monotone_concat_edge_cases():
    assert list(C.monotone_concat((), (), _labelled)) == [()]
    assert list(C.monotone_concat((0, 3), (2, 2), _labelled)) == []
    assert list(C.monotone_concat((1, 1), (0, 5), _labelled)) == []
    # two thousand positions: the walk is a loop, not a recursion
    first = next(C.monotone_concat([0] * 2000, [1] * 2000, lambda q, prev, v: (q,)))
    assert first == tuple(range(2000))


def _capped_by_filter(total: int, caps) -> list[tuple[int, ...]]:
    """Every c with 0 <= c_j <= caps[j] and |c| = total, in lex decreasing
    order: the product of the descending ranges, filtered by the sum."""
    return [c for c in product(*(range(cap, -1, -1) for cap in caps)) if sum(c) == total]


@pytest.mark.parametrize("caps", [(), (0,), (2,), (1, 0, 2), (0, 3, 0, 1), (2, 2, 2), (1, 1, 1, 1, 1),
                                  (3, 0, 0, 2), (0, 0), (4, 1, 3, 0, 2)])
def test_capped_compositions_match_the_filter(caps):
    """Every total from 0 to two past what the caps hold: no parts at totals
    0 and 1, zero caps anywhere, and totals the caps cannot hold."""
    for total in range(sum(caps) + 3):
        assert list(C.capped_compositions(total, caps)) == _capped_by_filter(total, caps), (total, caps)


def test_capped_compositions_list_the_simplex():
    """Caps (N,) * k list every weak composition of N into k parts, in the
    order of the recursion on the first part, for N <= 8 and k <= 5."""
    for k in range(6):
        for total in range(9):
            caps = (total,) * k
            listed = list(C.capped_compositions(total, caps))
            assert listed == _capped_by_filter(total, caps) == list(weak_compositions(total, k)), (total, k)
    assert list(C.capped_compositions(0, ())) == [()]
    assert list(C.capped_compositions(1, ())) == []


def test_count_dominating():
    shapes = [(), (0,), (4,), (1, 0), (0, 1), (1, 1, 0), (2, 0, 1, 3), (0, 2, 2), (1,) * 6]
    for t in shapes:
        assert C.count_dominating(t) == sum(1 for _ in C.dominating_compositions(t)), t
        labelled = sum(C.multinomial(sum(t), s) for s in C.dominating_compositions(t))
        assert C.count_dominating(t, labelled=True) == labelled, t
    # every composition of 6 into 3 parts, each labelled: 3^6 words
    assert C.count_dominating((0, 0, 6), labelled=True) == 3**6
    for a, b in [(1, 4), (3, 5), (5, 3), (4, 7), (7, 11)]:
        assert C.count_dominating(P.rational_shape(a, b)) == C.rational_catalan(a, b)


def test_negative_parts_fail_one_check():
    """The lister, its count and multinomial reject the same shapes."""
    for t, labelled in [((-1, 2), False), ((2, -1, 1), True)]:
        with pytest.raises(C.InputError, match="must be nonnegative"):
            list(C.dominating_compositions(t))
        with pytest.raises(C.InputError, match="must be nonnegative"):
            C.count_dominating(t, labelled=labelled)
        with pytest.raises(C.InputError, match="must be nonnegative"):
            C.multinomial(sum(t), t)


# a bad part, and the message that rejects it
BAD_PARTS = {"str": ("1", "must be ints"), "float": (1.0, "must be ints"), "fraction": (1.5, "must be ints"),
             "bool": (True, "must be ints"), "negative": (-1, "must be nonnegative")}
# each reader of a composition, given the composition (part, 1)
COMPOSITION_READERS = {
    "check_composition": C.check_composition,
    "dominates s": lambda t: C.dominates(t, (0, 1)),
    "dominates t": lambda t: C.dominates((1, 0), t),
    "count_dominating": C.count_dominating,
    "count_dominating labelled": lambda t: C.count_dominating(t, labelled=True),
    "multinomial": lambda t: C.multinomial(1, t),
    "dominating_compositions": lambda t: next(C.dominating_compositions(t)),
    "simplex_partition": U.simplex_partition,
    "capped_compositions caps": lambda t: next(C.capped_compositions(1, t)),
    "capped_compositions total": lambda t: next(C.capped_compositions(t[0], (3, 3))),
    "TDyckPath shape": lambda t: P.TDyckPath(t, (1, 0)),
    "TDyckPath reference": lambda t: P.TDyckPath((1, 0), t),
}


@pytest.mark.parametrize("part, message", BAD_PARTS.values(), ids=list(BAD_PARTS))
@pytest.mark.parametrize("read", COMPOSITION_READERS.values(), ids=list(COMPOSITION_READERS))
def test_every_composition_reader_takes_nonnegative_ints_only(read, part, message):
    """Each bad part once gave an answer or a TypeError somewhere; the type is
    checked before the sign, since '1' < 0 is itself a TypeError."""
    with pytest.raises(C.InputError, match=f"composition parts {message}"):
        read((part, 1))


def test_unchecked_records_equal_the_checked_ones():
    """Record.unchecked writes the fields the constructor writes: every listed truncated
    record with n <= 7 and every t-Dyck path of three shapes equals, and hashes as, the
    record its class builds with the check."""
    records = [u for n in range(2, 8) for k in range(1, n) for i in range(n - k) for u in U.enumerate_truncated(n, k, i)]
    records += [p for t in [(1, 1, 0), (0, 0, 3, 0, 1), P.rational_shape(4, 7)] for p in P.enumerate_t_dyck(t)]
    assert len(records) == 5751 + 2 + 35 + 30
    for record in records:
        fields = [getattr(record, name) for name in record.__dataclass_fields__]
        unchecked, checked = type(record).unchecked(*fields), type(record)(*fields)
        assert unchecked == checked == record and hash(unchecked) == hash(checked), record


def test_compositions_dominating_prefixes():
    # the labeled initial paths completing a hull (3, 4): every composition
    # of 7 into two parts whose first part is at least 3
    got = list(C.dominating_compositions((3, 4)))
    assert got == [(7, 0), (6, 1), (5, 2), (4, 3), (3, 4)]
    assert sum(C.multinomial(7, d) for d in got) == 99


# ---------------------------------------------------------------------------
# the record codec


def small_records():
    """Every record of every enumerator at small sizes, each record type
    with ints, strs, None fields and tuples of tuples among them."""
    for n in range(3, 9):
        for k in range(1, min(n, 4)):
            yield from GR.enumerate_in_gravity(n, k)
            yield from GR.enumerate_out_gravity(n, k)
    for a in range(1, 6):
        for k in range(1, 4):
            yield from GR.enumerate_out_gravity_mcar(a, k)
    for t in [(), (0,), (2,), (1, 0, 2, 1), (0, 0, 3), (1,) * 5, P.rational_shape(5, 7)]:
        yield from P.enumerate_t_dyck(t)
    for n, k in [(3, 1), (5, 1), (6, 2), (7, 2), (7, 3)]:
        for i in range(n - k):
            yield from U.enumerate_truncated(n, k, i)
    for k, r in [(1, 3), (2, 3), (3, 2), (2, 4)]:
        for i in range(r + 1):
            yield from P.enumerate_multilabeled(k, r, i)


def test_record_lines_read_back_as_the_same_records():
    """Every record type writes the line one json.dumps of its field dict
    writes, and the line reads back as the same record.  A table of element
    texts writes each element as json.dumps does, or as its own writer does."""
    seen = {}
    for obj in small_records():
        line = obj.to_json()
        assert line == record_json(obj)
        assert record_from_json(type(obj), line) == obj
        seen[type(obj)] = seen.get(type(obj), 0) + 1
    assert set(seen) == {GR.GravityDiagram, P.TDyckPath, U.TruncatedDiagram,
                         P.MultiLabeledDyckPath}
    assert min(seen.values()) > 100
    texts = C.ElementTexts()
    assert texts[(1, 3, 6)] == "[1, 3, 6]" and texts["in"] == '"in"'
    assert C.ElementTexts(str).join([(1, 3), 6]) == "(1, 3), 6"


@pytest.mark.parametrize("line", [
    '{"kind": "in", "n": true, "k": 2, "segments": []}',
    '{"kind": "in", "n": 4, "k": 2.0, "segments": []}',
    '{"kind": "in", "n": 4, "k": 2, "segments": [[1, 3, false]]}',
    '{"kind": "in", "n": 4, "k": 2, "segments": [null]}',
    '{"kind": "in", "n": 4, "k": 2, "segments": [{"row": 1}]}',
    '{"kind": "in", "n": 4, "k": 2, "segments": [], "colors": [NaN]}',
])
def test_record_reads_only_exact_ints_strs_and_arrays(line):
    """True == 1, so a table keyed by value would give a bool the text of
    an int: the codec reads no bool, float, object or nested null."""
    with pytest.raises(C.InputError, match="holds ints, strs"):
        record_from_json(GR.GravityDiagram, line)


@pytest.mark.parametrize("line", [
    '[1]',
    '{"kind": "in", "n": 4, "k": 2}',
    '{"kind": "in", "n": 4, "k": 2, "segments": [], "x": 1}',
    '{"kind": "in", "n": 4,',
])
def test_record_rejects_a_line_of_the_wrong_shape(line):
    """Not a JSON object, a missing or an unknown field, or not JSON at all:
    bad input, not a TypeError, AttributeError or JSONDecodeError."""
    with pytest.raises(C.InputError):
        record_from_json(GR.GravityDiagram, line)


def test_record_reads_a_null_field_as_none():
    line = '{"kind": "in", "n": 1, "k": 2, "segments": [], "colors": null}'
    d = record_from_json(GR.GravityDiagram, line)
    assert d == GR.GravityDiagram("in", 1, 2, ())
    assert d.to_json() == '{"kind": "in", "n": 1, "k": 2, "segments": []}'
