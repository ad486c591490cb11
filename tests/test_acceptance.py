"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget."""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

from flowpoly import cli
from flowpoly import combinat as C
from flowpoly import gravity as GR
from flowpoly import graphs as G
from flowpoly import lidskii as L
from flowpoly import paths as P
from flowpoly import unified as U
from flowpoly.kostant import integral_flows, kostant
from oracles import (
    is_log_concave,
    psi_out_subpartition,
    standardized_count_enumerated,
    volume_unit_flow,
    weak_compositions,
)


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {label}: FAIL")
        raise
    elapsed = time.time() - start
    print(f"[criterion {number:2d}] {label}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


APPENDIX = {
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


def unit_volume_target(n: int, k: int) -> int:
    b = k * (n - k) - 1
    return 1 if b < 1 else C.rational_catalan(n - k, b)


def test_criterion_01_appendix_tables(capsys):
    with criterion(1, "appendix parking triangles via the tables command", 1.0):
        for k, triangle in APPENDIX.items():
            code = cli.main(
                ["tables", "parking", "--k", str(k), "--rmax", "5", "--format", "json"]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert json.loads(out)["results"]["rows"] == triangle
        assert C.k_parking_number(2, 3, 1) == 36
        assert C.k_parking_number(3, 4, 2) == 600
        assert C.k_parking_number(4, 5, 0) == 16380


def test_criterion_02_unit_volume_by_both_kostant_vectors():
    with criterion(2, "unit-flow volumes equal rational Catalan numbers (n <= 8)", 60.0):
        for n in range(2, 9):
            for k in range(1, n):
                g = G.caracol_k(n, k)
                want = unit_volume_target(n, k)
                assert kostant(g, G.v_out(g)) == want, (n, k)
                assert kostant(g, G.v_in(g)) == want, (n, k)
                assert volume_unit_flow(g) == want, (n, k)


def test_criterion_03_gravity_counts():
    with criterion(3, "gravity-diagram counts match the unit volume (n <= 7)"):
        for n in range(2, 8):
            for k in range(1, n):
                want = unit_volume_target(n, k)
                assert sum(1 for _ in GR.enumerate_in_gravity(n, k)) == want
                assert sum(1 for _ in GR.enumerate_out_gravity(n, k)) == want
        assert sum(1 for _ in GR.enumerate_in_gravity(5, 1)) == 5
        assert sum(1 for _ in GR.enumerate_out_gravity(5, 2)) == 7


def test_criterion_04_bijection_round_trips():
    with criterion(4, "psi/theta/xi bijections are two-sided inverses", 120.0):
        for n, k in [(5, 1), (5, 2), (6, 2), (7, 3)]:
            ins = list(GR.enumerate_in_gravity(n, k))
            outs = list(GR.enumerate_out_gravity(n, k))
            for d in ins:
                assert GR.psi_in_inverse(GR.psi_in(d), n, k) == d
            for d in outs:
                assert GR.psi_out_inverse(GR.psi_out(d), n, k) == d
            a, b = n - k, k * (n - k) - 1
            paths_set = set(C.dominating_compositions(P.rational_shape(a, b)))
            assert {GR.psi_in(d).shape for d in ins} == paths_set
            assert {GR.psi_out(d).shape for d in outs} == paths_set
            for i in range(n - k):
                for u in U.enumerate_truncated(n, k, i):
                    assert U.theta_inverse(U.theta(u), n, k) == u
        for a_par, k in [(3, 2), (4, 2)]:
            targets = set(GR.enumerate_out_gravity_mcar(a_par, k))
            images = set()
            for d in GR.enumerate_out_gravity(a_par + k, k):
                m = GR.xi(d)
                assert GR.xi_inverse(m) == d
                images.add(m)
            assert images == targets
        # pinned instances
        segs = ((2, 2, 3), (3, 2, 4), (4, 1, 4), (5, 3, 7), (6, 3, 7), (7, 1, 7))
        d = GR.GravityDiagram("out", 11, 3, segs)
        assert psi_out_subpartition(d) == (14, 12, 12, 5, 4, 1)
        for n in range(4, 9):
            pairs, unmatched = GR.in_out_correspondence(
                [(d, GR.psi_in(d)) for d in GR.enumerate_in_gravity(n, 1)],
                [(d, GR.psi_out(d)) for d in GR.enumerate_out_gravity(n, 1)],
            )
            assert unmatched == []
            for dout, din in pairs:
                lam = sorted((r - l for _, l, r in dout.segments), reverse=True)
                lam_in = sorted((n - l for _, l, _ in din.segments), reverse=True)
                width = lam[0] if lam else 0
                conj = [sum(1 for x in lam if x >= j) for j in range(1, width + 1)]
                assert conj == lam_in


def test_criterion_05_truncated_and_standardized_counts():
    with criterion(5, "truncated counts and standardized-diagram counts (n <= 7)", 300.0):
        for n in range(2, 8):
            for k in range(1, n):
                r = n - k - 1
                for i in range(r + 1):
                    assert sum(1 for _ in U.enumerate_truncated(n, k, i)) == (
                        C.k_parking_number(k, r, i)
                    )
                    by_formula = U.standardized_count(n, k, i)
                    assert by_formula == U.standardized_count_formula(n, k, i)
                    assert by_formula == standardized_count_enumerated(n, k, i)
        values = sorted(U.completions(u) for u in U.enumerate_truncated(5, 2, 0))
        assert set(values) == {99, 64, 29}
        assert values == [29, 29, 64, 64, 64, 99, 99]
        assert sum(values) == 448 == 7 * 2**6


def test_criterion_06_simplex_partition():
    with criterion(6, "multinomial-simplex partitions cover disjointly (N <= 6)"):
        for k in (2, 3, 4):
            for total in range(7):
                for c0 in weak_compositions(total, k):
                    blocks = U.simplex_partition(c0)
                    got = sum(
                        C.multinomial(total, d) for _, members in blocks for d in members
                    )
                    assert got == k**total
        blocks = U.simplex_partition((2, 2, 2))
        assert {cj for cj, _ in blocks} == {(2, 2, 2), (1, 2, 3), (2, 1, 3)}
        assert sum(C.multinomial(6, d) for _, mem in blocks for d in mem) == 729


def test_criterion_07_product_formula_volumes():
    with criterion(7, "unified counts match the closed-form volumes (n <= 6)", 120.0):
        for n in range(2, 7):
            for k in range(1, n):
                g = G.caracol_k(n, k)
                flows = [(1, 1), (1, 0), (1, 2), (2, 1), (2, 2)]
                for x, y in flows:
                    a = G.caracol_xy_flow(n, k, x, y)
                    got = L.volume(g, a)
                    assert got == U.volume_closed_form(n, k, x, y), (n, k, x, y)
        assert L.volume(G.caracol_k(5, 2), G.ones_flow(G.caracol_k(5, 2))) == 2800
        assert L.volume(G.caracol_k(5, 1), G.ones_flow(G.caracol_k(5, 1))) == 625
        assert L.volume(G.caracol_k(5, 2), G.caracol_xy_flow(5, 2, 1, 0)) == 448


def test_criterion_08_multicaracol_volumes():
    with criterion(8, "multicaracol closed forms and the k-to-1 volume relation"):
        for a_par in range(1, 5):
            for k in range(1, 4):
                g = G.multicaracol(a_par, k)
                for x, y in [(1, 1), (1, 0), (1, 2), (2, 1), (2, 2)]:
                    nf = G.mcar_xy_flow(a_par, k, x, y)
                    got = L.volume(g, nf)
                    assert got == U.volume_closed_form_mcar(a_par, k, x, y)
                    assert got == k * U.volume_closed_form(a_par + k, k, x, y)


def test_criterion_09_cry_volumes():
    with criterion(9, "Chan-Robbins-Yuen volumes by pure Kostant evaluation", 60.0):
        catalan_products = {3: 1, 4: 2, 5: 10}
        for n, want in catalan_products.items():
            g = G.complete_graph(n)
            assert kostant(g, G.v_out(g)) == want
            assert kostant(g, G.v_in(g)) == want


def test_criterion_10_log_concavity():
    with criterion(10, "k-parking rows are log-concave (k <= 4, r <= 6)"):
        for k in range(1, 5):
            for r in range(7):
                row = [C.k_parking_number(k, r, i) for i in range(r + 1)]
                assert is_log_concave(row)


def oracle_zoo() -> list[G.DirectedMultigraph]:
    zoo = [
        G.caracol_k(3, 1),
        G.caracol_k(3, 2),
        G.caracol_k(4, 1),
        G.caracol_k(4, 2),
        G.caracol_k(4, 3),
        G.caracol_k(5, 1),
        G.caracol_k(5, 2),
        G.caracol_k(5, 3),
        G.pitman_stanley(3),
        G.pitman_stanley(4),
        G.pitman_stanley(5),
        G.complete_graph(2),
        G.complete_graph(3),
        G.complete_graph(4),
        G.multicaracol(1, 2),
        G.multicaracol(2, 1),
        G.multicaracol(2, 2),
        G.multicaracol(2, 3),
        G.multicaracol(3, 1),
        G.multicaracol(3, 2),
    ]
    assert len(zoo) == 20
    return zoo


def test_criterion_11_oracle_consistency():
    with criterion(11, "lattice-point formulas agree with flow enumeration", 120.0):
        for g in oracle_zoo():
            n = g.n
            flows = {G.unit_flow(g), G.ones_flow(g)}
            flows.add((2,) + (0,) * (n - 1) + (-2,))
            flows.add(tuple(2 for _ in range(n)) + (-2 * n,))
            flows.add(tuple((v % 2) + 1 for v in range(n)) + (-sum((v % 2) + 1 for v in range(n)),))
            for a in sorted(flows):
                want = kostant(g, a)
                assert L.lattice_points_binomial(g, a) == want, (g, a)
                assert L.lattice_points_multiset(g, a) == want, (g, a)
                assert sum(1 for _ in integral_flows(g, a)) == want, (g, a)
