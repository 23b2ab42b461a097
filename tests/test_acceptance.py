"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and asserting the stated limit.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import time
from math import factorial

from group_reference import closure, perm_closure
from liftmcg.arith_perm import perm_from_cycles, transposition
from liftmcg.datasets import (
    COND_I,
    RH_NON_INTEGER,
    dataset,
    doubled,
    enumerate_spherical,
    hyperelliptic,
    parse_dataset,
    validate,
)
from liftmcg.fpgroups import (
    abelianization,
    mod_sphere_presentation,
    pmod_sphere_presentation,
    psi_image,
    psi_images,
    reidemeister_schreier_full,
    tietze_simplify,
)
from liftmcg.genvec import (
    GeneratingVector,
    act,
    cyclic,
    direct_product,
    generating_vector,
    liftable_images,
    mod_equals_lmod,
    semidirect,
    stabilizer_bruteforce,
)
from liftmcg.analysis import analyze, table_genus3, verify_doubled_matrices


class _Timer:
    def __init__(self, index, name, limit):
        self.index, self.name, self.limit = index, name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.index} ({self.name}): {status} "
              f"in {elapsed:.3f}s (limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.index} exceeded its {self.limit}s budget"
        return False


def test_criterion_1_table_reproduction():
    expected = [
        (semidirect(7, 3, 2), cyclic(7)),
        (direct_product(7, 2), direct_product(7, 2)),
        (semidirect(8, 2, 5), cyclic(8)),
        (direct_product(8, 2), direct_product(8, 2)),
        (cyclic(9), cyclic(9)),
        (semidirect(12, 2, 5), cyclic(12)),
        (cyclic(12), cyclic(12)),
        (cyclic(14), cyclic(14)),
    ]
    expected_text = [
        ("Z7 x|_2 Z3", "Z7"), ("Z7 x Z2", "Z7 x Z2"),
        ("Z8 x|_5 Z2", "Z8"), ("Z8 x Z2", "Z8 x Z2"),
        ("Z9", "Z9"), ("Z12 x|_5 Z2", "Z12"),
        ("Z12", "Z12"), ("Z14", "Z14"),
    ]
    with _Timer(1, "genus-3 table reproduction", 1.0):
        rows = table_genus3()
        assert len(rows) == 8
        for row, (norm, cent), (norm_text, cent_text) in zip(rows, expected,
                                                             expected_text):
            assert row.normalizer == norm and row.centralizer == cent
            assert row.normalizer.render() == norm_text
            assert row.centralizer.render() == cent_text


def test_criterion_2_doubled_family_indices():
    with _Timer(2, "glued-rotation family indices", 1.0):
        for g in (2, 4, 6, 8):
            # branch order 2 present: both printed shapes, index 6
            for ds in (
                dataset(2 * g + 2, 0,
                        ((1, 2), (1, 2), (1, g + 1), (-1, g + 1))),
                dataset(2 * g, 0, ((1, 2), (1, 2), (1, 2 * g), (-1, 2 * g))),
            ):
                report = validate(ds)
                assert report.ok and report.genus == g
                rep = liftable_images(generating_vector(ds))
                assert rep.index_mod_lmod == 6
                assert rep.index_n_c == 2
        # no branch order 2: index 12 (no such class exists at genus 2:
        # the only genus-1 base with n1 != 2 doubles to n = g + 1)
        bases = {4: "(6,0;(2,3),(1,6),(1,6))",
                 6: "(8,0;(1,4),(5,8),(1,8))",
                 8: "(10,0;(1,5),(7,10),(1,10))"}
        for g, base in bases.items():
            ds = doubled(parse_dataset(base))
            report = validate(ds)
            assert report.ok and report.genus == g
            assert all(m != 2 for _, m in ds.pairs)
            rep = liftable_images(generating_vector(ds))
            assert rep.index_mod_lmod == 12
            assert rep.index_n_c == 2


def test_criterion_3_hyperelliptic():
    with _Timer(3, "hyperelliptic family", 5.0):
        for g in (2, 3, 4, 5):
            rep = analyze(hyperelliptic(g))
            assert rep.stab.h1.order == factorial(2 * g + 2)
            assert rep.stab.h1.is_symmetric
            assert rep.flags["mod_equals_lmod"]
            assert rep.stab.index_mod_lmod == 1
            assert rep.lmod_presentation == mod_sphere_presentation(2 * g + 2)


def test_criterion_4_superelliptic():
    with _Timer(4, "balanced superelliptic family", 1.0):
        for n, k in ((3, 1), (3, 2), (5, 1)):
            points = 2 * k + 2
            v = GeneratingVector(n, (1, n - 1) * (k + 1))
            rep = liftable_images(v, cross_check=True)  # asserts vs brute force
            assert sorted(s for _, s in stabilizer_bruteforce(v)) == \
                list(perm_closure(rep.h1.generators, points))
            assert rep.h1.order == 2 * rep.h2.order
            w = rep.unit_words[n - 1]
            target = perm_from_cycles(
                [(2 * t + 1, 2 * t + 2) for t in range(k + 1)], points)
            assert psi_image(w, points) == target


def test_criterion_5_presentation_cross_validation():
    with _Timer(5, "presentation cross-validation", 1.0):
        ambient = mod_sphere_presentation(4)
        psi = psi_images(4)
        # frozen SNF oracle values, computed by hand before the build
        oracle = {"klein": ((2, 2), 1), "diagonal": ((2,), 2)}

        klein = closure([transposition(1, 2, 4), transposition(3, 4, 4)], 4)
        out, _ = reidemeister_schreier_full(ambient, psi, klein)
        assert abelianization(out) == oracle["klein"]

        diagonal = closure([perm_from_cycles([(1, 2), (3, 4)], 4)], 4)
        out, _ = reidemeister_schreier_full(ambient, psi, diagonal)
        assert abelianization(out) == oracle["diagonal"]

        simplified = tietze_simplify(pmod_sphere_presentation(4))
        assert len(simplified.generators) == 2 and not simplified.relators


def test_criterion_6_matrix_verification():
    with _Timer(6, "homology matrix verification", 0.1):
        ver = verify_doubled_matrices()
        assert ver.ok
        by_name = {c.name: c.ok for c in ver.checks}
        assert by_name["(G1 G2)^2 = F^4"]
        assert by_name["(G3 G2)^2 = F^3"]


def test_criterion_7_oracle_equivalence_suite():
    import random

    rng = random.Random(2024)
    with _Timer(7, "stabilizer oracle equivalence, genus 2-3", 30.0):
        for genus in (2, 3):
            for ds in enumerate_spherical(genus):
                v = generating_vector(ds)
                rep = liftable_images(v, cross_check=True)  # asserts vs brute force
                assert rep.h1.order == rep.h2.order * len(rep.units)
                assert mod_equals_lmod(v) == rep.h1.is_symmetric
                units = [u for u, _ in stabilizer_bruteforce(v)]
                for _ in range(5):
                    u1, u2 = rng.choice(units), rng.choice(units)
                    s1 = tuple(rng.sample(range(v.k), v.k))
                    s2 = tuple(rng.sample(range(v.k), v.k))
                    from liftmcg.arith_perm import compose
                    assert act(u1, s1, act(u2, s2, v)) == \
                        act(u1 * u2 % v.n, compose(s1, s2), v)


def test_criterion_8_validator_negative_case():
    with _Timer(8, "validator negative case", 0.1):
        printed = parse_dataset("(6,0;(1,2),(1,2),(1,6),(-1,5))")
        report = validate(printed)
        assert not report.ok
        assert COND_I in report.violations
        assert RH_NON_INTEGER in report.violations

        consistent = parse_dataset("(6,0;(1,2),(1,2),(1,3),(2,3))")
        report = validate(consistent)
        assert report.ok and report.genus == 2
