"""Regenerate reference.json, the answers the benchmark checks every operation
against.

    python3 perfbench/make_reference.py

Run it from the repository root.  Per class it records the genus (from the
Riemann-Hurwitz formula), |H1| and |H2| (counted in closed form and, for
k <= 10 and |H1| <= 50,000, compared with the library's brute-force
stabilizer), the indices,
and the abelianizations of LMod and CLMod: the closed forms of Mod(S_{0,k})
and PMod(S_{0,k}) at index 1 and for the trivial subgroup, else the Smith
normal form of the raw Reidemeister-Schreier presentation, so that no answer
depends on Tietze.  It also records the paper's genus-3 table and the
enumeration counts.  A run takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import liftmcg  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# The brute-force stabilizer holds every element in memory, so it runs only
# up to this order; above it (the hyperelliptic members, whose stabilizer is
# all of Sym(k)) the closed form stands alone.
BRUTE_FORCE_MAX_ORDER = 50_000

# Table 1 of the paper: N(F) and C(F) of the eight genus-3 irreducible classes.
PAPER_TABLE1 = (
    ("(7,0;(1,7),(2,7),(4,7))", "Z7 x|_2 Z3", "Z7"),
    ("(7,0;(5,7),(1,7),(1,7))", "Z7 x Z2", "Z7 x Z2"),
    ("(8,0;(1,4),(1,8),(5,8))", "Z8 x|_5 Z2", "Z8"),
    ("(8,0;(3,4),(1,8),(1,8))", "Z8 x Z2", "Z8 x Z2"),
    ("(9,0;(1,3),(1,9),(5,9))", "Z9", "Z9"),
    ("(12,0;(1,2),(1,12),(5,12))", "Z12 x|_5 Z2", "Z12"),
    ("(12,0;(2,3),(1,4),(1,12))", "Z12", "Z12"),
    ("(14,0;(1,2),(3,7),(1,14))", "Z14", "Z14"),
)


def stabilizer_orders(n: int, c: tuple[int, ...]) -> tuple[int, int]:
    """|H1| and |H2| for the vector c mod n.  H2 permutes equal entries, so
    its order is the product of the factorials of the multiplicities; each
    unit u that maps the multiset of entries onto itself adds one coset."""
    h2 = 1
    for count in Counter(c).values():
        h2 *= factorial(count)
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    same = sum(1 for u in units if sorted(u * x % n for x in c) == sorted(c))
    return h2 * same, h2


def raw_ab(ds, k: int, order: int, subgroup) -> list:
    if order == factorial(k):
        return oracle.mod_sphere_ab(k)
    if order == 1:
        return oracle.pmod_sphere_ab(k)
    fp = liftmcg.fpgroups
    raw = fp.reidemeister_schreier_full(
        fp.mod_sphere_presentation(k), fp.psi_images(k), subgroup)[0]
    return oracle.normalize_ab(fp.abelianization(raw))


def class_entry(ds) -> dict:
    k = ds.k
    c = tuple((ds.n // m) * d % ds.n for d, m in ds.pairs)
    genus = 1 + Fraction(ds.n, 2) * (sum(Fraction(m - 1, m) for _, m in ds.pairs) - 2)
    h1, h2 = stabilizer_orders(ds.n, c)
    v = liftmcg.generating_vector(ds)
    if k <= 10 and h1 <= BRUTE_FORCE_MAX_ORDER:
        stab = liftmcg.stabilizer_bruteforce(v)
        brute = (len({s for _, s in stab}), sum(1 for u, _ in stab if u == 1))
        if brute != (h1, h2):
            raise SystemExit(f"{ds}: closed form {(h1, h2)} != brute force {brute}")
    groups = None
    if h1 not in (1, factorial(k)) or h2 not in (1, factorial(k)):
        groups = liftmcg.liftable_images(v, cross_check=False)
        if (groups.h1.order, groups.h2.order) != (h1, h2):
            raise SystemExit(f"{ds}: liftable_images orders differ from {(h1, h2)}")
    return {
        "n": ds.n, "k": k, "genus": int(genus), "h1": h1, "h2": h2,
        "index_mod_lmod": factorial(k) // h1, "index_n_c": h1 // h2,
        "lmod_ab": raw_ab(ds, k, h1, groups and groups.h1),
        "clmod_ab": raw_ab(ds, k, h2, groups and groups.h2),
    }


def check_closed_forms() -> None:
    """The closed forms agree with the library's Smith normal form, k = 3..8."""
    fp = liftmcg.fpgroups
    for k in range(3, 9):
        for present, closed in ((fp.mod_sphere_presentation, oracle.mod_sphere_ab),
                                (fp.pmod_sphere_presentation, oracle.pmod_sphere_ab)):
            got = oracle.normalize_ab(fp.abelianization(present(k)))
            if got != closed(k):
                raise SystemExit(f"{present.__name__}({k}): {got} != closed form {closed(k)}")


def main() -> None:
    check_closed_forms()
    lib = liftmcg
    skip = workloads.EXCLUDED["sweep_g2_6"]
    wanted = {key: ds for key, ds in workloads.spherical(lib, workloads.SWEEP_GENERA)
              if key not in skip}
    wanted.update(workloads.three_point_classes(lib))
    wanted.update(workloads.family_members(lib))
    classes = {}
    for key, ds in sorted(wanted.items()):
        classes[key] = class_entry(ds)
        print(key, classes[key], flush=True)
    render, parse = lib.render_dataset, lib.parse_dataset
    enum = {}
    for g in workloads.ENUMERATE_GENERA:
        lines = [render(ds) for ds in lib.enumerate_spherical(g)]
        enum[str(g)] = {"count": len(lines), "sha256": oracle.enumerate_digest(lines)}
    reference = {
        "note": "Written by perfbench/make_reference.py; see its docstring.",
        "classes": classes,
        "table1": [[render(parse(text)), norm, cent] for text, norm, cent in PAPER_TABLE1],
        "enumerate": enum,
    }
    with open(oracle.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
