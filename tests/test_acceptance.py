"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

All tolerances are exact (integer equality or boolean checks); the timed
criteria assert their stated wall-clock budgets.
"""

import random
import time

from bilatdual.algebra import (bilattice_law_violations, build_jn, build_mk,
                               enumerate_homs, enumerate_homs_bruteforce,
                               enumerate_subuniverses, free_algebra, mk_algebras, product)
from bilatdual.bridge import (construct_P, free_size_formula, partitioned_downset_count,
                              table_avoiding_expected, table_meeting_expected,
                              verify_translation)
from bilatdual.corpus import corpus_algebras, sample_morphisms, seeded_subalgebras, structure_corpus
from bilatdual.distlat import (lattice_of_downsets, lattice_of_upsets, lattice_reduct,
                               lattices_isomorphic, priestley_dual_of_lattice)
from bilatdual.multisorted import (build_alter_ego, check_axioms, is_multimorphism,
                                   membership_by_separation, natural_dual, verify_unit_iso)
from bilatdual.piggyback import (build_carrier_space, name_relation, table3_report,
                                 verify_piggyback_iso)
from bilatdual.posets import (count_downsets, count_downsets_bruteforce,
                              disjoint_union, dual, grid, linear_sum)
from bilatdual.ranked import (flat_map_of_multimorphism, functor_F, functor_G,
                              is_ranked_morphism)
from bilatdual.verify import DEFAULT_SEED

SEED = DEFAULT_SEED


def report(k, text):
    print(f"ACCEPTANCE {k:02d} PASS — {text}")


def test_criterion_01_free_algebra_cardinality():
    t0 = time.time()
    counted = {}
    for n in range(1, 31):
        space = construct_P(build_alter_ego(n))
        counted[n] = count_downsets(space.poset)
        expected = (n**6 + 10 * n**5 + 42 * n**4 + 102 * n**3
                    + 157 * n**2 + 148 * n + 72) // 2
        assert counted[n] == expected, (n, counted[n], expected)
        assert counted[n] == free_size_formula(n).total
    elapsed = time.time() - t0
    assert elapsed < 60, f"counting took {elapsed:.1f}s"
    report(1, f"down-set counts {counted[1]}, {counted[2]}, ..., {counted[30]} match the "
              f"degree-6 polynomial for n=1..30 in {elapsed:.1f}s")


def test_criterion_02_claims_split_and_tables():
    for n in range(1, 31):
        pc = partitioned_downset_count(n)
        fs = free_size_formula(n)
        assert pc.avoiding_top == fs.avoiding_top, n
        assert pc.meeting_top == fs.meeting_top, n
        for got, expected in ((pc.by_centre, table_avoiding_expected(n)),
                              (pc.by_min_top, table_meeting_expected(n))):
            for key in got.keys() | expected.keys():
                assert got.get(key, 0) == expected.get(key, 0), (n, sorted(key))
    report(2, "top-avoiding/meeting splits match f(n), g(n) and every grouped tally "
              "cell matches its closed form for n=1..30")


def test_criterion_03_bruteforce_cross_check(free1, free2):
    t0 = time.time()
    assert free1.algebra.size == 266
    t1 = time.time()
    assert free2.algebra.size == 1434
    t2 = time.time()
    # fixtures may be cached; rebuild once to honour the stated budget
    t0 = time.time()
    rebuilt = free_algebra(1)
    assert rebuilt.algebra.size == 266
    e1 = time.time() - t0
    t0 = time.time()
    rebuilt2 = free_algebra(2)
    assert rebuilt2.algebra.size == 1434
    e2 = time.time() - t0
    assert e1 < 120 and e2 < 120, (e1, e2)
    report(3, f"generated free algebras have 266 (n=1, {e1:.1f}s) and "
              f"1434 (n=2, {e2:.1f}s) elements")


def test_criterion_04_grid_downset_identity():
    from bilatdual.posets import enumerate_downsets
    for n in range(1, 51):
        expected = (n + 1) * (n + 2) // 2
        if n <= 12:
            assert len(enumerate_downsets(grid(2, n))) == expected, n
        assert count_downsets(grid(2, n)) == expected, n
    report(4, "|O(2 x n)| = (n+1)(n+2)/2 for n=1..50 "
              "(direct enumeration through n=12, memoized counting throughout)")


def test_criterion_05_piggyback_table_n3():
    rows = table3_report(3)
    assert len(rows) == 64
    mismatches = [(r.omega1, r.omega2, r.names) for r in rows if not r.matches_schema]
    assert mismatches == []
    nonempty = sum(1 for r in rows if r.names)
    assert nonempty == 35 and 64 - nonempty == 29
    report(5, "all 64 carrier pairs at n=3 match the published relation sets, "
              "including the 29 empty cells")


def test_criterion_06_subuniverse_lattices_n3():
    n = 3
    mks = mk_algebras(n)
    shapes = {(0, 0): (4, {"le0", "ge0"}),
              (0, 2): (4, {"Sle0_2", "Sge0_2"}),
              (2, 2): (7, {"le2", "ge2", "Sle2_2", "Sge2_2"}),
              (1, 3): (5, {"le1_3", "Sle1_3", "Sge1_3"})}
    sizes = []
    for (j, k), (size, expected) in shapes.items():
        fam = enumerate_subuniverses(product([mks[j], mks[k]]))
        assert len(fam.members) == size, (j, k)
        sizes.append(len(fam.members))
        got = set()
        for member, mi in zip(fam.members, fam.meet_irreducible):
            if mi:
                got.add(name_relation(frozenset(divmod(i, mks[k].size) for i in member),
                                      j, k, n))
        assert got == expected, (j, k, got)
    report(6, f"subuniverse families have sizes {sizes} with the exact "
              "meet-irreducible sets at n=3")


def test_criterion_07_duality_unit():
    checked = 0
    for n in (1, 2):
        for A in (*(build_mk(n, k) for k in range(n + 1)), build_jn(n)):
            assert verify_unit_iso(natural_dual(A)), (n, A.elements)
            checked += 1
        subs = seeded_subalgebras(n, 25, SEED)
        assert len(subs) == 25
        for item in subs:
            assert verify_unit_iso(item.dual), item.label
            checked += 1
    report(7, f"evaluation unit is an isomorphism for {checked} algebras "
              "(all M_k, J_n at n=1,2 and 25 seeded subalgebras of each square)")


def test_criterion_08_axioms_equal_separation():
    total = 0
    for n in (1, 2):
        for X in structure_corpus(n, 100, SEED + n):
            assert check_axioms(X).ok == membership_by_separation(X)
            total += 1
    report(8, f"axiomatisation and separation membership agree on {total} "
              "seeded structures (sorts <= 3 points, n in {1,2})")


def test_criterion_09_category_isomorphism():
    total_structures = 0
    for n in (1, 2):
        pool = [build_alter_ego(n)]
        for item in corpus_algebras(n, SEED, subalgebras=3):
            pool.append(natural_dual(item.algebra, n).structure)
        pool += [X for X in structure_corpus(n, 30, SEED) if check_axioms(X).ok]
        for X in pool:
            Y = functor_F(X)
            assert functor_G(Y) == X
            assert functor_F(functor_G(Y)) == Y
            total_structures += 1
        sampled = sample_morphisms(pool, n, 25, SEED)
        assert sampled
        ego = build_alter_ego(n)
        FE = functor_F(ego)
        rng = random.Random(SEED)
        for X, Y, maps in sampled:
            FX = functor_F(X)
            assert is_ranked_morphism(flat_map_of_multimorphism(maps, Y), FX, FE)
            mutated = [list(m) for m in maps]
            for k in range(n, -1, -1):
                if mutated[k]:
                    mutated[k][0] = (mutated[k][0] + 1 + rng.randrange(
                        len(Y.sorts[k]) - 1)) % len(Y.sorts[k]) \
                        if len(Y.sorts[k]) > 1 else mutated[k][0]
                    break
            maps = tuple(tuple(m) for m in mutated)
            flat = flat_map_of_multimorphism(maps, Y)
            assert is_multimorphism(maps, X, Y) == is_ranked_morphism(flat, FX, FE)
    report(9, f"G(F(X)) = X and F(G(Y)) = Y literally on {total_structures} corpus "
              "structures; transport agrees in both directions on 50 sampled maps")


def test_criterion_10_translation():
    checked = 0
    for n in (1, 2):
        for item in corpus_algebras(n, SEED):
            assert verify_translation(item.dual), item.label
            checked += 1
    report(10, f"H(A-flat) is isomorphic to P(D(A)) (witness checked both ways) "
               f"for all {checked} corpus algebras")


def test_criterion_11_piggyback_space():
    checked = 0
    for n in (1, 2):
        for item in corpus_algebras(n, SEED):
            # build_carrier_space raises if the quasi-order is not antisymmetric
            space = build_carrier_space(item.dual)
            assert space.poset.n == sum(2 * len(item.dual.homs[k])
                                        for k in range(n + 1))
            assert verify_piggyback_iso(item.dual), item.label
            checked += 1
    report(11, f"carrier-space order is antisymmetric, eta is an order-isomorphism "
               f"and the space matches H(A-flat) for all {checked} corpus algebras")


def test_criterion_12_property_suites(free1):
    rng = random.Random(SEED)
    # lattice axioms and negation laws
    for n in (1, 2, 3):
        assert bilattice_law_violations(build_jn(n)) == []
        for k in range(n + 1):
            assert bilattice_law_violations(build_mk(n, k)) == []
    for item in seeded_subalgebras(1, 6, SEED):
        assert bilattice_law_violations(item.algebra) == []
    # explicit negation identities on J_2
    j2 = build_jn(2)
    for x in range(j2.size):
        assert j2.apply("neg", j2.apply("neg", x)) == x
        for y in range(j2.size):
            assert j2.apply("neg", j2.apply("meet_t", x, y)) == \
                j2.apply("join_t", j2.apply("neg", x), j2.apply("neg", y))
            assert j2.apply("neg", j2.apply("meet_k", x, y)) == \
                j2.apply("meet_k", j2.apply("neg", x), j2.apply("neg", y))
    # down-set combinator identities and the brute-force oracle
    from test_posets import random_poset
    for _ in range(20):
        P, Q = random_poset(rng, 6), random_poset(rng, 6)
        assert count_downsets(disjoint_union(P, Q)) == \
            count_downsets(P) * count_downsets(Q)
        assert count_downsets(linear_sum(P, Q)) == \
            count_downsets(P) + count_downsets(Q) - 1
        assert count_downsets(P) == count_downsets(dual(P))
        if P.n <= 12:
            assert count_downsets(P) == count_downsets_bruteforce(P)
    # hom enumeration against the naive oracle
    hom_cases = [(build_mk(2, 0), build_mk(2, 0)), (build_mk(2, 1), build_mk(2, 0)),
                 (build_mk(2, 2), build_mk(2, 1)), (build_jn(1), build_mk(1, 0)),
                 (build_jn(1), build_mk(1, 1))]
    for A, B in hom_cases:
        assert B.size ** A.size <= 10**7
        assert enumerate_homs(A, B) == enumerate_homs_bruteforce(A, B)
    # K(H(L)) is isomorphic to L, up to the 266-element free reduct
    lattices = [lattice_of_downsets(random_poset(rng, 5)) for _ in range(5)]
    lattices += [lattice_reduct(build_jn(1)), lattice_reduct(build_mk(2, 2))]
    lattices.append(lattice_reduct(free1.algebra))
    for L in lattices:
        H = priestley_dual_of_lattice(L)
        assert lattices_isomorphic(lattice_of_upsets(H), L)
    report(12, "lattice laws, negation laws, combinator identities, hom-oracle "
               "equivalence and K(H(L)) = L all hold under the default seed")


def test_criterion_13_generated_free_algebra_n3(tmp_path):
    from bilatdual.cli import main
    out = tmp_path / "free3.txt"
    t0 = time.time()
    code = main(["free-size", "--n", "3", "--out", str(out)])   # the closure guard admits n = 3
    elapsed = time.time() - t0
    assert code == 0
    assert out.read_text() == ("n=3  f=2748  g=2874  total=5622  counted=2748/2874/5622  "
                               "generated=5622  agree\n")
    assert elapsed < 120, f"generation took {elapsed:.1f}s"
    report(13, f"brute-force generation gives |F_V3(1)| = 5622, the formula value and the "
               f"down-set count, in {elapsed:.1f}s")


def test_criterion_14_verify_all_at_n5(capsys):
    from bilatdual.cli import main
    t0 = time.time()
    code = main(["verify", "--suite", "all", "--n", "5"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("overall: pass\n")
    assert "FAIL" not in out
    report(14, f"verify --suite all --n 5 passes {out.count('  PASS  ')} checks "
               f"with no failure in {elapsed:.1f}s")


def test_criterion_15_separation_at_n7(capsys):
    from bilatdual.cli import main
    t0 = time.time()
    code = main(["verify", "--suite", "axioms", "--n", "7"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "  PASS  axioms-vs-separation:100-structures\n" in out
    report(15, f"verify --suite axioms --n 7 decides separation on 100 structures "
               f"and passes in {elapsed:.1f}s")
