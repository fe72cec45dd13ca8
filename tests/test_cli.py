"""Command-line behaviour: documents, exit codes, determinism."""

import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

from bilatdual import algebra, cli, corpus, piggyback, posets, ranked, verify
from bilatdual.algebra import GuardExceeded
from bilatdual.bridge import FreeSizes
from bilatdual.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_jn(capsys):
    code, out, _ = run(capsys, ["build", "jn", "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 6
    assert doc["signature"]["n"] == 1


def test_build_mk_requires_k(capsys):
    code, _, err = run(capsys, ["build", "mk", "--n", "2"])
    assert code == 2 and "requires --k" in err


def test_build_requires_n(capsys):
    code, _, err = run(capsys, ["build", "jn"])
    assert code == 2


def test_build_alter_ego_with_dot(capsys):
    code, out, _ = run(capsys, ["build", "alter-ego", "--n", "2", "--dot"])
    assert code == 0
    json_part, dot_part = out.split("\ndigraph", 1)
    doc = json.loads(json_part)
    assert [len(s) for s in doc["sorts"]] == [4, 6, 6]
    assert "rank=same" in dot_part


def test_build_priestley_default_is_the_ego(capsys):
    code, out, _ = run(capsys, ["build", "priestley", "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 20


def test_build_dual_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, ["build", "jn", "--n", "1"])
    src = tmp_path / "j1.json"
    src.write_text(out)
    code, out, _ = run(capsys, ["build", "dual", "--n", "1", "--in", str(src)])
    assert code == 0
    doc = json.loads(out)
    assert [len(s) for s in doc["sorts"]] == [1, 1]


def test_build_carrier_space(capsys):
    code, out, _ = run(capsys, ["build", "carrier-space", "--n", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 4   # two singleton hom-sets, two carriers each


def test_build_bad_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["build", "dual", "--n", "1", "--in", str(bad)])
    assert code == 2


def test_malformed_in_documents_are_usage_errors(tmp_path, capsys):
    _, j1, _ = run(capsys, ["build", "jn", "--n", "1"])
    _, ego, _ = run(capsys, ["build", "alter-ego", "--n", "1"])
    wrong_ops = dict(json.loads(j1), ops=3)
    docs = [[1, 2], {"n": 1, "sorts": 5}, wrong_ops]
    for entry in (70000, 2 ** 70, 1.7):   # too large for int16, beyond int64, not an integer
        doc = json.loads(j1)
        doc["ops"]["meet_t"][0][0] = entry
        docs.append(doc)
    float_pair, float_g = json.loads(ego), json.loads(ego)
    float_pair["rel_k"]["0"][0] = [0.9, 1]
    float_g["g"]["1"][0] = 0.5
    docs += [float_pair, float_g, dict(json.loads(ego), n=1.0),
             dict(json.loads(j1), signature={"n": 1.0})]
    # JSON true is not the integer 1, wherever a depth, a g value or a pair entry is read
    bool_pair, bool_g = json.loads(ego), json.loads(ego)
    bool_pair["rel_k"]["0"].append([True, True])   # (1, 1) is already in the order
    bool_g["g"]["1"] = [True for _ in bool_g["g"]["1"]]
    docs += [bool_pair, bool_g, dict(json.loads(ego), n=True),
             dict(json.loads(j1), signature={"n": True})]
    # keys that name no slot of depth 1: a sort slot or sort 0 among the cross slots,
    # a sort beyond n among the sort relations, sort 0 or a sort beyond n among the g maps
    slots = {}
    for name, table, key in (("1,1", "rel_jk", "1,1"), ("0,1", "rel_jk", "0,1"),
                             ("rel_k 2", "rel_k", "2"), ("g 0", "g", "0"), ("g 2", "g", "2")):
        doc = json.loads(ego)
        doc[table][key] = [[0, 0]] if table != "g" else [0]
        slots[name] = doc
    docs += [*slots.values(), dict(json.loads(ego), rel_jk=[[0, 0]])]
    # constants that are no mapping, a constant outside the signature, and a document nested
    # past the decoder's recursion limit
    ops = json.loads(j1)["ops"]
    docs += [dict(json.loads(j1), ops=dict(ops, consts=[])),
             dict(json.loads(j1), ops=dict(ops, consts=dict(ops["consts"], foo="bot"))),
             "[" * 100_000 + "]" * 100_000]
    for i, doc in enumerate(docs):
        src = tmp_path / f"doc{i}.json"
        src.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        for kind in ("dual", "priestley", "carrier-space"):
            code, out, err = run(capsys, ["build", kind, "--n", "1", "--in", str(src)])
            assert (code, out) == (2, ""), (doc, kind)
            assert err.startswith("error: bad --in document: "), (doc, kind)
    for key in ("1,1", "0,1"):
        src = tmp_path / "slot.json"
        src.write_text(json.dumps(slots[key]))
        _, _, err = run(capsys, ["build", "priestley", "--n", "1", "--in", str(src)])
        assert err == f"error: bad --in document: cross relation slot ({key}) out of range\n"


def test_json_booleans_in_tables_are_refused(tmp_path, capsys):
    """numpy reads [1, true] as [1, 1], so a boolean beside integers is looked for in the text."""
    _, j1, _ = run(capsys, ["build", "jn", "--n", "1"])
    meet_t, neg = json.loads(j1), json.loads(j1)
    row = meet_t["ops"]["meet_t"][0]
    row[row.index(1)] = True   # 1 read as true: the table stays commutative
    neg["ops"]["neg"][neg["ops"]["neg"].index(0)] = False
    for name, doc in (("meet_t", meet_t), ("neg", neg)):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(doc))
        for kind in ("dual", "carrier-space"):
            code, out, err = run(capsys, ["build", kind, "--n", "1", "--in", str(src)])
            assert (code, out) == (2, ""), (name, kind)
            assert err == "error: bad --in document: table entries must be integers\n", name
    named = json.loads(j1)   # an element named true is no boolean entry
    named["elements"][0] = "true"
    named["ops"]["consts"] = {sym: "true" if e == json.loads(j1)["elements"][0] else e
                              for sym, e in named["ops"]["consts"].items()}
    src = tmp_path / "named.json"
    src.write_text(json.dumps(named))
    code, _, _ = run(capsys, ["build", "dual", "--n", "1", "--in", str(src)])
    assert code == 0


def test_an_algebra_that_breaks_a_bilattice_law_is_outside_the_class(tmp_path, capsys):
    """No law check is needed on --in: homs into the M_k that separate the points embed the
    algebra in a product of M_k's, so it satisfies every identity they do; any other algebra
    has no hom at all or homs that do not separate its points, and both are refused."""
    _, j1, _ = run(capsys, ["build", "jn", "--n", "1"])
    idempotence, swapped = json.loads(j1), json.loads(j1)
    idempotence["ops"]["join_k"][1][1] = idempotence["elements"].index("top")   # f0 join_k f0
    consts = swapped["ops"]["consts"]
    consts["f_0"], consts["t_0"] = consts["t_0"], consts["f_0"]
    broken = algebra.bilattice_law_violations(algebra.FiniteAlgebra.from_dict(idempotence))
    assert broken == ["k: idempotence", "k: absorption join(a, meet(a,b)) = a",
                      "neg: does not preserve knowledge join"]
    for i, doc in enumerate((idempotence, swapped)):
        src = tmp_path / f"law{i}.json"
        src.write_text(json.dumps(doc))
        for kind in ("dual", "carrier-space"):
            code, out, _ = run(capsys, ["build", kind, "--n", "1", "--in", str(src)])
            assert (code, out) == (2, ""), (i, kind)


def test_an_algebra_outside_the_class_names_its_empty_dual(tmp_path, capsys):
    _, j1, _ = run(capsys, ["build", "jn", "--n", "1"])
    doc = json.loads(j1)
    size = len(doc["elements"])
    doc["ops"]["meet_t"] = [[0] * size for _ in range(size)]   # constantly bot: no hom to any M_k
    src = tmp_path / "outside.json"
    src.write_text(json.dumps(doc))
    for kind in ("dual", "carrier-space"):
        code, out, err = run(capsys, ["build", kind, "--n", "1", "--in", str(src)])
        assert (code, out) == (2, ""), kind
        assert err == ("error: algebra has no homomorphism into any M_k, "
                       "so it lies outside the class\n"), kind


def _unseparated_document(tmp_path) -> Path:
    """F_V1(1) with one join_k entry changed: 266 elements, 198 distinct evaluation rows."""
    doc = json.loads(algebra.free_algebra(1).algebra.to_json())
    join_k = doc["ops"]["join_k"]
    join_k[0][1] = join_k[1][0] = join_k[0][2]
    src = tmp_path / "unseparated.json"
    src.write_text(json.dumps(doc))
    return src


def test_an_algebra_whose_homs_do_not_separate_its_points_is_outside_the_class(tmp_path, capsys):
    src = _unseparated_document(tmp_path)
    for kind in ("dual", "carrier-space"):
        code, out, err = run(capsys, ["build", kind, "--n", "1", "--in", str(src)])
        assert (code, out) == (2, ""), kind
        assert err.startswith("error: no homomorphism into any M_k separates "), kind
        assert err.endswith(", so the algebra lies outside the class\n"), kind


def test_an_unseparated_algebra_is_refused_before_its_carrier_space_is_built(
        tmp_path, monkeypatch, capsys):
    def refuse(dual):
        raise AssertionError("the carrier space was built")

    monkeypatch.setattr(cli, "build_carrier_space", refuse)
    code, out, err = run(capsys, ["build", "carrier-space", "--n", "1",
                                  "--in", str(_unseparated_document(tmp_path))])
    assert (code, out) == (2, "")
    assert err.startswith("error: no homomorphism into any M_k separates ")


def test_a_carrier_space_order_fault_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """A lifted relation that breaks transitivity is refused by the Poset: exit 2, no traceback.

    J_1 has one hom into each M_k, so every relation lifted on its hom-sets is {(0, 0)}; the
    fault goes into F_V1(1)'s carrier space instead, whose first lifted relation, the
    pointwise order on its four homs into M_0, gains the pair (1, 2) of incomparable homs.
    """
    lifted, calls = piggyback.pointwise_relation, []

    def faulty(rel, homs1, homs2):
        calls.append(list(lifted(rel, homs1, homs2)))
        return calls[-1] + ([(1, 2)] if len(calls) == 1 else [])

    monkeypatch.setattr(piggyback, "pointwise_relation", faulty)
    src = tmp_path / "F1.json"
    src.write_text(algebra.free_algebra(1).algebra.to_json())
    code, out, err = run(capsys, ["build", "carrier-space", "--n", "1", "--in", str(src)])
    assert not {(1, 2), (2, 1)} & set(calls[0])
    assert (code, out) == (2, "")
    assert err.startswith("error: not a partial order: transitivity fails at (")


def test_a_non_commutative_document_is_refused_at_parse(tmp_path, capsys):
    _, j1, _ = run(capsys, ["build", "jn", "--n", "1"])
    doc = json.loads(j1)
    size = len(doc["elements"])
    doc["ops"]["join_k"] = [[a] * size for a in range(size)]   # a left projection
    src = tmp_path / "noncommutative.json"
    src.write_text(json.dumps(doc))
    for kind in ("dual", "carrier-space"):
        code, out, err = run(capsys, ["build", kind, "--n", "1", "--in", str(src)])
        assert (code, out) == (2, ""), kind
        assert err == "error: bad --in document: join_k table is not commutative\n", kind


def test_kinds_built_from_n_alone_refuse_an_in_document(tmp_path, capsys):
    for argv in (["jn"], ["mk", "--k", "0"], ["alter-ego"]):
        code, out, err = run(capsys, ["build", *argv, "--n", "1",
                                      "--in", str(tmp_path / "absent.json")])
        assert (code, out) == (2, ""), argv
        assert err == f"error: build {argv[0]} takes no --in document\n"


def test_build_refuses_options_its_kind_does_not_read(capsys):
    for argv, option in ((["jn", "--k", "3"], "--k"), (["alter-ego", "--k", "0"], "--k"),
                         (["dual", "--k", "1"], "--k"), (["priestley", "--k", "1"], "--k"),
                         (["carrier-space", "--k", "0"], "--k"), (["jn", "--dot"], "--dot"),
                         (["mk", "--k", "0", "--dot"], "--dot")):
        code, out, err = run(capsys, ["build", *argv, "--n", "1"])
        assert (code, out) == (2, ""), argv
        assert err == f"error: build {argv[0]} takes no {option}\n", argv
    code, out, _ = run(capsys, ["build", "mk", "--n", "1", "--k", "0"])
    assert code == 0 and len(json.loads(out)["elements"]) == 4


def test_verify_refuses_a_depth_whose_alter_ego_build_refuses(capsys):
    assert cli._build_refusal("alter-ego", 249) is None
    for suite, n in (("tables", 100_000), ("duality", 100_000), ("axioms", 3000),
                     ("all", 250)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, ["verify", "--suite", suite, "--n", str(n)])
        assert time.perf_counter() - t0 < 2, (suite, n)
        assert (code, out) == (2, ""), (suite, n)
        assert err.startswith(f"error: the alter ego at n={n} holds about "), (suite, n)
        assert err.endswith(f" numbers (build guard {cli.BUILD_GUARD})\n"), (suite, n)


def test_build_guard_trip_is_a_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise GuardExceeded("carrier too large")

    monkeypatch.setattr(cli, "build_carrier_space", refuse)
    code, out, err = run(capsys, ["build", "carrier-space", "--n", "1"])
    assert code == 2 and out == ""
    assert err == "error: carrier too large\n"


def test_in_document_depth_must_match_n(tmp_path, capsys):
    docs = {}
    for kind, build in (("algebra", "jn"), ("structure", "alter-ego")):
        _, text, _ = run(capsys, ["build", build, "--n", "1"])
        docs[kind] = tmp_path / f"{kind}.json"
        docs[kind].write_text(text)
    for kind, doc, n in (("priestley", "structure", "3"), ("dual", "algebra", "2"),
                         ("carrier-space", "algebra", "2")):
        code, out, err = run(capsys, ["build", kind, "--n", n, "--in", str(docs[doc])])
        assert (code, out) == (2, ""), kind
        assert err == f"error: --in document has depth n=1 but --n is {n}\n", kind


def test_constant_count_is_checked_before_the_symbols_are_spelled(tmp_path, capsys):
    _, j1, _ = run(capsys, ["build", "jn", "--n", "1"])
    src = tmp_path / "deep.json"
    src.write_text(json.dumps(dict(json.loads(j1), signature={"n": 10 ** 6})))
    code, out, err = run(capsys, ["build", "dual", "--n", str(10 ** 6), "--in", str(src)])
    assert (code, out) == (2, "")
    assert err == ("error: bad --in document: 6 constants given, "
                   "but depth n=1000000 needs 2000004\n")


def test_free_size_all_methods(capsys):
    code, out, _ = run(capsys, ["free-size", "--n", "1", "--method", "all"])
    assert code == 0
    assert "total=266" in out and "generated=266" in out and "agree" in out
    code, out, _ = run(capsys, ["free-size", "--n", "2", "--method", "all",
                                "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total_formula"] == doc["total_counted"] == doc["brute_force_size"] == 1434
    assert doc["agree"] is True


def test_free_size_generate_guard(capsys):
    code, out, _ = run(capsys, ["free-size", "--n", "3", "--method", "all"])
    assert code == 0
    assert "generate skipped" in out
    assert "total=5622" in out


def test_free_size_generate_stops_at_the_table_ceiling(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, ["free-size", "--n", "4", "--method", "generate",
                                "--guard-limit", "20000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "note: generate skipped: formula size 17396 exceeds guard 10000\n" in out
    assert "generated=" not in out


def test_a_guard_limit_below_one_is_a_usage_error(capsys):
    for limit in ("0", "-5"):
        code, out, err = run(capsys, ["free-size", "--n", "1", "--guard-limit", limit])
        assert code == 2 and out == "", limit
        assert "requires --guard-limit >= 1" in err
    code, out, _ = run(capsys, ["free-size", "--n", "1", "--method", "generate",
                                "--guard-limit", "1"])
    assert code == 0 and "generate skipped: formula size 266 exceeds guard 1\n" in out


def test_free_size_generate_closure_guard_is_a_notice(monkeypatch, capsys):
    # generate builds no tables, so only the closure guard can stop it
    monkeypatch.setattr(algebra, "DEFAULT_TABLE_GUARD", 1000)
    code, out, _ = run(capsys, ["free-size", "--n", "1", "--method", "generate"])
    assert code == 0 and "generated=266  agree" in out
    # a formula below the limit lets the closure itself meet the guard: it outgrew the formula
    monkeypatch.setattr(cli, "free_size_formula", lambda n: FreeSizes(0, 10, 10))
    code, out, _ = run(capsys, ["free-size", "--n", "1", "--method", "generate",
                                "--guard-limit", "100"])
    assert code == 1 and "DISAGREE" in out
    assert "note: generate disagrees: closure exceeded 100 elements, but the formula gives 10\n" in out
    assert "generated=" not in out


def test_a_closure_that_outgrows_the_formula_disagrees(monkeypatch, capsys):
    """Under the guard the closure runs only when the formula fits, so a trip is a disagreement."""
    def outgrow(n, max_elements):
        raise GuardExceeded(f"closure exceeded {max_elements} elements")

    monkeypatch.setattr(cli, "free_algebra_rows", outgrow)
    code, out, _ = run(capsys, ["free-size", "--n", "1", "--method", "all"])
    assert code == 1
    assert "total=266  counted=147/119/266  DISAGREE\n" in out
    assert "note: generate disagrees: closure exceeded 2000 elements, but the formula gives 266\n" in out
    code, out, _ = run(capsys, ["free-size", "--n", "1", "--method", "generate", "--format",
                                "structured"])
    doc = json.loads(out)
    assert code == 1 and doc["agree"] is False and "brute_force_size" not in doc
    # a formula above the guard is still a skip, before any closure
    code, out, _ = run(capsys, ["free-size", "--n", "3", "--method", "generate"])
    assert code == 0 and "total=5622  unchecked\n" in out
    assert "note: generate skipped: formula size 5622 exceeds guard 2000\n" in out


def test_a_run_that_checks_nothing_is_unchecked(capsys):
    """With no second method finished, nothing agreed with the formula: exit 0, no verdict."""
    code, out, _ = run(capsys, ["free-size", "--n", "2", "--method", "formula"])
    assert (code, out) == (0, "n=2  f=710  g=724  total=1434  unchecked\n")
    code, out, _ = run(capsys, ["free-size", "--n", "2", "--method", "formula", "--format",
                                "structured"])
    assert code == 0 and json.loads(out)["agree"] is None
    code, out, _ = run(capsys, ["free-size", "--n", "1000", "--method", "all"])
    assert code == 0 and "total=505021051078574036  unchecked\n" in out
    assert "note: downsets skipped: " in out and "note: generate skipped: " in out


def test_a_formula_that_fails_its_self_check_exits_1(monkeypatch, capsys):
    def inconsistent(n):
        raise AssertionError("split does not sum to the total")

    monkeypatch.setattr(cli, "free_size_formula", inconsistent)
    for method in ("formula", "all"):
        code, out, err = run(capsys, ["free-size", "--n", "1", "--method", method])
        assert (code, out) == (1, "")
        assert err == "error: free-size formula self-check failed: split does not sum to the total\n"


def test_downset_memo_budget_trip_is_a_skip(monkeypatch, capsys):
    monkeypatch.setattr(posets, "COUNT_MEMO_BYTES", 1000)
    code, out, _ = run(capsys, ["free-size", "--n", "40", "--method", "downsets"])
    assert code == 0
    assert "note: downsets skipped: down-set counting exceeded its memo budget" in out
    assert "counted=" not in out


def test_downset_guard_ends_large_n_quickly(capsys):
    for n, total, outcome in ((40, 2617152596, "counted=1307836716/1309315880/2617152596"),
                              (1000, 505021051078574036,
                               "downsets skipped: P(X) would have 12008 points")):
        start = time.perf_counter()
        code, out, _ = run(capsys, ["free-size", "--n", str(n), "--method", "downsets"])
        assert time.perf_counter() - start < 5.0, n
        assert code == 0
        assert f"total={total}" in out and outcome in out


def test_free_size_downsets_n6(capsys):
    code, out, _ = run(capsys, ["free-size", "--n", "6", "--method", "downsets"])
    assert code == 0
    assert "counted=51162/52584/103746" in out


def test_verify_text_and_exit(capsys):
    for n in ("1", "16"):   # P(M~16) has 15,237,956 down-sets, every one tallied
        code, out, _ = run(capsys, ["verify", "--suite", "tables", "--n", n])
        assert code == 0
        assert "overall: pass" in out and "SKIP" not in out


def test_a_table3_fault_is_a_fail_and_the_tables_suite_runs_on(monkeypatch, capsys):
    def broken(n):
        raise AssertionError("carrier does not preserve the bounds")

    monkeypatch.setattr(verify, "table3_report", broken)
    code, out, _ = run(capsys, ["verify", "--suite", "tables", "--n", "1"])
    assert code == 1
    assert ("  FAIL  piggyback-table:16-pairs  [AssertionError: carrier does not preserve "
            "the bounds]\n") in out
    for check_id in ("subuniverse-lattices", "grouped-downset-tallies", "two-by-m-grid-counts"):
        assert f"  PASS  {check_id}\n" in out


def test_a_fault_building_the_corpus_algebras_is_a_fail(monkeypatch, capsys):
    """J_n and M_k are built inside the checks that read them, not before the run."""
    def not_a_lattice(*args):
        raise algebra.NotALattice("no meet/join for pair (0, 4)")

    monkeypatch.setattr(corpus, "build_jn", not_a_lattice)
    code, out, err = run(capsys, ["verify", "--suite", "translation", "--n", "1"])
    assert code == 1 and err == ""
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")]
    assert failed == ["translation:J1", *(f"translation:sub(J1^2)#{i}" for i in range(5))]
    assert "[NotALattice: no meet/join for pair (0, 4)]" in out
    assert "  PASS  translation:M1\n" in out and "  PASS  translation:F_V1(1)\n" in out
    monkeypatch.undo()
    monkeypatch.setattr(corpus, "mk_algebras", not_a_lattice)
    code, out, _ = run(capsys, ["verify", "--suite", "translation", "--n", "1"])
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")]
    assert code == 1 and failed == ["translation:M0", "translation:M1"]


def test_a_fault_drawing_the_structure_corpus_is_a_fail(monkeypatch, capsys):
    """The seeded structures are drawn inside the checks that read them, not before the run."""
    def faulty(*args):
        raise ValueError("g_1 image out of sort 0")

    monkeypatch.setattr(verify, "structure_corpus", faulty)
    code, out, err = run(capsys, ["verify", "--suite", "all", "--n", "1"])
    assert code == 1 and err == ""
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")]
    assert failed == ["axioms/axioms-vs-separation:100-structures", "functors/roundtrip:7",
                      "functors/morphism-transport:50-samples"]
    assert out.count("[ValueError: g_1 image out of sort 0]") == 3
    assert "  PASS  functors/roundtrip:6\n" in out and "  PASS  tables/subuniverse-lattices\n" in out


def test_verify_reports_are_byte_identical(capsys):
    argv = ["verify", "--suite", "axioms", "--n", "1", "--seed", "5",
            "--format", "structured"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["overall"] == "pass"
    assert all("elapsed" not in c for c in doc["checks"])


def test_separation_guard_trip_is_a_skip(monkeypatch):
    def refuse(structure):
        raise GuardExceeded("too many morphisms")

    monkeypatch.setattr(verify, "membership_by_separation", refuse)
    monkeypatch.setattr(verify, "AXIOMS_CORPUS", 3)
    result = verify.run_suite("axioms", 1)
    status = {c.id: c.status for c in result.checks}
    assert status["axioms-vs-separation:3-structures"] == "skip"
    assert status["alter-ego-satisfies-axioms"] == "pass"


def test_verify_structured_with_timings(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "tables", "--n", "1",
                                "--format", "structured", "--timings"])
    assert code == 0
    doc = json.loads(out)
    assert all("elapsed" in c for c in doc["checks"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["build", "jn", "--n", "2", "--out", str(target)])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert len(doc["elements"]) == 8


def test_dot_file_next_to_out(tmp_path, capsys):
    target = tmp_path / "ego.json"
    code, _, _ = run(capsys, ["build", "alter-ego", "--n", "1", "--dot",
                              "--out", str(target)])
    assert code == 0
    assert (tmp_path / "ego.json.dot").read_text().startswith("digraph")


def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "ego.json.dot").mkdir()
    for argv, target in ((["build", "jn", "--n", "1"], tmp_path),
                         (["verify", "--suite", "tables", "--n", "1"], tmp_path),
                         (["free-size", "--n", "1", "--method", "formula"],
                          tmp_path / "absent" / "x.txt"),
                         (["build", "alter-ego", "--n", "1", "--dot"], tmp_path / "ego.json")):
        code, out, err = run(capsys, [*argv, "--out", str(target)])
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot write --out "), argv
        assert "Traceback" not in err, argv
    assert not (tmp_path / "ego.json").exists()


def test_build_guard_refuses_before_building(tmp_path, capsys):
    antichain = tmp_path / "antichain.json"   # 3,000 points read from --in, not built from --n
    antichain.write_text(json.dumps({"n": 1, "sorts": [[f"p{i}" for i in range(3000)], []],
                                     "g": {"1": []}, "rel_k": {"0": [[i, i] for i in range(3000)],
                                                               "1": []}}))
    build_guard = f"(build guard {cli.BUILD_GUARD})"
    point_guard = f"(point guard {ranked.P_POINT_GUARD})"
    for argv, guard in ((["build", "jn", "--n", "100000"], build_guard),
                        (["build", "jn", "--n", "1000"], build_guard),
                        (["build", "alter-ego", "--n", "5000"], build_guard),
                        (["build", "priestley", "--n", "1", "--in", str(antichain)], point_guard)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - t0 < 2, argv
        assert code == 2 and out == "", argv
        assert guard in err, argv
    code, out, _ = run(capsys, ["build", "jn", "--n", "100"])
    assert code == 0
    assert len(json.loads(out)["elements"]) == 204


def _bench_checks():
    """The benchmark's output checks, with its recorded stdout and input digests."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("_bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_reports_match_the_benchmark_digests(tmp_path, capsys):
    wanted = ["verify --suite all --n 2 --seed 20260809",
              "verify --suite axioms --n 4 --seed 20260809",
              "free-size --method all --n 1", "free-size --method all --n 2",
              *(f"free-size --method downsets --n {n}" for n in (3, 4, 5))]
    checks = _bench_checks()
    for invocation in wanted:
        code, out, _ = run(capsys, invocation.split())
        assert code == 0, invocation
        assert hashlib.sha256(out.encode()).hexdigest() == checks.DIGESTS[invocation], invocation
    f1 = tmp_path / "F1.json"
    f1.write_text(algebra.free_algebra(1).algebra.to_json())
    assert hashlib.sha256(f1.read_bytes()).hexdigest() == checks.F1_SHA256
    for kind in ("dual", "carrier-space"):
        invocation = f"build {kind} --n 1 --in perfbench/_work/F1.json"
        code, out, _ = run(capsys, ["build", kind, "--n", "1", "--in", str(f1)])
        assert code == 0, invocation
        assert hashlib.sha256(out.encode()).hexdigest() == checks.DIGESTS[invocation], invocation


def test_free_size_and_verify_do_not_import_numpy_ma():
    """No path of these runs needs numpy.ma, whose import costs about 11 ms per process."""
    script = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1])\n"
              "from bilatdual.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(['free-size', '--method', 'all', '--n', '2']),\n"
              "             main(['verify', '--suite', 'all', '--n', '1'])]\n"
              "print(codes, 'numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, src], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 0] False\n", "")
