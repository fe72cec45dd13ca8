"""One corpus per verification run: drawn once, items closed once, algebras dualised once."""

import gc
import weakref

from bilatdual import algebra, cli, corpus, multisorted, verify
from bilatdual.algebra import GuardExceeded
from bilatdual.corpus import corpus_algebras, seeded_subalgebras
from bilatdual.verify import DEFAULT_SEED, run_suite


def test_a_shorter_corpus_is_a_prefix_of_the_longer_one():
    for n in (1, 2, 3):
        full = corpus_algebras(n, DEFAULT_SEED, subalgebras=25)
        for count in (3, 5):
            short = corpus_algebras(n, DEFAULT_SEED, subalgebras=count)
            assert len(short) == n + 2 + count
            assert [item.label for item in short] == [item.label for item in full[:len(short)]]
            assert ([item.algebra.to_json() for item in short]
                    == [item.algebra.to_json() for item in full[:len(short)]]), (n, count)


def test_the_run_draws_one_corpus_and_dualises_each_item_once(monkeypatch):
    drawn, dualised = [], []
    draw, dualise = verify.corpus_algebras, multisorted.natural_dual

    def counted_draw(*args, **kwargs):
        drawn.append(args)
        return draw(*args, **kwargs)

    def counted_dual(A, *args):
        dualised.append(id(A))
        return dualise(A, *args)

    monkeypatch.setattr(verify, "corpus_algebras", counted_draw)
    for module in (corpus, multisorted):
        monkeypatch.setattr(module, "natural_dual", counted_dual)
    assert run_suite("all", 2).overall == "pass"
    assert len(drawn) == 1
    # M_0..M_2 and J_2, then the 6 distinct algebras of the 25 seeded draws, each dualised once
    assert len(dualised) == len(set(dualised)) == 4 + 6


def test_a_corpus_guard_trip_skips_the_checks_that_need_the_item(monkeypatch, capsys):
    closures = []

    def refuse(factors, generators, limit):
        closures.append(generators)
        raise GuardExceeded(f"closure exceeded {limit} elements")

    monkeypatch.setattr(algebra, "product_closure_rows", refuse)
    assert cli.main(["verify", "--n", "1"]) in (0, 1)
    lines = capsys.readouterr().out.splitlines()
    subs = [line for line in lines if "sub(J1^2)" in line]
    assert len(subs) == 25 + 3 + 5 + 5
    assert all(line.startswith("  SKIP") and "[guard: closure exceeded" in line for line in subs)
    # the functor suite numbers its pool without closing it: the three draws skip there too
    skipped = [line for line in lines if line.startswith("  SKIP  functors/")]
    assert len(skipped) == 3 + 1   # roundtrips of the three draws, and the transport sample
    assert len(closures) == 25   # a trip is remembered, so each item is closed at most once


def test_a_failure_while_sampling_morphisms_is_a_fail_not_an_abort(monkeypatch):
    def broken(*args):
        raise RuntimeError("sampler broke")

    monkeypatch.setattr(verify, "sample_morphisms", broken)
    result = run_suite("functors", 1)
    [transport] = [c for c in result.checks if c.id == "morphism-transport:50-samples"]
    assert (transport.status, transport.witness) == ("fail", "RuntimeError: sampler broke")
    assert all(c.status == "pass" for c in result.checks if c is not transport)


def test_items_no_later_suite_reads_are_freed(monkeypatch):
    n, refs, probed = 1, [], []
    draw = verify.corpus_algebras

    def tracked_draw(*args, **kwargs):
        items = draw(*args, **kwargs)
        refs.extend(weakref.ref(item) for item in items)
        return items

    def probe(*args):
        gc.collect()
        probed.append(len(refs))
        # only the duality suite reads the draws past the fifth; tables reads none
        assert [ref() is None for ref in refs] == [False] * (n + 2) + [True] * 25

    monkeypatch.setattr(verify, "corpus_algebras", tracked_draw)
    monkeypatch.setitem(verify.SUITE_PARTS, "tables", probe)
    run_suite("all", n)
    assert probed == [n + 2 + 25]


def test_draws_with_equal_closed_rows_share_one_algebra_and_dual():
    for n in (1, 2):
        items = seeded_subalgebras(n, 25, DEFAULT_SEED)
        distinct = {}   # the closed rows, named by the elements, -> the first draw closing to them
        for item in items:
            first = distinct.setdefault(item.algebra.elements, item)
            assert item.algebra is first.algebra and item.dual is first.dual, (n, item.label)
        assert len(distinct) == 6, n
        firsts = list(distinct.values())
        assert len({id(item.algebra) for item in firsts}) == len(firsts)
        assert len({id(item.dual) for item in firsts}) == len(firsts)
        # an algebra that only draws past the fifth close to is freed with them
        kept = [any(item._closed is other._closed for other in items[:5]) for item in firsts]
        shared = [weakref.ref(item._closed) for item in firsts]
        del items[5:], distinct, firsts, first, item
        gc.collect()
        assert [ref() is not None for ref in shared] == kept and not all(kept), n
