"""Seeded inputs: same seed → same bytes, different seed → different,
and the workload shape does not depend on the seed."""

import re
from collections import Counter

import inputs
from inputs import SMOKE


def query_digest(blocks, n_blocks=2):
    return inputs.digest(q.text for _ in range(n_blocks)
                         for q in next(blocks))


def test_same_seed_same_corpus_and_queries():
    a, b = inputs.volumes(3, SMOKE), inputs.volumes(3, SMOKE)
    assert list(a) == [f"vol{v:02d}.xml" for v in range(8)]
    assert inputs.digest(a.values()) == inputs.digest(b.values())
    assert (query_digest(inputs.unique_blocks(3, SMOKE))
            == query_digest(inputs.unique_blocks(3, SMOKE)))
    rep = inputs.repeat_queries(3, SMOKE)
    assert rep == inputs.repeat_queries(3, SMOKE)
    assert (query_digest(inputs.zipf_blocks(3, rep))
            == query_digest(inputs.zipf_blocks(3, rep)))
    assert (inputs.paper_digest(inputs.paper_inputs(3, SMOKE))
            == inputs.paper_digest(inputs.paper_inputs(3, SMOKE)))
    assert inputs.extra_volume(3, SMOKE) == inputs.extra_volume(3, SMOKE)


def test_different_seed_different_inputs():
    assert (inputs.digest(inputs.volumes(3, SMOKE).values())
            != inputs.digest(inputs.volumes(4, SMOKE).values()))
    assert (query_digest(inputs.unique_blocks(3, SMOKE))
            != query_digest(inputs.unique_blocks(4, SMOKE)))
    assert (inputs.paper_digest(inputs.paper_inputs(3, SMOKE))
            != inputs.paper_digest(inputs.paper_inputs(4, SMOKE)))


def test_every_block_has_the_exact_class_mix():
    blocks = inputs.unique_blocks(5, SMOKE)
    for _ in range(3):
        block = next(blocks)
        assert len(block) == inputs.BLOCK_OPS
        assert Counter(q.cls for q in block) == dict(inputs.CLASS_MIX)


def test_unique_stream_never_repeats_and_offers_2000_texts():
    blocks = inputs.unique_blocks(5, inputs.FULL)
    texts = [q.text for _ in range(20) for q in next(blocks)]
    assert len(texts) == len(set(texts)) == 2000


def test_repeat_set_shape_is_seed_independent():
    a, b = inputs.repeat_queries(1, SMOKE), inputs.repeat_queries(2, SMOKE)
    assert len({q.text for q in a}) == inputs.REPEAT_DISTINCT
    assert [q.cls for q in a] == [q.cls for q in b]
    assert [q.text for q in a] != [q.text for q in b]
    assert Counter(q.cls for q in a) == {
        "topk": 16, "thresh": 6, "full": 5, "phrase": 4, "pick": 1}


def test_every_zipf_block_is_the_same_work():
    shares = inputs.zipf_shares(inputs.REPEAT_DISTINCT, inputs.BLOCK_OPS)
    assert sum(shares) == inputs.BLOCK_OPS
    assert shares == sorted(shares, reverse=True) and shares[-1] >= 1
    assert shares[0] == 28       # Zipf(1.1) over 32 ranks: 27.6%
    rep = inputs.repeat_queries(3, SMOKE)
    blocks = inputs.zipf_blocks(3, rep)
    a, b = next(blocks), next(blocks)
    assert [q.text for q in a] != [q.text for q in b]      # order differs
    want = {q.text: n for q, n in zip(rep, shares)}
    assert Counter(q.text for q in a) == want == Counter(q.text for q in b)


def test_volumes_are_balanced_in_count_and_size():
    texts = list(inputs.volumes(7, inputs.FULL).values())
    assert {len(re.findall(r"<article[ >]", t)) for t in texts} == {
        inputs.FULL.articles_per_volume}
    sizes = [len(t) for t in texts]
    assert max(sizes) < 1.05 * min(sizes)


def test_planted_frequencies_are_exact():
    from repro.xmldb import XMLStore

    store = XMLStore.from_sources(inputs.volumes(7, SMOKE))
    for band, terms in zip(SMOKE.bands, inputs.band_terms(SMOKE)):
        for term in terms:
            assert store.index.frequency(term) == band
