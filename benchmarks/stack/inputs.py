"""Seeded inputs: corpora and query lists.

Everything here is harness-side: the program under test only ever sees
the XML text and query text produced from ``--seed``.  The *shape* of a
workload (class mix, term-frequency bands, Zipf ranks) is fixed and
stratified so that two seeds do the same amount of work; the seed picks
which terms, which volume, and the corpus content.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from repro.workload import (
    CorpusSpec,
    generate_corpus,
    random_scored_tree,
    table123_spec,
    table4_spec,
    table5_spec,
)
from repro.workload.benchspec import PICK_INPUT_SIZES, TABLE5_PHRASES

#: Query classes over ``volumes`` and their share of every 100 operations.
CLASS_MIX = (("topk", 50), ("thresh", 20), ("full", 15), ("phrase", 13),
             ("pick", 2))
BLOCK_OPS = sum(n for _, n in CLASS_MIX)

#: Distinct queries of ``served_repeat`` and their Zipf exponent.
REPEAT_DISTINCT = 32
ZIPF_S = 1.1

TERMS_PER_BAND = 10
PHRASE_PAIRS = 6
N_VOLUMES = 8
EXTRA_VOLUME = "vol08.xml"
#: Planted only in the ninth volume (the ``ingest_update`` answer check).
EXTRA_TERM = "ninthvolumeonly"


@dataclass(frozen=True)
class Sizes:
    """Everything that scales a run.  Two presets: the reporting size
    and ``--smoke``."""

    articles_per_volume: int
    bands: Tuple[int, int, int, int]
    phrase_scale: float      # Table-5 frequencies × this
    paper_scale: float       # Tables 1-4 planted frequencies × this
    table5_scale: float
    pick_sizes: Tuple[int, ...]
    warmup_ops: int          # excluded head of every op stream
    traced_ops: int          # sample replayed by the traced pass
    reads_per_write: int
    setup_repeats: int


FULL = Sizes(
    articles_per_volume=10, bands=(5, 50, 250, 750), phrase_scale=0.0125,
    paper_scale=1.0, table5_scale=0.05,
    pick_sizes=tuple(PICK_INPUT_SIZES), warmup_ops=20, traced_ops=100,
    reads_per_write=10, setup_repeats=3,
)
SMOKE = Sizes(
    articles_per_volume=2, bands=(2, 6, 12, 24), phrase_scale=0.0005,
    paper_scale=0.02, table5_scale=0.004,
    pick_sizes=(200, 1000), warmup_ops=2, traced_ops=20,
    reads_per_write=5, setup_repeats=2,
)


def digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# ----------------------------------------------------------------------
# The ``volumes`` corpus
# ----------------------------------------------------------------------

def band_terms(sizes: Sizes) -> List[List[str]]:
    return [[f"b{band}x{i}" for i in range(TERMS_PER_BAND)]
            for band in sizes.bands]


def phrase_pairs() -> List[Tuple[str, str]]:
    return [(f"pa{i}", f"pb{i}") for i in range(PHRASE_PAIRS)]


def _volume_xml(docs) -> str:
    return "<volume>" + "".join(docs) + "</volume>"


def _balanced(articles: List[str], n_volumes: int) -> List[List[str]]:
    """Deal the serialized articles into ``n_volumes`` equal-count
    volumes of nearly equal size: longest first, each to the lightest
    volume that still has room.  What a query costs is what its volume
    holds — a ``topk`` answer is most of a volume's text — and dealt in
    corpus order the volumes of one seed ranged from 53 to 87 KB, so the
    volume drawn for the head of ``served_repeat``'s Zipf ranking set
    that run's numbers.  The articles keep their corpus order inside a
    volume."""
    per = len(articles) // n_volumes
    volumes: List[List[int]] = [[] for _ in range(n_volumes)]
    weight = [0] * n_volumes
    for i in sorted(range(len(articles)), key=lambda i: -len(articles[i])):
        v = min((v for v in range(n_volumes) if len(volumes[v]) < per),
                key=lambda v: weight[v])
        volumes[v].append(i)
        weight[v] += len(articles[i])
    return [[articles[i] for i in sorted(members)] for members in volumes]


def volumes(seed: int, sizes: Sizes) -> Dict[str, str]:
    """``vol00.xml`` … ``vol07.xml``: INEX-shaped articles from
    :func:`generate_corpus`, dealt into size-balanced volumes and
    serialized.  Planted frequencies are exact over the whole corpus."""
    planted = {t: band for band, terms in zip(sizes.bands, band_terms(sizes))
               for t in terms}
    phrases = {}
    for (ta, tb), (f1, f2, rsize) in zip(phrase_pairs(), TABLE5_PHRASES):
        together = max(1, round(rsize * sizes.phrase_scale))
        phrases[(ta, tb)] = together
        planted[ta] = max(1, round(f1 * sizes.phrase_scale) - together)
        planted[tb] = max(1, round(f2 * sizes.phrase_scale) - together)
    store = generate_corpus(CorpusSpec(
        n_articles=N_VOLUMES * sizes.articles_per_volume,
        planted_terms=planted, planted_phrases=phrases, seed=seed,
    ))
    articles = [d.serialize() for d in store.documents()]
    return {
        f"vol{v:02d}.xml": _volume_xml(docs)
        for v, docs in enumerate(_balanced(articles, N_VOLUMES))
    }


def extra_volume(seed: int, sizes: Sizes) -> str:
    """The ninth volume ``ingest_update`` adds and removes."""
    store = generate_corpus(CorpusSpec(
        n_articles=sizes.articles_per_volume,
        planted_terms={EXTRA_TERM: 5}, seed=seed + 7919,
    ))
    return _volume_xml(d.serialize() for d in store.documents())


# ----------------------------------------------------------------------
# Queries over ``volumes``
# ----------------------------------------------------------------------

class Query(NamedTuple):
    """One generated query: the text the program sees plus what the
    harness needs to check the answer and replay it stage by stage."""

    cls: str
    text: str
    volume: str
    primary: Tuple[str, ...]      # first term set (single words or phrase)
    secondary: Tuple[str, ...]
    min_score: object             # None or float
    stop_after: object            # None or int


def make_query(cls: str, volume: str, t1: str, t2: str) -> Query:
    head = (f'For $a in document("{volume}")//article'
            f'/descendant-or-self::*\n')
    primary, secondary = (t1,), (t2,)
    min_score = stop_after = None
    tail = "Return $a\nSortby(score)"
    pick = ""
    if cls == "topk":
        min_score, stop_after = 0.0, 10
    elif cls == "thresh":
        min_score = 1.5
    elif cls == "phrase":
        # t1 is "pa pb": a two-word term set lowers onto PhraseJoin.
        min_score, stop_after = 0.0, 10
    elif cls == "pick":
        pick = "Pick $a using PickFoo($a)\n"
    elif cls != "full":
        raise ValueError(f"unknown query class {cls!r}")
    if min_score is not None:
        tail += f"\nThreshold $a/@score > {min_score:g}"
        if stop_after is not None:
            tail += f" stop after {stop_after}"
    text = (f'{head}Score $a using ScoreFooExact($a, {{"{t1}"}}, '
            f'{{"{t2}"}})\n{pick}{tail}')
    return Query(cls, text, volume, primary, secondary, min_score,
                 stop_after)


class _QueryShapes:
    """Stratified shape stream: every class walks the 16 band pairs in a
    fixed rotation, so any 16 consecutive queries of a class cost the
    same regardless of seed; the seed draws terms and volumes.

    The walk starts at the rarest pair.  ``frequent_first`` starts it at
    the most frequent one instead: a term with 5 occurrences is absent
    from most volumes, and ``served_repeat`` must not put such a query —
    an empty answer — at the head of its Zipf ranking."""

    def __init__(self, seed: int, sizes: Sizes,
                 frequent_first: bool = False) -> None:
        self.rng = random.Random(seed)
        self.bands = band_terms(sizes)
        if frequent_first:
            self.bands.reverse()
        self.pairs = [" ".join(p) for p in phrase_pairs()]
        self.turn = {cls: 0 for cls, _ in CLASS_MIX}

    def next(self, cls: str) -> Query:
        rng = self.rng
        turn = self.turn[cls]
        self.turn[cls] = turn + 1
        nb = len(self.bands)
        volume = f"vol{rng.randrange(N_VOLUMES):02d}.xml"
        t2 = rng.choice(self.bands[turn % nb])
        if cls == "phrase":
            t1 = self.pairs[(turn // nb) % len(self.pairs)]
        else:
            t1 = rng.choice(self.bands[(turn // nb) % nb])
            while t1 == t2:
                t1 = rng.choice(self.bands[(turn // nb) % nb])
        return make_query(cls, volume, t1, t2)


def unique_blocks(seed: int, sizes: Sizes) -> Iterator[List[Query]]:
    """Endless stream of 100-query blocks with the exact class mix, no
    query text ever repeated."""
    shapes = _QueryShapes(seed, sizes)
    seen = set()
    while True:
        block = []
        for cls, n in CLASS_MIX:
            made = 0
            while made < n:
                q = shapes.next(cls)
                if q.text not in seen:
                    seen.add(q.text)
                    block.append(q)
                    made += 1
        shapes.rng.shuffle(block)
        yield block


def repeat_queries(seed: int, sizes: Sizes) -> List[Query]:
    """The 32 distinct queries of ``served_repeat`` in Zipf-rank order.
    Classes are interleaved by weight so rank → class does not depend on
    the seed; within a class, earlier ranks query more frequent terms."""
    shapes = _QueryShapes(seed, sizes, frequent_first=True)
    total = sum(n for _, n in CLASS_MIX)
    quota = {cls: n * REPEAT_DISTINCT / total for cls, n in CLASS_MIX}
    given = {cls: 0 for cls, _ in CLASS_MIX}
    out, seen = [], set()
    for rank in range(1, REPEAT_DISTINCT + 1):
        # the class furthest behind its share so far
        cls = max(quota, key=lambda c: quota[c] * rank / REPEAT_DISTINCT
                  - given[c])
        given[cls] += 1
        q = shapes.next(cls)
        while q.text in seen:
            q = shapes.next(cls)
        seen.add(q.text)
        out.append(q)
    return out


def zipf_shares(n_ranks: int, n_ops: int) -> List[int]:
    """``n_ops`` operations split over ranks 1 … ``n_ranks`` in
    proportion to ``1 / rank ** ZIPF_S``, by largest remainder."""
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, n_ranks + 1)]
    exact = [n_ops * w / sum(weights) for w in weights]
    shares = [int(x) for x in exact]
    by_remainder = sorted(range(n_ranks), key=lambda r: shares[r] - exact[r])
    for r in by_remainder[:n_ops - sum(shares)]:
        shares[r] += 1
    return shares


def zipf_blocks(seed: int, queries: List[Query]) -> Iterator[List[Query]]:
    """Endless stream of 100-query blocks over ``queries`` (rank = list
    position), each holding every rank exactly its Zipf(1.1) share of
    the 100 in seeded random order.  Exact shares, not draws: every
    block is then the same work, and the blocks of a window can be
    compared as rounds."""
    rng = random.Random(seed + 1)
    shares = zipf_shares(len(queries), BLOCK_OPS)
    while True:
        block = [q for q, n in zip(queries, shares) for _ in range(n)]
        rng.shuffle(block)
        yield block


# ----------------------------------------------------------------------
# The paper's grids (``paper_sweep``)
# ----------------------------------------------------------------------

class PaperInputs(NamedTuple):
    store123: object
    rows1: list
    rows3: list
    store4: object
    rows4: list
    store5: object
    rows5: list
    pick_trees: List[Tuple[int, object]]


def paper_inputs(seed: int, sizes: Sizes) -> PaperInputs:
    """Corpora for Tables 1-5 and the Pick input trees.  The stores come
    back un-indexed: building the indexes is the workload's set-up."""
    spec123, rows123 = table123_spec(sizes.paper_scale, seed=seed * 10 + 1)
    spec4, rows4 = table4_spec(sizes.paper_scale, seed=seed * 10 + 2)
    spec5, rows5 = table5_spec(sizes.table5_scale, seed=seed * 10 + 3)
    trees = [(n, random_scored_tree(n, seed=seed * 100_000 + n))
             for n in sizes.pick_sizes]
    return PaperInputs(
        generate_corpus(spec123), rows123["table1"], rows123["table3"],
        generate_corpus(spec4), rows4,
        generate_corpus(spec5), rows5, trees,
    )


def paper_digest(inputs: PaperInputs) -> str:
    parts = []
    for store in (inputs.store123, inputs.store4, inputs.store5):
        parts.extend(d.serialize() for d in store.documents())
    parts.extend(f"{n}:{tree.root.score!r}:{tree.n_nodes()}"
                 for n, tree in inputs.pick_trees)
    return digest(parts)
