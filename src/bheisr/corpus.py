"""Corpus data model, dataset loaders, and the synthetic corpus generator.

A corpus is a bag of textual items, a user-item interaction log with integer
ordinal timestamps, and the category/subcategory taxonomy derived from the
items. Two tabular layouts are supported (click behavior TSV and a two-file
ratings CSV pair) plus a canonical JSON round-trip format.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

from .rng import stable_hash, substream

ORIGIN_DATASET = "dataset"
ORIGIN_GENERATED = "generated"

WEIGHT_TOL = 1e-9
MAX_WEIGHT = 1.0 + WEIGHT_TOL      # weights are non-negative and sum to one


class ParseError(ValueError):
    """Structurally malformed input file."""


@dataclass
class Item:
    id: str
    category: str
    subcategory: str
    title: str
    abstract: str
    category_weights: dict
    origin: str = ORIGIN_DATASET

    def text(self) -> str:
        return f"{self.title} {self.abstract}".strip()


@dataclass
class Interaction:
    user_id: str
    item_id: str
    timestamp: int
    signal: float


@dataclass
class Corpus:
    items: dict            # item id -> Item
    interactions: list     # Interaction, file order
    taxonomy: dict         # category -> tuple of subcategory labels
    users: tuple           # sorted user ids
    signal_scheme: str = "click"   # "click" (signal in {0,1}) or "rating" ([0,5])
    rejects: list = field(default_factory=list, compare=False)

    def interested(self, interaction: Interaction) -> bool:
        if self.signal_scheme == "rating":
            return interaction.signal > 2.5
        return interaction.signal >= 1.0

    def categories(self) -> tuple:
        return tuple(sorted(self.taxonomy))

    def validate(self) -> None:
        taxonomy, items = self.taxonomy, self.items
        # a belief network files each subcategory's mass under one category
        owner = {}
        for category, subs in taxonomy.items():
            for sub in subs:
                if owner.setdefault(sub, category) != category:
                    raise ValueError(f"subcategory {sub!r} is under both "
                                     f"{owner[sub]!r} and {category!r}")
        for item in items.values():
            category = item.category
            if category not in taxonomy:
                raise ValueError(f"item {item.id}: unknown category {category!r}")
            if item.subcategory not in taxonomy[category]:
                raise ValueError(f"item {item.id}: subcategory {item.subcategory!r} "
                                 f"not under {category!r}")
            weights = item.category_weights
            for cat, w in weights.items():
                if cat not in taxonomy:
                    raise ValueError(f"item {item.id}: weight on unknown category {cat!r}")
                # bool is an int: a JSON true would otherwise count as 1
                if isinstance(w, bool) or not isinstance(w, (int, float)):
                    raise ValueError(f"item {item.id}: weight {w!r} on {cat!r} is not "
                                     f"a number")
                if not 0.0 <= w <= MAX_WEIGHT:
                    raise ValueError(f"item {item.id}: weight {w} on {cat!r} is not "
                                     f"in [0, 1]")
                # a dataset item's mass goes to its own subcategory, which
                # only its own category can hold
                if cat != category and w > 0.0 and item.origin != ORIGIN_GENERATED:
                    raise ValueError(f"item {item.id}: weight on {cat!r}, not on its "
                                     f"own category {category!r}")
            total = sum(weights.values())
            if abs(total - 1.0) > WEIGHT_TOL:
                raise ValueError(f"item {item.id}: category weights sum to {total}")
        known_users = set(self.users)
        for inter in self.interactions:
            if inter.item_id not in items:
                raise ValueError(f"interaction references unknown item {inter.item_id!r}")
            if inter.user_id not in known_users:
                raise ValueError(f"interaction references unknown user {inter.user_id!r}")


def _timestamp_key(raw: str):
    # numeric timestamps order numerically, everything else as a string
    try:
        return (0, float(raw), "")
    except ValueError:
        return (1, 0.0, raw)


def _ordinalize(raw_stamps: list) -> list:
    """Map raw timestamp strings to ordinals by sort order.

    Stable: rows with equal raw stamps keep their file order.
    """
    order = sorted(range(len(raw_stamps)), key=lambda i: _timestamp_key(raw_stamps[i]))
    ordinals = [0] * len(raw_stamps)
    for rank, row in enumerate(order):
        ordinals[row] = rank
    return ordinals


def load_behaviors(path: str) -> Corpus:
    """Load a click-behavior TSV.

    Columns: user_id, timestamp, category, subcategory, title[, abstract], click.
    The abstract column may be absent or empty. Malformed rows raise ParseError
    with the line number; rows with an empty category/subcategory land in the
    rejects report instead.
    """
    items: dict = {}
    item_key_to_id: dict = {}
    rows = []
    rejects = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) == 7:
                user, raw_ts, cat, subcat, title, abstract, click = fields
            elif len(fields) == 6:
                user, raw_ts, cat, subcat, title, click = fields
                abstract = ""
            else:
                raise ParseError(f"{path}: line {lineno}: expected 6 or 7 tab-separated "
                                 f"fields, got {len(fields)}")
            if click not in ("0", "1"):
                raise ParseError(f"{path}: line {lineno}: click must be 0 or 1, got {click!r}")
            if not cat:
                rejects.append((lineno, "empty category"))
                continue
            if not subcat:
                rejects.append((lineno, "empty subcategory"))
                continue
            if not user:
                rejects.append((lineno, "empty user id"))
                continue
            rows.append((user, raw_ts, cat, subcat, title, abstract, float(click)))

    for user, raw_ts, cat, subcat, title, abstract, click in rows:
        key = (cat, subcat, title, abstract)
        if key not in item_key_to_id:
            item_id = f"n{len(item_key_to_id):06d}"
            item_key_to_id[key] = item_id
            items[item_id] = Item(id=item_id, category=cat, subcategory=subcat,
                                  title=title, abstract=abstract,
                                  category_weights={cat: 1.0})
    ordinals = _ordinalize([r[1] for r in rows])
    interactions = [
        Interaction(user_id=r[0], item_id=item_key_to_id[(r[2], r[3], r[4], r[5])],
                    timestamp=ordinals[i], signal=r[6])
        for i, r in enumerate(rows)
    ]
    taxonomy: dict = {}
    for item in items.values():
        taxonomy.setdefault(item.category, set()).add(item.subcategory)
    corpus = Corpus(
        items=items,
        interactions=interactions,
        taxonomy={c: tuple(sorted(s)) for c, s in sorted(taxonomy.items())},
        users=tuple(sorted({r[0] for r in rows})),
        signal_scheme="click",
        rejects=rejects,
    )
    corpus.validate()
    return corpus


def _csv_rows(path: str, required: tuple):
    """(line number, row) for each data row of a CSV file whose header names
    the required columns. A row too short to fill them, or one the csv
    module cannot read, is a ParseError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
                raise ParseError(f"{path}: header must contain {sorted(required)}")
            for lineno, row in enumerate(reader, start=2):
                if any(row[column] is None for column in required):
                    raise ParseError(f"{path}: line {lineno}: expected "
                                     f"{len(reader.fieldnames)} fields")
                yield lineno, row
        except csv.Error as exc:    # not a ValueError, e.g. an oversized field
            raise ParseError(f"{path}: line {reader.reader.line_num}: {exc}") from None


def load_ratings(path: str) -> Corpus:
    """Load a ratings-style corpus from a directory with movies.csv + ratings.csv.

    movies.csv: id, genres (pipe-separated), title, overview.
    ratings.csv: user_id, movie_id, rating, timestamp. Interested means
    rating > 2.5. Duplicate (user, movie) pairs keep the last row by timestamp.
    """
    movies_path = os.path.join(path, "movies.csv")
    ratings_path = os.path.join(path, "ratings.csv")
    for p in (movies_path, ratings_path):
        if not os.path.exists(p):
            raise FileNotFoundError(p)

    items: dict = {}
    taxonomy: dict = {}
    rejects = []
    for lineno, row in _csv_rows(movies_path, ("id", "genres", "title", "overview")):
        genres = [g for g in row["genres"].split("|") if g]
        if not genres:
            rejects.append((lineno, f"movie {row['id']!r}: no genres"))
            continue
        category = genres[0]
        if len(genres) == 1:
            sublabels = [f"{category}/general"]
        else:
            sublabels = [f"{category}/{g}" for g in genres[1:]]
        taxonomy.setdefault(category, set()).update(sublabels)
        item_id = row["id"]
        items[item_id] = Item(id=item_id, category=category,
                              subcategory=sublabels[0],
                              title=row["title"], abstract=row["overview"],
                              category_weights={category: 1.0})

    latest: dict = {}   # (user, movie) -> (ts_key, file order, rating, raw ts)
    for lineno, row in _csv_rows(ratings_path,
                                 ("user_id", "movie_id", "rating", "timestamp")):
        try:
            rating = float(row["rating"])
        except ValueError:
            raise ParseError(f"{ratings_path}: line {lineno}: bad rating "
                             f"{row['rating']!r}") from None
        if not (0.0 <= rating <= 5.0):
            rejects.append((lineno, f"rating {rating} outside [0, 5]"))
            continue
        if row["movie_id"] not in items:
            rejects.append((lineno, f"unknown movie {row['movie_id']!r}"))
            continue
        key = (row["user_id"], row["movie_id"])
        entry = (_timestamp_key(row["timestamp"]), lineno, rating, row["timestamp"])
        if key not in latest or entry[:2] >= latest[key][:2]:
            latest[key] = entry

    kept = sorted(latest.items(), key=lambda kv: kv[1][1])   # file order of the kept row
    ordinals = _ordinalize([kv[1][3] for kv in kept])
    interactions = [
        Interaction(user_id=key[0], item_id=key[1], timestamp=ordinals[i],
                    signal=entry[2])
        for i, (key, entry) in enumerate(kept)
    ]
    corpus = Corpus(
        items=items,
        interactions=interactions,
        taxonomy={c: tuple(sorted(s)) for c, s in sorted(taxonomy.items())},
        users=tuple(sorted({k[0] for k, _ in kept})),
        signal_scheme="rating",
        rejects=rejects,
    )
    corpus.validate()
    return corpus


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    n_users: int = 20
    n_categories: int = 17
    subcats_per_category: int = 4
    n_items: int = 4080
    bias_profile: int = 0   # number of biased users; the rest are balanced
    seed: int = 0


# click quotas per subcategory; see the margin analysis in the test suite.
# Balanced users spread evenly, thinner inside the disinterest pool; biased
# users put >=90% of clicks on their interest category, zero on their own
# pool category, and share the residual over the rest of the pool. Biased
# click totals are deliberately large so a handful of simulated accepts
# moves their probabilities (and the population thresholds) only slowly.
_BALANCED_BASE = 9
_BALANCED_POOL = 4
_BIASED_INTEREST = 180
_HISTORY_FRACTION = 0.6   # share of each subcat's item pool that histories touch

_SHARED_TOKENS = ("daily", "report", "update", "notes", "brief")


def _pool_size(n_users: int, n_biased: int, n_categories: int) -> int:
    if n_biased <= 0:
        return 0
    size = max(2, math.ceil(5 * n_biased / n_users) + 1)
    return min(size, n_categories - 1)


def synth_corpus(spec: SynthSpec) -> Corpus:
    """Deterministic synthetic corpus with optionally biased users.

    Biased users concentrate >=90% of their clicks in one extreme-interest
    category and have zero clicks in one extreme-disinterest category, with
    click quotas engineered so the population classifier separates them.
    Separation is guaranteed for bias_profile <= min(n_users/2,
    n_categories - pool size); beyond that the histories are still biased but
    the two-sigma thresholds may not isolate them.
    """
    if spec.n_users < 1 or spec.n_categories < 1 or spec.subcats_per_category < 1:
        raise ValueError("synth spec counts must be positive")
    if spec.n_items < spec.n_categories * spec.subcats_per_category:
        raise ValueError("need at least one item per subcategory")
    if spec.bias_profile < 0 or spec.bias_profile > spec.n_users:
        raise ValueError("bias_profile must be between 0 and n_users")
    if spec.bias_profile > 0 and spec.n_categories < 3:
        raise ValueError("bias profiles need at least 3 categories")

    rng = substream(spec.seed, "synth")
    cats = [f"cat{i:02d}" for i in range(spec.n_categories)]
    subcats = {c: tuple(f"{c}/s{j}" for j in range(spec.subcats_per_category))
               for c in cats}

    shuffled = list(cats)
    rng.shuffle(shuffled)
    pool_size = _pool_size(spec.n_users, spec.bias_profile, spec.n_categories)
    pool = sorted(shuffled[:pool_size])
    interest_cats = [c for c in shuffled if c not in pool]

    # items, round-robin over (category, subcategory) pairs
    pairs = [(c, s) for c in cats for s in subcats[c]]
    items: dict = {}
    pool_items: dict = {p: [] for p in pairs}
    for i in range(spec.n_items):
        cat, sub = pairs[i % len(pairs)]
        item_id = f"it{i:05d}"
        shared = _SHARED_TOKENS[i % len(_SHARED_TOKENS)]
        sub_token = sub.split("/")[1]
        title = f"{cat} {sub_token} {shared} topic{i % 11}"
        if i % 7 == 0:
            abstract = ""
        else:
            abstract = f"{cat} {sub_token} piece{i % 5} on topic{i % 11} {shared}"
        items[item_id] = Item(id=item_id, category=cat, subcategory=sub,
                              title=title, abstract=abstract,
                              category_weights={cat: 1.0})
        pool_items[(cat, sub)].append(item_id)

    users = [f"u{j:04d}" for j in range(spec.n_users)]
    biased = users[:spec.bias_profile]
    quotas: dict = {}
    for idx, user in enumerate(users):
        per_cat: dict = {}
        if user in biased:
            interest = interest_cats[idx % len(interest_cats)]
            own_pool = pool[idx % len(pool)]
            covered = [p for p in pool if p != own_pool]
            residual_total = round(0.108 * _BIASED_INTEREST * spec.subcats_per_category
                                   / max(1, len(covered)))
            for c in cats:
                if c == interest:
                    per_cat[c] = [_BIASED_INTEREST] * spec.subcats_per_category
                elif c in covered:
                    base, extra = divmod(residual_total, spec.subcats_per_category)
                    per_cat[c] = [base] * spec.subcats_per_category
                    for k in range(extra):
                        per_cat[c][-(k + 1)] += 1
                else:
                    per_cat[c] = [0] * spec.subcats_per_category
        else:
            for c in cats:
                count = _BALANCED_POOL if c in pool else _BALANCED_BASE
                per_cat[c] = [count] * spec.subcats_per_category
        quotas[user] = per_cat

    interactions = []
    ts = 0
    for user in users:
        for cat in cats:
            for s_idx, sub in enumerate(subcats[cat]):
                count = quotas[user][cat][s_idx]
                if count == 0:
                    continue
                pool_ids = pool_items[(cat, sub)]
                head = max(1, math.ceil(_HISTORY_FRACTION * len(pool_ids)))
                offset = stable_hash(f"{user}|{sub}") % head
                for t in range(count):
                    item_id = pool_ids[(offset + t) % head]
                    interactions.append(Interaction(user_id=user, item_id=item_id,
                                                    timestamp=ts, signal=1.0))
                    ts += 1

    corpus = Corpus(
        items=items,
        interactions=interactions,
        taxonomy={c: subcats[c] for c in cats},
        users=tuple(users),
        signal_scheme="click",
    )
    corpus.validate()
    return corpus


# ---------------------------------------------------------------------------
# canonical JSON round trip
# ---------------------------------------------------------------------------

def corpus_to_json(corpus: Corpus) -> str:
    doc = {
        "signal_scheme": corpus.signal_scheme,
        "items": [
            {"id": it.id, "category": it.category, "subcategory": it.subcategory,
             "title": it.title, "abstract": it.abstract,
             "category_weights": it.category_weights, "origin": it.origin}
            for it in corpus.items.values()
        ],
        "interactions": [
            {"user_id": x.user_id, "item_id": x.item_id,
             "timestamp": x.timestamp, "signal": x.signal}
            for x in corpus.interactions
        ],
        "taxonomy": [
            {"category": c, "subcategories": list(subs)}
            for c, subs in corpus.taxonomy.items()
        ],
        "users": list(corpus.users),
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def corpus_from_json(text: str) -> Corpus:
    doc = json.loads(text)
    items = {
        d["id"]: Item(id=d["id"], category=d["category"], subcategory=d["subcategory"],
                      title=d["title"], abstract=d["abstract"],
                      category_weights=dict(d["category_weights"]),
                      origin=d.get("origin", ORIGIN_DATASET))
        for d in doc["items"]
    }
    interactions = [
        Interaction(user_id=d["user_id"], item_id=d["item_id"],
                    timestamp=int(d["timestamp"]), signal=float(d["signal"]))
        for d in doc["interactions"]
    ]
    corpus = Corpus(
        items=items,
        interactions=interactions,
        taxonomy={d["category"]: tuple(d["subcategories"]) for d in doc["taxonomy"]},
        users=tuple(doc["users"]),
        signal_scheme=doc.get("signal_scheme", "click"),
    )
    corpus.validate()
    return corpus


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_to_json(corpus))


def load_corpus(path: str) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        return corpus_from_json(fh.read())
