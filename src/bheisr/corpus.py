"""Corpus data model, dataset loaders, and the synthetic corpus generator.

A corpus is a bag of textual items, a user-item interaction log with integer
ordinal timestamps, and the category/subcategory taxonomy derived from the
items. The log is kept as four columns, not as one object per row. Two
tabular layouts are supported (click behavior TSV and a two-file ratings CSV
pair) plus a canonical JSON round-trip format.
"""

import csv
import errno
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .folds import fold_sum
from .rng import stable_hash, substream

ORIGIN_DATASET = "dataset"
ORIGIN_GENERATED = "generated"
GENERATED_SUFFIX = "/generated"
GENERATED_ID_PREFIX = "gi:"        # reserved: a generated item's id starts so
PROMPT_KEY_SEPARATOR = "->"        # joins a prompt path's categories into its key
SIGNAL_SCHEMES = ("click", "rating")

WEIGHT_TOL = 1e-9
MAX_WEIGHT = 1.0 + WEIGHT_TOL      # weights are non-negative and sum to one
ROW_CHUNK = 4096                   # log rows decoded at a time by a walk


def generated_subcategory(category: str) -> str:
    """The subcategory an accepted generated item credits in `category`.

    The label is reserved: no corpus may name a subcategory this way.
    """
    return category + GENERATED_SUFFIX


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
    """One log row, decoded from a corpus's columns."""
    user_id: str
    item_id: str
    timestamp: int
    signal: float


def reject_duplicates(ids, kind: str) -> None:
    """A ValueError naming the first `kind` id that is listed twice."""
    seen = set()
    for value in ids:
        if value in seen:
            raise ValueError(f"duplicate {kind} {value!r}")
        seen.add(value)


def _log_columns(items: dict, users, user_ids, item_ids, timestamps,
                 signals) -> dict:
    """The four log columns of rows given by user id and item id.

    An id with no position in `users` or `items` is a ValueError that names
    the first such row's id.
    """
    item_pos = {item_id: p for p, item_id in enumerate(items)}
    user_pos = {user: p for p, user in enumerate(users)}
    for user, item_id in zip(user_ids, item_ids):
        if item_id not in item_pos:
            raise ValueError(f"interaction references unknown item {item_id!r}")
        if user not in user_pos:
            raise ValueError(f"interaction references unknown user {user!r}")
    try:
        log_ts = np.array(timestamps, dtype=np.int64)
    except OverflowError:
        raise ValueError("interaction timestamp outside the 64-bit range") from None
    return dict(log_user=np.array([user_pos[u] for u in user_ids], dtype=np.int32),
                log_item=np.array([item_pos[i] for i in item_ids], dtype=np.int32),
                log_ts=log_ts, log_signal=np.array(signals, dtype=np.float64))


@dataclass(eq=False)
class Corpus:
    """Items, taxonomy, users and the interaction log.

    The log is four equal-length columns; row r is the r-th row in file
    order. `log_user` holds the user's position in `users`, `log_item` the
    item's position in `items` (dict order), then the ordinal timestamp and
    the signal: 24 bytes a row. The columns are read-only, so `history`,
    which derives from them and the signal scheme, is computed once.
    """
    items: dict            # item id -> Item
    taxonomy: dict         # category -> tuple of subcategory labels
    users: tuple           # user ids, in any order
    log_user: np.ndarray   # int32
    log_item: np.ndarray   # int32
    log_ts: np.ndarray     # int64
    log_signal: np.ndarray  # float64
    signal_scheme: str = "click"   # "click" (signal in {0,1}) or "rating" ([0,5])
    rejects: list = field(default_factory=list)

    def __post_init__(self):
        for column in (self.log_user, self.log_item, self.log_ts, self.log_signal):
            column.flags.writeable = False

    @property
    def interactions(self):
        """The log's rows as Interaction objects, in log order, decoded
        ROW_CHUNK rows at a time, so a walk holds no whole-column list. The
        loop reads the columns; only the benchmark's record check walks."""
        users, ids = self.users, list(self.items)
        columns = (self.log_user, self.log_item, self.log_ts, self.log_signal)
        for start in range(0, len(self.log_user), ROW_CHUNK):
            for u, i, t, s in zip(*[c[start:start + ROW_CHUNK].tolist()
                                    for c in columns]):
                yield Interaction(users[u], ids[i], t, s)

    def _is_interested(self, signal):
        # one test for a single signal and for the whole signal column
        if self.signal_scheme == "rating":
            return signal > 2.5
        return signal >= 1.0

    def interested(self, interaction: Interaction) -> bool:
        return bool(self._is_interested(interaction.signal))

    @cached_property
    def history(self) -> tuple:
        """(user position, item position) of every interested row, ordered by
        user position and then timestamp; equal stamps keep file order."""
        keep = self._is_interested(self.log_signal)
        user, item = self.log_user[keep], self.log_item[keep]
        order = np.lexsort((self.log_ts[keep], user))    # a stable sort
        user, item = user[order], item[order]
        user.flags.writeable = item.flags.writeable = False
        return user, item

    def categories(self) -> tuple:
        return tuple(sorted(self.taxonomy))

    def validate(self) -> None:
        taxonomy, items = self.taxonomy, self.items
        # _is_interested reads any scheme but "rating" as clicks
        if self.signal_scheme not in SIGNAL_SCHEMES:
            raise ValueError(f"unknown signal scheme {self.signal_scheme!r}; "
                             f"pick from {list(SIGNAL_SCHEMES)}")
        # a belief network files each subcategory's mass under one category,
        # and a generated item's under the reserved label
        owner = {}
        for category, subs in taxonomy.items():
            # distinct prompt paths must have distinct keys
            if PROMPT_KEY_SEPARATOR in category:
                raise ValueError(f"category {category!r}: {PROMPT_KEY_SEPARATOR!r} "
                                 f"separates the categories of a prompt key")
            for sub in subs:
                if sub.endswith(GENERATED_SUFFIX):
                    raise ValueError(f"subcategory {sub!r}: labels ending in "
                                     f"{GENERATED_SUFFIX!r} are reserved for "
                                     f"generated items")
                if owner.setdefault(sub, category) != category:
                    raise ValueError(f"subcategory {sub!r} is under both "
                                     f"{owner[sub]!r} and {category!r}")
        for item in items.values():
            # an item in the candidate index takes its vector by id
            if str(item.id).startswith(GENERATED_ID_PREFIX):
                raise ValueError(f"item {item.id}: ids starting with "
                                 f"{GENERATED_ID_PREFIX!r} are reserved for "
                                 f"generated items")
            # the loop reads a generated item's prompt, which no corpus has
            if item.origin != ORIGIN_DATASET:
                raise ValueError(f"item {item.id}: origin {item.origin!r} is not "
                                 f"{ORIGIN_DATASET!r}")
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
                # not numbers.Real: corpus_to_json cannot write a numpy scalar
                if isinstance(w, bool) or not isinstance(w, (int, float)):
                    raise ValueError(f"item {item.id}: weight {w!r} on {cat!r} is not "
                                     f"a number")
                if not 0.0 <= w <= MAX_WEIGHT:
                    raise ValueError(f"item {item.id}: weight {w} on {cat!r} is not "
                                     f"in [0, 1]")
                # a dataset item's mass goes to its own subcategory, which
                # only its own category can hold
                if cat != category and w > 0.0:
                    raise ValueError(f"item {item.id}: weight on {cat!r}, not on its "
                                     f"own category {category!r}")
            total = fold_sum(weights.values())
            if abs(total - 1.0) > WEIGHT_TOL:
                raise ValueError(f"item {item.id}: category weights sum to {total}")
        # run_loop feeds each listed user once per step from their network
        reject_duplicates(self.users, "user")
        for user in self.users:
            # simulate writes each user's beliefs to networks/<user>.json
            name = str(user)
            if name in ("", ".", "..") or "/" in name or "\0" in name:
                raise ValueError(f"user id {user!r} cannot name a file: it is "
                                 f"empty, '.' or '..', or holds '/' or NUL")
        columns = (self.log_user, self.log_item, self.log_ts, self.log_signal)
        if any(np.ndim(c) != 1 or len(c) != len(self.log_user) for c in columns):
            raise ValueError("interaction columns must be 1-D and equally long")
        for name, column, bound in (("item", self.log_item, len(items)),
                                    ("user", self.log_user, len(self.users))):
            bad = np.flatnonzero((column < 0) | (column >= bound))
            if len(bad):
                raise ValueError(f"interaction references unknown {name} "
                                 f"position {int(column[bad[0]])}")
        # the loaders take no other signal, and JSON cannot write a NaN
        signal = self.log_signal
        if self.signal_scheme == "rating":
            outside = ~((signal >= 0.0) & (signal <= 5.0))     # NaN too
            domain = "a rating in [0, 5]"
        else:
            outside, domain = (signal != 0.0) & (signal != 1.0), "a click of 0 or 1"
        bad = np.flatnonzero(outside)
        if len(bad):
            raise ValueError(f"interaction row {int(bad[0])}: signal "
                             f"{float(signal[bad[0]])!r} is not {domain}")


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


def _tabular_corpus(items: dict, taxonomy: dict, rows: list, scheme: str,
                    rejects: list) -> Corpus:
    """The validated corpus of a tabular dataset, whose `taxonomy` maps each
    category to a set of subcategories and whose `rows` are (user id, item
    id, raw timestamp, signal) in file order."""
    users = tuple(sorted({row[0] for row in rows}))
    user_ids, item_ids, stamps, signals = list(zip(*rows)) or [()] * 4
    corpus = Corpus(items=items, users=users, signal_scheme=scheme, rejects=rejects,
                    taxonomy={c: tuple(sorted(s)) for c, s in sorted(taxonomy.items())},
                    **_log_columns(items, users, user_ids, item_ids,
                                   _ordinalize(stamps), signals))
    corpus.validate()
    return corpus


def _utf8_lines(path: str, fh):
    """The lines of `fh`; a byte that is not UTF-8 is a ParseError naming `path`."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def load_behaviors(path: str) -> Corpus:
    """Load a click-behavior TSV.

    Columns: user_id, timestamp, category, subcategory, title[, abstract], click.
    The abstract column may be absent or empty. Malformed rows raise ParseError
    with the line number; rows with an empty category/subcategory land in the
    rejects report instead.
    """
    items: dict = {}
    item_key_to_id: dict = {}
    taxonomy: dict = {}
    rows, rejects = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_utf8_lines(path, fh), start=1):
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
            key = (cat, subcat, title, abstract)
            item_id = item_key_to_id.get(key)
            if item_id is None:
                item_id = item_key_to_id[key] = f"n{len(item_key_to_id):06d}"
                items[item_id] = Item(id=item_id, category=cat, subcategory=subcat,
                                      title=title, abstract=abstract,
                                      category_weights={cat: 1.0})
                taxonomy.setdefault(cat, set()).add(subcat)
            rows.append((user, item_id, raw_ts, float(click)))
    return _tabular_corpus(items, taxonomy, rows, "click", rejects)


def _csv_rows(path: str, required: tuple):
    """(line number, row) for each data row of a CSV file whose header names
    the required columns. A row too short to fill them, or one the csv
    module cannot read, is a ParseError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(_utf8_lines(path, fh))
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

    movies.csv: id, genres (pipe-separated), title, overview; a repeated id
    is a ParseError naming its line.
    ratings.csv: user_id, movie_id, rating, timestamp. Interested means
    rating > 2.5. Duplicate (user, movie) pairs keep the last row by timestamp.
    """
    movies_path = os.path.join(path, "movies.csv")
    ratings_path = os.path.join(path, "ratings.csv")
    for p in (movies_path, ratings_path):
        if not os.path.exists(p):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), p)

    items: dict = {}
    taxonomy: dict = {}
    rejects = []
    first_line: dict = {}   # movie id -> line of its row
    for lineno, row in _csv_rows(movies_path, ("id", "genres", "title", "overview")):
        item_id = row["id"]
        if item_id in first_line:
            raise ParseError(f"{movies_path}: line {lineno}: duplicate movie "
                             f"{item_id!r} (first on line {first_line[item_id]})")
        first_line[item_id] = lineno
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
    return _tabular_corpus(items, taxonomy, [
        (user, movie, entry[3], entry[2]) for (user, movie), entry in kept],
        "rating", rejects)


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


def _strings(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(s, str) for s in value)


# an annotation -> (the test its values pass, what they must be). A bool is
# an int, so only bool takes one; JSON's int and float skip the slow ABC test
KINDS = {
    int: (lambda v: not isinstance(v, bool)
          and isinstance(v, (int, numbers.Integral)), "an integer"),
    float: (lambda v: not isinstance(v, bool)
            and isinstance(v, (float, int, numbers.Real)), "a number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (_strings, "a list of strings"),
    tuple: (_strings, "a list of user ids"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    SynthSpec: (lambda v: isinstance(v, SynthSpec), "a SynthSpec"),
}


def check_fields(obj, prefix: str = "") -> None:
    """A ValueError naming the first field of dataclass `obj` whose value is
    not of its annotation's kind; None passes only where it is the default."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None and f.default is None:
            continue
        test, noun = KINDS[f.type]
        if not test(value):
            raise ValueError(f"{prefix}{f.name} must be {noun}, got {value!r}")


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
    """Deterministic synthetic corpus with optionally biased users, valid
    by construction: it is not run through Corpus.validate.

    Biased users concentrate >=90% of their clicks in one extreme-interest
    category and have zero clicks in one extreme-disinterest category, with
    click quotas engineered so the population classifier separates them.
    Separation is meant to hold for bias_profile <= min(n_users/2,
    n_categories - pool size), but the bound is neither sharp nor safe. With
    the default 17 categories, classification flags every biased user at
    these n_users/bias_profile shapes: 30/10, 100/10, 400/20, 400/40,
    1000/50, 1000/100 and 2000/200, the last outside the bound. It flags
    none at 100/20, 400/80 and 1000/200: there the biased users are no
    longer two-sigma outliers, and nothing reports it. The histories are
    biased at every shape.
    """
    # seed=1.5 would build seed 1's corpus
    check_fields(spec, "synth ")
    if spec.n_users < 1 or spec.n_categories < 1 or spec.subcats_per_category < 1:
        raise ValueError("synth spec counts must be positive")
    if spec.n_items < spec.n_categories * spec.subcats_per_category:
        raise ValueError("need at least one item per subcategory")
    if spec.bias_profile < 0 or spec.bias_profile > spec.n_users:
        raise ValueError("bias_profile must be between 0 and n_users")
    if spec.bias_profile > 0 and spec.n_categories < 3:
        raise ValueError("bias profiles need at least 3 categories")
    if spec.seed < 0:
        raise ValueError("synth seed must be non-negative")

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

    # a biased user's residual, shared over the pool minus its own category;
    # the last `extra` subcategories of each take one click more
    spc = spec.subcats_per_category
    residual, extra = divmod(round(0.108 * _BIASED_INTEREST * spc
                                   / max(1, len(pool) - 1)), spc)

    def clicks(idx: int, cat: str, j: int) -> int:
        """User idx's clicks on subcategory j of category cat."""
        if idx >= spec.bias_profile:
            return _BALANCED_POOL if cat in pool else _BALANCED_BASE
        if cat == interest_cats[idx % len(interest_cats)]:
            return _BIASED_INTEREST
        if cat in pool and cat != pool[idx % len(pool)]:
            return residual + (j >= spc - extra)
        return 0

    # one group of rows per (user, subcategory) with clicks, in user, then
    # subcategory order; row t of a group clicks the pool item at
    # (offset + t) % head, and every row has its own timestamp
    users = [f"u{j:04d}" for j in range(spec.n_users)]
    group_user, group_pair, group_offset, group_head, group_count = [], [], [], [], []
    for u_pos, user in enumerate(users):
        for pair, (cat, sub) in enumerate(pairs):
            count = clicks(u_pos, cat, pair % spc)
            if count == 0:
                continue
            pair_items = -(-(spec.n_items - pair) // len(pairs))   # ceil
            head = max(1, math.ceil(_HISTORY_FRACTION * pair_items))
            group_user.append(u_pos)
            group_pair.append(pair)
            group_offset.append(stable_hash(f"{user}|{sub}") % head)
            group_head.append(head)
            group_count.append(count)
    counts = np.array(group_count, dtype=np.int64)
    n_rows = int(counts.sum())
    step = np.arange(n_rows) - np.repeat(np.cumsum(counts) - counts, counts)
    slot = (np.repeat(group_offset, counts) + step) % np.repeat(group_head, counts)
    return Corpus(
        items=items,
        taxonomy={c: subcats[c] for c in cats},
        users=tuple(users),
        log_user=np.repeat(np.array(group_user, dtype=np.int32), counts),
        # slot j of pair q's pool is the item at position q + j * len(pairs)
        log_item=(np.repeat(group_pair, counts) + slot * len(pairs)).astype(np.int32),
        log_ts=np.arange(n_rows, dtype=np.int64),
        log_signal=np.ones(n_rows),
        signal_scheme="click",
    )


# ---------------------------------------------------------------------------
# canonical JSON round trip
# ---------------------------------------------------------------------------

def corpus_to_json(corpus: Corpus) -> str:
    users, ids = corpus.users, list(corpus.items)
    doc = {
        "signal_scheme": corpus.signal_scheme,
        "items": [
            {"id": it.id, "category": it.category, "subcategory": it.subcategory,
             "title": it.title, "abstract": it.abstract,
             "category_weights": it.category_weights, "origin": it.origin}
            for it in corpus.items.values()
        ],
        "interactions": [
            {"user_id": users[u], "item_id": ids[i], "timestamp": t, "signal": s}
            for u, i, t, s in zip(corpus.log_user.tolist(), corpus.log_item.tolist(),
                                  corpus.log_ts.tolist(), corpus.log_signal.tolist())
        ],
        "taxonomy": [
            {"category": c, "subcategories": list(subs)}
            for c, subs in corpus.taxonomy.items()
        ],
        "users": list(corpus.users),
    }
    return json.dumps(doc, indent=2, sort_keys=False)


JSON_KEYS = {   # list in the document -> {key each of its records needs: kind}
    "items": {"id": str, "category": str, "subcategory": str, "title": str,
              "abstract": str, "category_weights": dict},
    "taxonomy": {"category": str, "subcategories": list},
    "interactions": {"user_id": str, "item_id": str, "timestamp": int,
                     "signal": float},
}
OPTIONAL_KEYS = {"items": {"origin": str}}   # kinds checked where present


def _check_records(doc) -> None:
    """A ParseError naming the first record, in document order, that is not
    an object, lacks one of its list's JSON_KEYS or holds a value of another
    kind (or the document itself, or one of its lists, or a user id)."""
    if not isinstance(doc, dict):
        raise ParseError(f"corpus: the document is a {type(doc).__name__}, "
                         f"not an object")
    for name in (*JSON_KEYS, "users"):
        if name not in doc:
            raise ParseError(f"corpus: missing key {name!r}")
        if not isinstance(doc[name], list):
            raise ParseError(f"corpus: {name!r} is not a list")
    for name, needed in JSON_KEYS.items():
        kinds = {key: KINDS[kind] for key, kind in
                 {**needed, **OPTIONAL_KEYS.get(name, {})}.items()}
        for n, record in enumerate(doc[name]):
            if not isinstance(record, dict):
                raise ParseError(f"{name}[{n}]: not an object")
            for key in needed:
                if key not in record:
                    raise ParseError(f"{name}[{n}]: missing key {key!r}")
            for key, (test, noun) in kinds.items():
                if key in record and not test(record[key]):
                    raise ParseError(f"{name}[{n}]: {key!r} holds a value of the "
                                     f"wrong type: {record[key]!r} is not {noun}")
    for n, user in enumerate(doc["users"]):
        if not isinstance(user, str):
            raise ParseError(f"users[{n}]: a value of the wrong type: {user!r} "
                             f"is not a string")


def corpus_from_json(text: str) -> Corpus:
    doc = json.loads(text)
    _check_records(doc)
    # a later record would silently replace an earlier one of the same id
    reject_duplicates([d["id"] for d in doc["items"]], "item")
    reject_duplicates([d["category"] for d in doc["taxonomy"]], "category")
    items = {
        d["id"]: Item(id=d["id"], category=d["category"],
                      subcategory=d["subcategory"], title=d["title"],
                      abstract=d["abstract"],
                      category_weights=dict(d["category_weights"]),
                      origin=d.get("origin", ORIGIN_DATASET))
        for d in doc["items"]
    }
    rows = doc["interactions"]
    users = tuple(doc["users"])
    taxonomy = {d["category"]: tuple(d["subcategories"]) for d in doc["taxonomy"]}
    columns = ([d["user_id"] for d in rows], [d["item_id"] for d in rows],
               [d["timestamp"] for d in rows], [d["signal"] for d in rows])
    corpus = Corpus(items=items, taxonomy=taxonomy, users=users,
                    signal_scheme=doc.get("signal_scheme", "click"),
                    **_log_columns(items, users, *columns))
    corpus.validate()
    return corpus


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corpus_to_json(corpus))


def load_corpus(path: str) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return corpus_from_json("".join(_utf8_lines(path, fh)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not a JSON document: {exc}") from None
