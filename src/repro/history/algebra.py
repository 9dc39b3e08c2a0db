"""Composable query algebra over the pattern journal (DESIGN.md §13).

The journal's ad-hoc access paths (`super_patterns`, `sub_patterns`,
`support_history`, `top_k`) are special cases of one declarative surface:
a small AST of predicates over journalled pattern rows, combined with
boolean operators and closed by three terminal shapes.

Predicates (each accepts/rejects one ``(slide, items, support)`` row):

* :func:`contains` — the row's itemset contains every given item
  (the super-pattern question);
* :func:`contained_in` — the row's itemset is contained in the given
  items (the sub-pattern question);
* :func:`support_gte` / :func:`support_between` — support thresholds;
* :func:`slides` — the row's slide id lies in an (inclusive) range;
* :func:`first_frequent_in` — the row's pattern first became frequent
  inside a slide range (provenance);
* :func:`became_frequent_within` — the row's pattern first became
  frequent within ``k`` slides of another pattern ``of`` (provenance
  join);
* :func:`and_` / :func:`or_` / :func:`not_` — boolean combinators.

Shapes: :func:`select` (all matching rows, ``(slide, size, items)``
order), :func:`top_k` (highest-support rows first), :func:`history` (the
per-slide support curve of one exact itemset, zeroes explicit).

Execution — :func:`evaluate` — compiles a shape against any
:class:`IndexReader` (the posting-list read protocol satisfied by
:class:`~repro.history.query.JournalIndex` and by the immutable
:class:`~repro.serve.shards.IndexSnapshot` of the async serving path):

* conjunctions are lowered to posting-list operations: ``slides`` bounds
  are pushed into the scan range (a bisection of the ordered slide ids),
  one indexable conjunct (``contains`` / ``contained_in``) becomes the
  *driver* that enumerates candidate rows from posting lists, every
  other conjunct becomes a per-row filter;
* the cost-based planner (``optimize=True``) picks the driver — and the
  posting list enumerated inside a ``contains`` driver — by smallest
  posting length, the classic smallest-first intersection ordering; the
  posting lengths are already known, so the estimate is free.  It may
  also drive from a provenance conjunct (``first_frequent_in`` /
  ``became_frequent_within``): the few patterns first seen in the range
  are probed in each slide, when that costs fewer probes than scanning
  the range.  ``optimize=False`` is the naive left-to-right ablation: the
  first ``contains`` / ``contained_in`` as written drives the scan;
* a ``top_k`` whose ``where`` is absent or only ``slides`` never sorts:
  each slide's rows are stored in rank order, so the answer is the first
  ``k`` rows of a lazy merge of the per-slide orders;
* every evaluation carries an ``explain`` payload with the chosen plan,
  estimated vs actual postings touched and result rows, and the
  symmetric **Q-Error** ``max(est, act) / min(est, act)`` of the result
  cardinality — the estimated-vs-actual discipline of the SQL-optimizer
  literature.

:func:`brute_force_query` interprets the same AST by scanning raw
:class:`~repro.history.journal.SlideRecord` rows — the correctness
oracle for the randomized equivalence suite and bench E13.

Expressions round-trip through JSON (:func:`to_json` /
:func:`parse_query`); parse errors raise
:class:`~repro.exceptions.AlgebraError` carrying the offending node
path, which the HTTP and CLI front ends surface as structured errors.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import AlgebraError
from repro.history.journal import SlideRecord
from repro.history.provenance import FirstSeen

#: One query hit: (slide id, sorted item tuple, support).
Match = Tuple[int, Tuple[str, ...], int]

#: One point of a support curve: (slide id, support — 0 when absent).
CurvePoint = Tuple[int, int]


def _normalise(items: Iterable[str], what: str, path: str = "$") -> Tuple[str, ...]:
    ordered = tuple(sorted({str(item) for item in items}))
    if not ordered:
        raise AlgebraError(f"{what} needs at least one item", path=path)
    return ordered


# ---------------------------------------------------------------------- #
# the AST
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Contains:
    """Rows whose itemset contains every one of ``items``."""

    items: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", _normalise(self.items, "contains"))


@dataclass(frozen=True)
class ContainedIn:
    """Rows whose itemset is a subset of ``items``."""

    items: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", _normalise(self.items, "contained_in"))


@dataclass(frozen=True)
class SupportAtLeast:
    """Rows with support >= ``tau``."""

    tau: int

    def __post_init__(self) -> None:
        if not isinstance(self.tau, int) or self.tau < 0:
            raise AlgebraError(f"support_gte needs an integer >= 0, got {self.tau!r}")


@dataclass(frozen=True)
class SupportBetween:
    """Rows with ``lo`` <= support <= ``hi`` (inclusive)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        for bound in (self.lo, self.hi):
            if not isinstance(bound, int) or bound < 0:
                raise AlgebraError(
                    f"support_between bounds must be integers >= 0, got {bound!r}"
                )
        if self.lo > self.hi:
            raise AlgebraError(
                f"support_between needs lo <= hi, got [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True)
class Slides:
    """Rows whose slide id lies in ``[lo, hi]`` (either end open when None)."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        for bound in (self.lo, self.hi):
            if bound is not None and not isinstance(bound, int):
                raise AlgebraError(f"slides bounds must be integers or null, got {bound!r}")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise AlgebraError(f"slides needs lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class FirstFrequentIn:
    """Rows whose pattern *first* became frequent inside ``[lo, hi]``."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        for bound in (self.lo, self.hi):
            if bound is not None and not isinstance(bound, int):
                raise AlgebraError(
                    f"first_frequent_in bounds must be integers or null, got {bound!r}"
                )
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise AlgebraError(
                f"first_frequent_in needs lo <= hi, got [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True)
class BecameFrequentWithin:
    """Rows whose pattern first became frequent within ``k`` slides of ``of``.

    The provenance join: ``|first_frequent(row) - first_frequent(of)| <= k``.
    Rows never match when ``of`` itself never became frequent.
    """

    k: int
    of: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 0:
            raise AlgebraError(
                f"became_frequent_within needs an integer k >= 0, got {self.k!r}"
            )
        object.__setattr__(self, "of", _normalise(self.of, "became_frequent_within.of"))


@dataclass(frozen=True)
class And:
    """Rows matching every child predicate."""

    children: Tuple["Predicate", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise AlgebraError("'and' needs at least one child predicate")


@dataclass(frozen=True)
class Or:
    """Rows matching any child predicate."""

    children: Tuple["Predicate", ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise AlgebraError("'or' needs at least one child predicate")


@dataclass(frozen=True)
class Not:
    """Rows rejected by the child predicate."""

    child: "Predicate"


Predicate = Union[
    Contains,
    ContainedIn,
    SupportAtLeast,
    SupportBetween,
    Slides,
    FirstFrequentIn,
    BecameFrequentWithin,
    And,
    Or,
    Not,
]


@dataclass(frozen=True)
class Select:
    """Every row matching ``where``, in ``(slide, size, items)`` order."""

    where: Predicate


@dataclass(frozen=True)
class TopK:
    """The ``k`` highest-support rows matching ``where`` (all rows when None)."""

    k: int
    where: Optional[Predicate] = None

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise AlgebraError(f"top_k needs an integer k >= 1, got {self.k!r}")


@dataclass(frozen=True)
class History:
    """The per-slide support curve of one exact itemset (zeroes explicit)."""

    items: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", _normalise(self.items, "history"))


Query = Union[Select, TopK, History]

#: Shapes accepted by :func:`evaluate` (for isinstance checks).
QUERY_SHAPES = (Select, TopK, History)


# ---------------------------------------------------------------------- #
# constructor helpers — the expression-building surface
# ---------------------------------------------------------------------- #
def contains(*items: str) -> Contains:
    """Predicate: the row's pattern contains every one of ``items``."""
    return Contains(tuple(items))


def contained_in(*items: str) -> ContainedIn:
    """Predicate: the row's pattern is contained in ``items``."""
    return ContainedIn(tuple(items))


def support_gte(tau: int) -> SupportAtLeast:
    """Predicate: support >= ``tau``."""
    return SupportAtLeast(tau)


def support_between(lo: int, hi: int) -> SupportBetween:
    """Predicate: ``lo`` <= support <= ``hi``."""
    return SupportBetween(lo, hi)


def slides(lo: Optional[int] = None, hi: Optional[int] = None) -> Slides:
    """Predicate: slide id in ``[lo, hi]`` (inclusive; None = open end)."""
    return Slides(lo, hi)


def first_frequent_in(lo: Optional[int] = None, hi: Optional[int] = None) -> FirstFrequentIn:
    """Predicate: the pattern first became frequent inside ``[lo, hi]``."""
    return FirstFrequentIn(lo, hi)


def became_frequent_within(k: int, of: Iterable[str]) -> BecameFrequentWithin:
    """Predicate: first became frequent within ``k`` slides of pattern ``of``."""
    return BecameFrequentWithin(k, tuple(of))


def and_(*children: Predicate) -> Predicate:
    """Conjunction (a single child passes through unchanged)."""
    if len(children) == 1:
        return children[0]
    return And(tuple(children))


def or_(*children: Predicate) -> Predicate:
    """Disjunction (a single child passes through unchanged)."""
    if len(children) == 1:
        return children[0]
    return Or(tuple(children))


def not_(child: Predicate) -> Not:
    """Negation."""
    return Not(child)


def select(where: Predicate) -> Select:
    """Shape: all rows matching ``where``."""
    return Select(where)


def top_k(k: int, where: Optional[Predicate] = None) -> TopK:
    """Shape: the ``k`` highest-support rows matching ``where``."""
    return TopK(k, where)


def history(*items: str) -> History:
    """Shape: the support-over-time curve of one exact itemset."""
    return History(tuple(items))


# ---------------------------------------------------------------------- #
# JSON serialisation
# ---------------------------------------------------------------------- #
def to_json(node: Union[Predicate, Query]) -> Dict[str, object]:
    """The JSON-able form of an expression (inverse of :func:`parse_query`)."""
    if isinstance(node, Contains):
        return {"contains": list(node.items)}
    if isinstance(node, ContainedIn):
        return {"contained_in": list(node.items)}
    if isinstance(node, SupportAtLeast):
        return {"support_gte": node.tau}
    if isinstance(node, SupportBetween):
        return {"support_between": [node.lo, node.hi]}
    if isinstance(node, Slides):
        return {"slides": [node.lo, node.hi]}
    if isinstance(node, FirstFrequentIn):
        return {"first_frequent_in": [node.lo, node.hi]}
    if isinstance(node, BecameFrequentWithin):
        return {"became_frequent_within": {"k": node.k, "of": list(node.of)}}
    if isinstance(node, And):
        return {"and": [to_json(child) for child in node.children]}
    if isinstance(node, Or):
        return {"or": [to_json(child) for child in node.children]}
    if isinstance(node, Not):
        return {"not": to_json(node.child)}
    if isinstance(node, Select):
        return {"select": {"where": to_json(node.where)}}
    if isinstance(node, TopK):
        body: Dict[str, object] = {"k": node.k}
        if node.where is not None:
            body["where"] = to_json(node.where)
        return {"top_k": body}
    if isinstance(node, History):
        return {"history": {"items": list(node.items)}}
    raise AlgebraError(f"cannot serialise {type(node).__name__!r}")


def _single_key(payload: object, path: str) -> Tuple[str, object]:
    if not isinstance(payload, Mapping):
        raise AlgebraError(
            f"expected a single-key JSON object, got {type(payload).__name__}",
            path=path,
        )
    if len(payload) != 1:
        keys = sorted(str(key) for key in payload)
        raise AlgebraError(
            f"expected exactly one operator key, got {keys}", path=path
        )
    key = next(iter(payload))
    return str(key), payload[key]


def _parse_items(value: object, path: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise AlgebraError("expected a list of item strings", path=path)
    return _normalise(value, "the item list", path=path)


def _parse_bounds(value: object, path: str) -> Tuple[Optional[int], Optional[int]]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(item is None or isinstance(item, int) for item in value)
    ):
        raise AlgebraError("expected a [lo, hi] pair of integers or nulls", path=path)
    return value[0], value[1]


def _rebuild(builder: type, path: str, *arguments: object) -> Predicate:
    """Construct an AST node, re-raising its validation error at ``path``."""
    try:
        return builder(*arguments)  # type: ignore[no-any-return]
    except AlgebraError as exc:
        raise AlgebraError(str(exc), path=path) from None


def parse_predicate(payload: object, path: str = "$") -> Predicate:
    """Parse one predicate node from its JSON form."""
    key, value = _single_key(payload, path)
    here = f"{path}.{key}"
    if key == "contains":
        return _rebuild(Contains, here, _parse_items(value, here))
    if key == "contained_in":
        return _rebuild(ContainedIn, here, _parse_items(value, here))
    if key == "support_gte":
        if not isinstance(value, int):
            raise AlgebraError("expected an integer threshold", path=here)
        return _rebuild(SupportAtLeast, here, value)
    if key == "support_between":
        lo, hi = _parse_bounds(value, here)
        if lo is None or hi is None:
            raise AlgebraError("support_between bounds cannot be null", path=here)
        return _rebuild(SupportBetween, here, lo, hi)
    if key == "slides":
        lo, hi = _parse_bounds(value, here)
        return _rebuild(Slides, here, lo, hi)
    if key == "first_frequent_in":
        lo, hi = _parse_bounds(value, here)
        return _rebuild(FirstFrequentIn, here, lo, hi)
    if key == "became_frequent_within":
        if not isinstance(value, Mapping):
            raise AlgebraError('expected {"k": ..., "of": [...]}', path=here)
        extra = set(value) - {"k", "of"}
        if extra or "k" not in value or "of" not in value:
            raise AlgebraError(
                'expected exactly the keys "k" and "of"', path=here
            )
        if not isinstance(value["k"], int):
            raise AlgebraError("expected an integer k", path=f"{here}.k")
        return _rebuild(
            BecameFrequentWithin, here, value["k"], _parse_items(value["of"], f"{here}.of")
        )
    if key in ("and", "or"):
        if not isinstance(value, (list, tuple)) or not value:
            raise AlgebraError(
                f"expected a non-empty list of child predicates under {key!r}",
                path=here,
            )
        children = tuple(
            parse_predicate(child, path=f"{here}[{position}]")
            for position, child in enumerate(value)
        )
        return _rebuild(And if key == "and" else Or, here, children)
    if key == "not":
        return Not(parse_predicate(value, path=here))
    raise AlgebraError(f"unknown predicate operator {key!r}", path=here)


def parse_query(payload: object, path: str = "$") -> Query:
    """Parse a full query (shape + predicate tree) from its JSON form."""
    key, value = _single_key(payload, path)
    here = f"{path}.{key}"
    if key == "select":
        if not isinstance(value, Mapping) or set(value) != {"where"}:
            raise AlgebraError('expected {"where": <predicate>}', path=here)
        return Select(parse_predicate(value["where"], path=f"{here}.where"))
    if key == "top_k":
        if not isinstance(value, Mapping) or not set(value) <= {"k", "where"}:
            raise AlgebraError('expected {"k": ..., "where": <predicate>?}', path=here)
        if "k" not in value or not isinstance(value["k"], int):
            raise AlgebraError("expected an integer k", path=f"{here}.k")
        where = (
            parse_predicate(value["where"], path=f"{here}.where")
            if "where" in value
            else None
        )
        try:
            return TopK(value["k"], where)
        except AlgebraError as exc:
            raise AlgebraError(str(exc), path=f"{here}.k") from None
    if key == "history":
        if not isinstance(value, Mapping) or set(value) != {"items"}:
            raise AlgebraError('expected {"items": [...]}', path=here)
        items = _parse_items(value["items"], f"{here}.items")
        return History(items)
    raise AlgebraError(
        f"unknown query shape {key!r}; expected select, top_k or history", path=here
    )


# ---------------------------------------------------------------------- #
# row-level interpretation (shared by compiled filters and brute force)
# ---------------------------------------------------------------------- #
class EvalContext(Protocol):
    """What predicate evaluation needs beyond the row itself: provenance."""

    def first_frequent(self, items: Iterable[str]) -> Optional[int]:
        """First slide at which ``items`` was frequent, or None."""
        ...  # pragma: no cover - protocol


class IndexReader(Protocol):
    """The posting-list read protocol the compiler executes against.

    :class:`~repro.history.query.JournalIndex` satisfies it, and so does
    the immutable :class:`~repro.serve.shards.IndexSnapshot` published by
    the sharded serving path — compiling against the protocol (rather
    than one concrete index) is what makes every front end answer
    byte-identically: there is exactly one compiler, and it only ever
    sees these thirteen methods.
    """

    def slide_ids(self) -> List[int]:
        """All indexed slide ids, ascending."""
        ...  # pragma: no cover - protocol

    def slides_between(self, lo: Optional[int], hi: Optional[int]) -> Sequence[int]:
        """The indexed slide ids in ``[lo, hi]`` (None = open end), ascending."""
        ...  # pragma: no cover - protocol

    @property
    def last_slide_id(self) -> Optional[int]:
        """The newest indexed slide id, or ``None`` for an empty index."""
        ...  # pragma: no cover - protocol

    def has_slide(self, slide_id: int) -> bool:
        """Is ``slide_id`` an indexed slide?"""
        ...  # pragma: no cover - protocol

    def posting_total(self, item: str) -> int:
        """Total posting length of ``item`` (the planner's estimate)."""
        ...  # pragma: no cover - protocol

    def posting(self, item: str, slide_id: int) -> Sequence[Tuple[str, ...]]:
        """The patterns containing ``item`` at one slide."""
        ...  # pragma: no cover - protocol

    def row_count(self, slide_id: int) -> int:
        """Number of pattern rows at one slide (0 if unknown)."""
        ...  # pragma: no cover - protocol

    def iter_patterns_at(
        self, slide_id: int
    ) -> Iterator[Tuple[Tuple[str, ...], int]]:
        """Iterate the (items, support) rows of one slide, in rank order
        (support descending, then size, then items)."""
        ...  # pragma: no cover - protocol

    def support_at(self, slide_id: int, items: Iterable[str]) -> Optional[int]:
        """Support of an exact itemset at one slide, or None when absent."""
        ...  # pragma: no cover - protocol

    def first_frequent(self, items: Iterable[str]) -> Optional[int]:
        """First slide at which ``items`` was frequent, or None."""
        ...  # pragma: no cover - protocol

    def first_frequent_between(
        self, lo: Optional[int], hi: Optional[int]
    ) -> Sequence[FirstSeen]:
        """(first slide, items) of every pattern first frequent in ``[lo, hi]``,
        by first slide."""
        ...  # pragma: no cover - protocol

    def last_frequent(self, items: Iterable[str]) -> Optional[int]:
        """Last slide at which ``items`` was frequent, or None."""
        ...  # pragma: no cover - protocol

    def items(self) -> List[str]:
        """Every indexed item, sorted."""
        ...  # pragma: no cover - protocol


class _RecordsContext:
    """Provenance lookups by scanning raw records (the brute-force side)."""

    def __init__(self, records: Sequence[SlideRecord]) -> None:
        self._records = records
        self._cache: Dict[Tuple[str, ...], Optional[int]] = {}

    def first_frequent(self, items: Iterable[str]) -> Optional[int]:
        key = tuple(sorted(items))
        if key not in self._cache:
            found: Optional[int] = None
            for record in self._records:
                if record.support_of(key) is not None:
                    found = record.slide_id
                    break
            self._cache[key] = found
        return self._cache[key]


def matches_row(
    predicate: Predicate,
    slide: int,
    items: Tuple[str, ...],
    support: int,
    ctx: EvalContext,
) -> bool:
    """Does one journalled row satisfy ``predicate``?

    This is the algebra's semantics in four lines per operator — the
    compiled plans must agree with it row-for-row (the equivalence suite
    checks exactly that).
    """
    if isinstance(predicate, Contains):
        return frozenset(predicate.items).issubset(items)
    if isinstance(predicate, ContainedIn):
        return frozenset(predicate.items).issuperset(items)
    if isinstance(predicate, SupportAtLeast):
        return support >= predicate.tau
    if isinstance(predicate, SupportBetween):
        return predicate.lo <= support <= predicate.hi
    if isinstance(predicate, Slides):
        return (predicate.lo is None or slide >= predicate.lo) and (
            predicate.hi is None or slide <= predicate.hi
        )
    if isinstance(predicate, FirstFrequentIn):
        first = ctx.first_frequent(items)
        return (
            first is not None
            and (predicate.lo is None or first >= predicate.lo)
            and (predicate.hi is None or first <= predicate.hi)
        )
    if isinstance(predicate, BecameFrequentWithin):
        anchor = ctx.first_frequent(predicate.of)
        first = ctx.first_frequent(items)
        return anchor is not None and first is not None and abs(first - anchor) <= predicate.k
    if isinstance(predicate, And):
        return all(
            matches_row(child, slide, items, support, ctx) for child in predicate.children
        )
    if isinstance(predicate, Or):
        return any(
            matches_row(child, slide, items, support, ctx) for child in predicate.children
        )
    if isinstance(predicate, Not):
        return not matches_row(predicate.child, slide, items, support, ctx)
    raise AlgebraError(f"cannot evaluate {type(predicate).__name__!r}")


# ---------------------------------------------------------------------- #
# the compiler + cost-based planner
# ---------------------------------------------------------------------- #
def _select_key(row: Match) -> Tuple[int, int, Tuple[str, ...]]:
    return (row[0], len(row[1]), row[1])


def _rank_key(row: Match) -> Tuple[int, int, Tuple[str, ...], int]:
    return (-row[2], len(row[1]), row[1], row[0])


def _flatten_and(predicate: Predicate) -> List[Predicate]:
    if isinstance(predicate, And):
        return [leaf for child in predicate.children for leaf in _flatten_and(child)]
    return [predicate]


def describe(node: Union[Predicate, Query]) -> str:
    """One compact human-readable line per node (used in Explain plans)."""
    if isinstance(node, Contains):
        return f"contains({','.join(node.items)})"
    if isinstance(node, ContainedIn):
        return f"contained_in({','.join(node.items)})"
    if isinstance(node, SupportAtLeast):
        return f"support>={node.tau}"
    if isinstance(node, SupportBetween):
        return f"support in [{node.lo},{node.hi}]"
    if isinstance(node, Slides):
        return f"slides[{node.lo},{node.hi}]"
    if isinstance(node, FirstFrequentIn):
        return f"first_frequent in [{node.lo},{node.hi}]"
    if isinstance(node, BecameFrequentWithin):
        return f"became_frequent_within(k={node.k}, of={','.join(node.of)})"
    if isinstance(node, And):
        return "and(" + ", ".join(describe(child) for child in node.children) + ")"
    if isinstance(node, Or):
        return "or(" + ", ".join(describe(child) for child in node.children) + ")"
    if isinstance(node, Not):
        return f"not({describe(node.child)})"
    if isinstance(node, Select):
        return f"select({describe(node.where)})"
    if isinstance(node, TopK):
        where = describe(node.where) if node.where is not None else "*"
        return f"top_k({node.k}, {where})"
    if isinstance(node, History):
        return f"history({','.join(node.items)})"
    return type(node).__name__


@dataclass
class _ConjunctionResult:
    rows: List[Match]
    plan: List[str]
    estimated_rows: int
    estimated_scanned: int
    scanned: int


def _scan_estimate(predicate: Predicate, index: IndexReader) -> Optional[int]:
    """Postings a posting-list conjunct would touch as a driver (None = not one)."""
    if isinstance(predicate, Contains):
        return min(index.posting_total(item) for item in predicate.items)
    if isinstance(predicate, ContainedIn):
        return sum(index.posting_total(item) for item in predicate.items)
    return None


def _provenance_candidates(
    predicate: Predicate, index: IndexReader
) -> Optional[Sequence[FirstSeen]]:
    """The (first slide, items) a provenance conjunct can match (None = not one)."""
    if isinstance(predicate, FirstFrequentIn):
        return index.first_frequent_between(predicate.lo, predicate.hi)
    if isinstance(predicate, BecameFrequentWithin):
        anchor = index.first_frequent(predicate.of)
        if anchor is None:
            return ()
        return index.first_frequent_between(anchor - predicate.k, anchor + predicate.k)
    return None


def _slide_bounds(
    conjuncts: Sequence[Predicate],
) -> Tuple[Optional[int], Optional[int], List[Predicate]]:
    """Split off top-level ``slides`` conjuncts into one [lo, hi] range."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    rest: List[Predicate] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, Slides):
            if conjunct.lo is not None:
                lo = conjunct.lo if lo is None else max(lo, conjunct.lo)
            if conjunct.hi is not None:
                hi = conjunct.hi if hi is None else min(hi, conjunct.hi)
        else:
            rest.append(conjunct)
    return lo, hi, rest


def _run_conjunction(
    conjuncts: Sequence[Predicate], index: IndexReader, optimize: bool
) -> _ConjunctionResult:
    """Execute one conjunction: slide-range push-down, driver, filters."""
    lo, hi, residual = _slide_bounds(conjuncts)
    scan_slides = index.slides_between(lo, hi)
    range_rows = sum(index.row_count(slide) for slide in scan_slides)

    # What each indexable conjunct would touch as the driver: postings for
    # contains/contained_in, (pattern, slide) probes for provenance.
    estimates: Dict[int, int] = {}
    candidates: Dict[int, Sequence[FirstSeen]] = {}
    for position, conjunct in enumerate(residual):
        estimate = _scan_estimate(conjunct, index)
        if estimate is None:
            found = _provenance_candidates(conjunct, index)
            if found is None:
                continue
            candidates[position] = found
            estimate = sum(
                len(scan_slides) - bisect_left(scan_slides, first) for first, _ in found
            )
        estimates[position] = estimate
    # Result-cardinality estimate: the tightest bound any conjunct offers.
    estimated_rows = min([range_rows, *estimates.values()])

    driver_pos: Optional[int]
    if optimize:
        # A provenance driver only pays when it probes less than a scan reads.
        usable = [
            position
            for position, estimate in estimates.items()
            if position not in candidates or estimate < range_rows
        ]
        driver_pos = min(usable, key=lambda p: (estimates[p], p), default=None)
    else:
        driver_pos = next((p for p in estimates if p not in candidates), None)
    plan: List[str] = []
    if lo is not None or hi is not None:
        plan.append(f"slides[{lo},{hi}] [range -> {len(scan_slides)} slides]")

    rows: List[Match] = []
    scanned = 0
    if driver_pos is None:
        # No posting list to drive from: scan every row in range.
        estimated_scanned = range_rows
        plan.insert(0, f"full-scan [driver, est={estimated_scanned}]")
        for f in residual:
            plan.append(f"{describe(f)} [filter]")
        for slide in scan_slides:
            for items, support in index.iter_patterns_at(slide):
                scanned += 1
                if all(
                    matches_row(f, slide, items, support, index) for f in residual
                ):
                    rows.append((slide, items, support))
        return _ConjunctionResult(rows, plan, estimated_rows, estimated_scanned, scanned)

    driver = residual[driver_pos]
    filters = [
        conjunct for position, conjunct in enumerate(residual) if position != driver_pos
    ]
    estimated_scanned = estimates[driver_pos]
    if driver_pos in candidates:
        probes = candidates[driver_pos]
        plan.insert(
            0,
            f"{describe(driver)} [provenance driver, {len(probes)} patterns, "
            f"est={estimated_scanned}]",
        )
    else:
        plan.insert(0, f"{describe(driver)} [driver, est={estimated_scanned}]")
    for f in filters:
        plan.append(f"{describe(f)} [filter]")

    if driver_pos in candidates:
        # Probe each candidate in every slide from its first slide on.
        for slide in scan_slides:
            for first, candidate in probes:
                if first > slide:
                    break
                scanned += 1
                support = index.support_at(slide, candidate)
                if support is not None and all(
                    matches_row(f, slide, candidate, support, index) for f in filters
                ):
                    rows.append((slide, candidate, support))
    elif isinstance(driver, Contains):
        wanted = frozenset(driver.items)
        if optimize:
            enum_item = min(driver.items, key=index.posting_total)
        else:
            enum_item = driver.items[0]
        for slide in scan_slides:
            for candidate in index.posting(enum_item, slide):
                scanned += 1
                if not wanted.issubset(candidate):
                    continue
                support = index.support_at(slide, candidate)
                if support is None:  # pragma: no cover - postings mirror slides
                    continue
                if all(matches_row(f, slide, candidate, support, index) for f in filters):
                    rows.append((slide, candidate, support))
    else:
        allowed = frozenset(driver.items)
        for slide in scan_slides:
            seen: set = set()
            for item in driver.items:
                for candidate in index.posting(item, slide):
                    scanned += 1
                    if candidate in seen:
                        continue
                    seen.add(candidate)
                    if not allowed.issuperset(candidate):
                        continue
                    support = index.support_at(slide, candidate)
                    if support is None:  # pragma: no cover - postings mirror slides
                        continue
                    if all(
                        matches_row(f, slide, candidate, support, index) for f in filters
                    ):
                        rows.append((slide, candidate, support))
    return _ConjunctionResult(rows, plan, estimated_rows, estimated_scanned, scanned)


def _rank_merge(
    k: int, conjuncts: Sequence[Predicate], index: IndexReader
) -> _ConjunctionResult:
    """``top_k`` over a slide range without sorting: every slide's rows are
    stored in rank order, so the answer is the first ``k`` rows of their
    lazy merge."""
    lo, hi, _ = _slide_bounds(conjuncts)
    scan_slides = index.slides_between(lo, hi)
    range_rows = sum(index.row_count(slide) for slide in scan_slides)
    scanned = 0

    def ranked(slide: int) -> Iterator[Match]:
        nonlocal scanned
        for items, support in index.iter_patterns_at(slide):
            scanned += 1
            yield slide, items, support

    merged = heapq.merge(*(ranked(slide) for slide in scan_slides), key=_rank_key)
    rows = list(islice(merged, k))
    estimated_scanned = min(range_rows, len(scan_slides) + k)
    plan = [f"rank-merge [driver, est={estimated_scanned}]"]
    if lo is not None or hi is not None:
        plan.append(f"slides[{lo},{hi}] [range -> {len(scan_slides)} slides]")
    return _ConjunctionResult(rows, plan, range_rows, estimated_scanned, scanned)


def _run_predicate(
    predicate: Predicate, index: IndexReader, optimize: bool
) -> _ConjunctionResult:
    """Compile a predicate tree: top-level Or = union of compiled arms."""
    if isinstance(predicate, Or):
        total_rows = sum(index.row_count(slide) for slide in index.slide_ids())
        seen: set = set()
        rows: List[Match] = []
        plan: List[str] = []
        estimated = 0
        estimated_scanned = 0
        scanned = 0
        for position, arm in enumerate(predicate.children):
            result = _run_predicate(arm, index, optimize)
            estimated += result.estimated_rows
            estimated_scanned += result.estimated_scanned
            scanned += result.scanned
            plan.extend(f"or[{position}]: {line}" for line in result.plan)
            for row in result.rows:
                key = (row[0], row[1])
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        return _ConjunctionResult(
            rows, plan, min(estimated, total_rows), estimated_scanned, scanned
        )
    return _run_conjunction(_flatten_and(predicate), index, optimize)


def _q_error(estimated: int, actual: int) -> float:
    """Symmetric estimated-vs-actual ratio (>= 1.0; 1.0 = perfect estimate)."""
    est = max(estimated, 1)
    act = max(actual, 1)
    return round(max(est / act, act / est), 3)


@dataclass
class Evaluation:
    """One evaluated query: the result plus its Explain payload."""

    query: Query
    kind: str
    explain: Dict[str, object]
    matches: List[Match]
    curve: List[CurvePoint]
    first_frequent: Optional[int] = None
    last_frequent: Optional[int] = None
    peak_support: int = 0

    def payload(self) -> Dict[str, object]:
        """The JSON-able service payload (what ``POST /query`` returns)."""
        if self.kind == "history":
            return {
                "query": to_json(self.query),
                "history": [
                    {"slide": slide, "support": support} for slide, support in self.curve
                ],
                "first_frequent": self.first_frequent,
                "last_frequent": self.last_frequent,
                "peak_support": self.peak_support,
                "explain": self.explain,
            }
        return {
            "query": to_json(self.query),
            "matches": [
                {"slide": slide, "items": list(items), "support": support}
                for slide, items, support in self.matches
            ],
            "count": len(self.matches),
            "explain": self.explain,
        }


def evaluate(query: Query, index: IndexReader, optimize: bool = True) -> Evaluation:
    """Compile and run one query against a journal index.

    ``optimize=True`` runs the cost-based plan (smallest-posting-first
    driver choice); ``optimize=False`` the naive left-to-right ablation.
    Both produce identical results — only the Explain differs.
    """
    if isinstance(query, Select):
        result = _run_predicate(query.where, index, optimize)
        result.rows.sort(key=_select_key)
        explain = {
            "shape": "select",
            "optimized": optimize,
            "plan": result.plan,
            "estimated_rows": result.estimated_rows,
            "actual_rows": len(result.rows),
            "estimated_scanned": result.estimated_scanned,
            "scanned": result.scanned,
            "q_error": _q_error(result.estimated_rows, len(result.rows)),
        }
        return Evaluation(query, "select", explain, result.rows, [])
    if isinstance(query, TopK):
        conjuncts = [] if query.where is None else _flatten_and(query.where)
        if all(isinstance(conjunct, Slides) for conjunct in conjuncts):
            result = _rank_merge(query.k, conjuncts, index)
            matched = result.estimated_rows  # every row in range matches
            top = result.rows
        else:
            result = _run_predicate(query.where, index, optimize)
            matched = len(result.rows)
            result.rows.sort(key=_rank_key)
            top = result.rows[: query.k]
        explain = {
            "shape": "top_k",
            "optimized": optimize,
            "plan": result.plan + [f"rank [k={query.k}, matched={matched}]"],
            "estimated_rows": result.estimated_rows,
            "actual_rows": matched,
            "estimated_scanned": result.estimated_scanned,
            "scanned": result.scanned,
            "q_error": _q_error(result.estimated_rows, matched),
        }
        return Evaluation(query, "top_k", explain, top, [])
    if isinstance(query, History):
        order = index.slide_ids()
        curve: List[CurvePoint] = []
        for slide in order:
            support = index.support_at(slide, query.items)
            curve.append((slide, support if support is not None else 0))
        explain = {
            "shape": "history",
            "optimized": optimize,
            "plan": [f"{describe(query)} [curve over {len(order)} slides]"],
            "estimated_rows": len(order),
            "actual_rows": len(curve),
            "estimated_scanned": len(order),
            "scanned": len(order),
            "q_error": 1.0,
        }
        return Evaluation(
            query,
            "history",
            explain,
            [],
            curve,
            first_frequent=index.first_frequent(query.items) if curve else None,
            last_frequent=index.last_frequent(query.items) if curve else None,
            peak_support=max((support for _, support in curve), default=0),
        )
    raise AlgebraError(
        f"cannot evaluate {type(query).__name__!r}; expected select, top_k or history"
    )


# ---------------------------------------------------------------------- #
# brute-force interpreter — the correctness oracle
# ---------------------------------------------------------------------- #
def brute_force_query(
    query: Query, records: Sequence[SlideRecord]
) -> Union[List[Match], List[CurvePoint]]:
    """Interpret a query by scanning raw records (no index, no planner).

    Returns what the compiled evaluation's result field holds: the match
    list for ``select``/``top_k``, the curve for ``history``.  The
    randomized equivalence suite and bench E13 compare against this.
    """
    if isinstance(query, History):
        wanted = query.items
        curve: List[CurvePoint] = []
        for record in records:
            support = record.support_of(wanted)
            curve.append((record.slide_id, support if support is not None else 0))
        return curve
    if isinstance(query, (Select, TopK)):
        ctx = _RecordsContext(records)
        predicate = query.where
        rows: List[Match] = []
        for record in records:
            for items, support in record.patterns:
                if predicate is None or matches_row(
                    predicate, record.slide_id, items, support, ctx
                ):
                    rows.append((record.slide_id, items, support))
        if isinstance(query, TopK):
            rows.sort(key=_rank_key)
            return rows[: query.k]
        rows.sort(key=_select_key)
        return rows
    raise AlgebraError(
        f"cannot evaluate {type(query).__name__!r}; expected select, top_k or history"
    )


__all__ = [
    "AlgebraError",
    "IndexReader",
    "Match",
    "CurvePoint",
    "Contains",
    "ContainedIn",
    "SupportAtLeast",
    "SupportBetween",
    "Slides",
    "FirstFrequentIn",
    "BecameFrequentWithin",
    "And",
    "Or",
    "Not",
    "Predicate",
    "Select",
    "TopK",
    "History",
    "Query",
    "QUERY_SHAPES",
    "contains",
    "contained_in",
    "support_gte",
    "support_between",
    "slides",
    "first_frequent_in",
    "became_frequent_within",
    "and_",
    "or_",
    "not_",
    "select",
    "top_k",
    "history",
    "to_json",
    "parse_predicate",
    "parse_query",
    "describe",
    "matches_row",
    "Evaluation",
    "evaluate",
    "brute_force_query",
]
