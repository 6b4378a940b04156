"""2-(n,m,1) designs: canonical form, parsing, development, validation.

A design is stored densely: ``labels`` maps point indices to tokens and each
block is a sorted tuple of point indices, with the block list itself sorted.
Dense index assignment is an internal detail (developed designs list each
tag's residues in tag order, then ``inf``; parsed designs use
first-appearance order), so two designs are equal when they have the same
parameters and the same blocks *as sets of tokens*.
"""

from __future__ import annotations

import json
import re
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice, repeat
from operator import countOf
from typing import NamedTuple

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class DesignParameters(NamedTuple):
    """Replication and block counts for a hypothetical 2-(n,m,1) design."""

    n: int
    m: int
    r: Fraction
    b: Fraction

    @property
    def r_integral(self) -> bool:
        return self.r.denominator == 1

    @property
    def b_integral(self) -> bool:
        return self.b.denominator == 1

    @property
    def admissible(self) -> bool:
        return self.r_integral and self.b_integral


def admissibility(n: int, m: int) -> DesignParameters:
    """Exact r = (n-1)/(m-1) and b = n(n-1)/(m(m-1)) with integrality flags."""
    if m < 2 or n <= m:
        raise ValueError(f"need n > m >= 2, got n={n}, m={m}")
    return DesignParameters(
        n=n,
        m=m,
        r=Fraction(n - 1, m - 1),
        b=Fraction(n * (n - 1), m * (m - 1)),
    )


class Design(namedtuple("Design", "n m labels blocks name", defaults=("",))):
    """A candidate 2-(n,m,1) design in canonical form.

    Lambda is 1 by definition, not a field: :func:`validate_2design` checks
    that every point pair lies in exactly one block.  ``labels`` are
    distinct blocklist tokens.  ``blocks`` are distinct sorted tuples of m
    dense indices into ``labels`` each; the block list is sorted
    lexicographically.  Instances are immutable; construct via
    :func:`make_design`, :func:`parse_design` or :func:`develop_base_blocks`,
    which hold these invariants: one built field by field is outside them.
    Equality and hash ignore ``name``.  No ``__slots__``: cached properties need a ``__dict__``.
    """

    @cached_property
    def token_blocks(self) -> frozenset[frozenset[str]]:
        return frozenset(
            frozenset(self.labels[i] for i in blk) for blk in self.blocks
        )

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.labels)}

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        """Each block as a bitmask over point indices."""
        bit = [1 << p for p in range(self.n)].__getitem__
        return tuple(sum(map(bit, blk)) for blk in self.blocks)

    @cached_property
    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """Masks over block indices (through, rows, twice): the blocks through
        each point; for each block, the other blocks that share a point with
        it (its block-graph row) and those that share two or more."""
        through = [0] * self.n
        for i, blk in enumerate(self.blocks):
            for p in blk:
                through[p] |= 1 << i
        rows, twice = [], []
        for i, blk in enumerate(self.blocks):
            meets = doubled = 0
            for p in blk:
                doubled |= meets & through[p]
                meets |= through[p]
            rows.append(meets & ~(1 << i))
            twice.append(doubled & ~(1 << i))
        return tuple(through), tuple(rows), tuple(twice)

    @cached_property
    def block_index(self) -> dict[tuple[int, ...], int]:
        return {blk: i for i, blk in enumerate(self.blocks)}

    @property
    def b(self) -> int:
        return len(self.blocks)

    def block_tokens(self, i: int) -> tuple[str, ...]:
        return tuple(self.labels[p] for p in self.blocks[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        return (
            (self.n, self.m) == (other.n, other.m)
            and self.token_blocks == other.token_blocks
        )

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's field-wise !=

    def __setattr__(self, name, value):  # cached properties write __dict__ directly
        raise AttributeError(f"cannot assign to Design.{name}: designs are immutable")

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.token_blocks))

    def __repr__(self) -> str:
        tag = self.name or "design"
        return f"<{tag}: 2-({self.n},{self.m},1), {self.b} blocks>"


def make_design(labels, token_blocks, name="") -> Design:
    """Canonicalize labels + token blocks into a Design.

    Every label must be a blocklist token, so that the design serializes to
    files that parse back.  Every block must consist of distinct known
    tokens; blocks of unequal size or duplicate blocks are rejected, so every
    block of the design has m points.
    """
    labels = tuple(labels)
    for tok in labels:
        if not (isinstance(tok, str) and _TOKEN_RE.match(tok)):
            raise ValueError(f"point label {tok!r} is not a blocklist token")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate point labels")
    index = {tok: i for i, tok in enumerate(labels)}.__getitem__
    dense = []
    for blk in token_blocks:
        try:
            idx = tuple(sorted(map(index, blk)))
        except KeyError as exc:  # the first unknown token of the block
            raise ValueError(f"unknown point token {exc.args[0]!r}") from None
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate point within block {tuple(blk)}")
        dense.append(idx)
    sizes = set(map(len, dense))
    if len(sizes) > 1:
        raise ValueError(f"blocks of unequal size: {sorted(sizes)}")
    if len(set(dense)) != len(dense):
        seen = set()
        for blk in dense:
            if blk in seen:
                raise ValueError(f"duplicate block {tuple(labels[i] for i in blk)}")
            seen.add(blk)
    m = sizes.pop() if sizes else 0
    return Design(
        n=len(labels),
        m=m,
        labels=labels,
        blocks=tuple(sorted(dense)),
        name=name,
    )


# ---------------------------------------------------------------------------
# blocklist / json formats

def parse_design(text: str, format: str = "blocklist", name: str = "") -> Design:
    """Parse a design from blocklist or json text into canonical form."""
    if format == "blocklist":
        return _parse_blocklist(text, name)
    if format == "json":
        return _parse_json(text, name)
    raise ValueError(f"unknown design format {format!r}")


def content_lines(text: str):
    """(line number from 1, text before any ``#``, stripped) of each line
    that keeps some text: the comment rule of every line-based input."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_blocklist(text: str, name: str) -> Design:
    declared_n = None
    raw_blocks: list[tuple[str, ...]] = []
    for lineno, line in content_lines(text):
        if declared_n is None and not raw_blocks:
            header = re.match(r"points:\s*(\d+)\Z", line)
            if header:
                declared_n = int(header.group(1))
                continue
        toks = tuple(line.split())
        if not _TOKEN_RE.match("".join(toks)):  # split tokens are non-empty: all match iff this does
            bad = next(tok for tok in toks if not _TOKEN_RE.match(tok))
            raise ValueError(f"line {lineno}: unparseable token {bad!r}")
        raw_blocks.append(toks)
    labels = [*dict.fromkeys(chain.from_iterable(raw_blocks))]
    if declared_n is not None and declared_n != len(labels):
        raise ValueError(
            f"header declares {declared_n} points but {len(labels)} distinct tokens occur"
        )
    return make_design(labels, raw_blocks, name=name)


def _json_tokens(value, what: str) -> list[str]:
    """A JSON list of str/int tokens, as strings, each a blocklist token, so
    that the design can be written as a blocklist and named in cycles."""
    if not isinstance(value, list):
        raise ValueError(f"json design: {what} must be a list, got {type(value).__name__}")
    for tok in value:
        if isinstance(tok, bool) or not isinstance(tok, (str, int)):
            raise ValueError(f"json design: {what} token {tok!r} is not a string or integer")
        if not _TOKEN_RE.match(str(tok)):
            raise ValueError(f"json design: {what} token {tok!r} is not a blocklist token")
    return [str(tok) for tok in value]


def _parse_json(text: str, name: str) -> Design:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad json design: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("json design: top level must be an object")
    for key in ("n", "m", "lambda", "labels", "blocks"):
        if key not in doc:
            raise ValueError(f"json design missing key {key!r}")
    for key in ("n", "m", "lambda"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValueError(f"json design: {key} must be an integer, got {doc[key]!r}")
    if doc["lambda"] != 1:
        raise ValueError(f"json design: lambda must be 1, got {doc['lambda']}")
    labels = _json_tokens(doc["labels"], "labels")
    if len(labels) != doc["n"]:
        raise ValueError("json design: n does not match number of labels")
    if not isinstance(doc["blocks"], list):
        raise ValueError("json design: blocks must be a list of lists")
    blocks = [_json_tokens(blk, "block") for blk in doc["blocks"]]
    design = make_design(labels, blocks, name=name)
    if design.m != doc["m"] and design.blocks:
        raise ValueError(f"json design: m={doc['m']} but blocks have size {design.m}")
    return design


def serialize_design(design: Design, format: str = "blocklist") -> str:
    """Render a design; blocklist output is canonical in token space."""
    if format == "blocklist":
        lines = sorted(tuple(sorted(design.block_tokens(i))) for i in range(design.b))
        return "".join(" ".join(line) + "\n" for line in lines)
    if format == "json":
        doc = {
            "n": design.n,
            "m": design.m,
            "lambda": 1,
            "labels": list(design.labels),
            "blocks": [list(design.block_tokens(i)) for i in range(design.b)],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown design format {format!r}")


# ---------------------------------------------------------------------------
# cyclic development of base blocks

INF_TOKEN = "inf"
_RESIDUE_RE = re.compile(r"([0-9]+)(?:_([A-Za-z0-9]+))?\Z")


def residue_token(token: str, modulus: int) -> tuple[str, int]:
    """Split ``<digits>`` or ``<digits>_<tag>`` into (tag, value mod modulus).

    An untagged residue has tag ``""``, which sorts before every tag.
    """
    match = _RESIDUE_RE.match(token)
    if match is None:
        raise ValueError(f"not a residue token: {token!r}")
    return match.group(2) or "", int(match.group(1)) % modulus


def develop_base_blocks(base_blocks, modulus: int, name: str = "") -> Design:
    """Develop base blocks of point tokens through Z_modulus.

    ``inf`` is fixed by every shift; any other token is a residue
    ``<digits>`` or ``<digits>_<tag>`` and shift e adds e mod ``modulus`` to
    its value, keeping the tag.  The labels are each tag's residues
    0..modulus-1, tags in string order (untagged first), then ``inf``.  The
    designs developed here have full orbits, so a duplicate developed block
    signals corrupt input and is an error rather than silently deduplicated.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be at least 1, got {modulus}")
    # each tag's tokens for the values 0..2*modulus-1 taken mod modulus, so a
    # point (tag, value) shifted by e is tokens[tag][value + e]; inf has tag None
    tokens: dict[str | None, list[str]] = {}
    developed: set[frozenset[str]] = set()
    blocks = []
    for i, blk in enumerate(base_blocks):
        points = [(None, 0) if tok == INF_TOKEN else residue_token(tok, modulus) for tok in blk]
        if len(set(points)) != len(points):
            raise ValueError(f"duplicate point within base block {tuple(blk)}")
        for tag, _ in points:
            if tag not in tokens:
                tokens[tag] = 2 * ([INF_TOKEN] * modulus if tag is None else
                                   [f"{r}_{tag}" if tag else str(r) for r in range(modulus)])
        for e in range(modulus):
            image = [tokens[tag][value + e] for tag, value in points]
            if (key := frozenset(image)) in developed:
                raise ValueError(f"development produced a duplicate block (base {i}, shift {e})")
            developed.add(key)
            blocks.append(image)
    labels = [tok for tag in sorted(tokens.keys() - {None}) for tok in tokens[tag][:modulus]]
    return make_design(labels + [INF_TOKEN] * (None in tokens), blocks, name=name)


# ---------------------------------------------------------------------------
# validation

class Violation(NamedTuple):
    """One failed design axiom: a pair, a point, or the parameters."""

    kind: str  # "pair" | "replication" | "parameters"
    subject: tuple
    count: int
    expected: object


LISTED_PAIR_VIOLATIONS = 20  # C(n,2) pairs can fail; no caller prints more than 20


class ValidationReport(NamedTuple):
    valid: bool
    params: DesignParameters | None
    violations: tuple[Violation, ...]  # only the first LISTED_PAIR_VIOLATIONS pair failures
    violation_count: int  # every failure


def validate_2design(design: Design) -> ValidationReport:
    """Exhaustively check the 2-(n,m,1) axioms by direct counting.

    Every unordered point pair must lie in exactly one block, and every
    point must lie in r = (n-1)/(m-1) blocks.  Failures are reported, not
    raised.  The pairs that fail are all those not covered exactly once,
    counted from the covered pairs; all pairs are walked only to list the
    first few.  The design is valid iff nothing fails: its blocks have m
    points, so with every pair covered once b m(m-1) = n(n-1), and b and r
    are integers.
    """
    violations: list[Violation] = []
    n, m = design.n, design.m
    if m < 2 or n <= m:
        violations.append(Violation("parameters", (n, m), 0, "n > m >= 2"))
        return ValidationReport(False, None, tuple(violations), 1)
    params = admissibility(n, m)
    pair_counts = Counter(chain.from_iterable(map(combinations, design.blocks, repeat(2))))
    repl = Counter(chain.from_iterable(design.blocks))
    pair_failures = n * (n - 1) // 2 - countOf(pair_counts.values(), 1)
    failing = (
        Violation("pair", (design.labels[p], design.labels[q]), c, 1)
        for p, q in combinations(range(n), 2)
        if (c := pair_counts.get((p, q), 0)) != 1
    )
    listed = min(pair_failures, LISTED_PAIR_VIOLATIONS)
    violations += islice(failing, listed)  # the walk ends at the last one listed
    if params.r_integral:
        r = int(params.r)
        for p in range(n):
            c = repl.get(p, 0)
            if c != r:
                violations.append(Violation("replication", (design.labels[p],), c, r))
    else:
        violations.append(Violation("parameters", (n, m), 0, "r integral"))

    count = len(violations) + pair_failures - listed
    return ValidationReport(not violations, params, tuple(violations), count)
