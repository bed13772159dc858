"""Context-dependent lexical transducer: the deterministic translation rules."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .vocab import RESERVED_SURFACES, UNK, Vocabulary, write_artifact


class LexiconError(ValueError):
    pass


@dataclass(frozen=True)
class Lexicon:
    """Monotone token-to-token rules with optional successor conditions.

    `default` maps every regular source id to a target id. `conditional`
    maps (source id, next source id) pairs to an alternative target and may
    exist only for sources in `ambiguous`. At most one rule matches any
    (token, successor) pair, so translation is deterministic.
    """

    default: dict[int, int]
    conditional: dict[tuple[int, int], int]
    ambiguous: frozenset[int]

    def __post_init__(self) -> None:
        for (src, _), _tgt in self.conditional.items():
            if src not in self.ambiguous:
                raise LexiconError(f"conditional rule for non-ambiguous token id {src}")
        for src in self.ambiguous:
            if src not in self.default:
                raise LexiconError(f"ambiguous token id {src} lacks a default rule")

    def translate(self, token: int, next_token: int | None = None) -> int:
        """Apply the conditional rule when its successor matches, else the default."""
        if next_token is not None:
            conditioned = self.conditional.get((token, next_token))
            if conditioned is not None:
                return conditioned
        try:
            return self.default[token]
        except KeyError:
            raise LexiconError(f"unknown source token id {token}") from None


DEFAULT_CONDITION = "*"


def _rows(path: str | Path):
    """(line number, source, condition, target) of each rule line; blank and '#' lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not UTF-8 at byte {exc.start}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            parts = line.split("\t")
            if len(parts) != 3:
                raise LexiconError(f"{path}: line {lineno}: expected 3 tab-separated columns")
            yield lineno, *parts


def load_lexicon(path: str | Path, vocab: Vocabulary) -> Lexicon:
    """Load a 3-column TSV: source, condition ('*' for default), target.

    Duplicate keys are rejected rather than resolved; every regular
    vocabulary token must end up with a default rule. Errors name the file and line.
    """
    default: dict[int, int] = {}
    conditional: dict[tuple[int, int], int] = {}
    ambiguous: set[int] = set()
    for lineno, src_s, cond_s, tgt_s in _rows(path):
        where = f"{path}: line {lineno}"
        src = vocab.lookup(src_s)
        if src not in vocab.regular_ids:
            raise LexiconError(f"{where}: unknown or reserved source token {src_s!r}")
        tgt = vocab.lookup(tgt_s)
        if tgt == UNK and tgt_s != vocab.surface(UNK):
            raise LexiconError(f"{where}: target token {tgt_s!r} missing from vocabulary")
        if cond_s == DEFAULT_CONDITION:
            if src in default:
                raise LexiconError(f"{where}: duplicate default rule for {src_s!r}")
            default[src] = tgt
        else:
            cond = vocab.lookup(cond_s)
            if cond not in vocab.regular_ids:
                raise LexiconError(f"{where}: unknown condition token {cond_s!r}")
            if (src, cond) in conditional:
                raise LexiconError(f"{where}: duplicate conditional rule for {src_s!r}")
            conditional[(src, cond)] = tgt
            ambiguous.add(src)
    if not default:
        raise LexiconError(f"{path}: lexicon has no default rules")
    # condition tokens occur in source sentences, so they need rules themselves
    missing = sorted({vocab.surface(c) for (_, c) in conditional if c not in default})
    if missing:
        raise LexiconError(f"{path}: condition tokens without a default rule: {missing}")
    return Lexicon(default=default, conditional=conditional, ambiguous=frozenset(ambiguous))


def read_lexicon_vocabulary(path: str | Path) -> Vocabulary:
    """Build the shared vocabulary from a lexicon file.

    The lexicon names every source token (default rules), every condition
    token, and every target token, so it fully determines the vocabulary:
    reserved ids first, then surfaces in file order of first occurrence.
    """
    tokens = dict.fromkeys(RESERVED_SURFACES)  # an ordered set
    for _, *surfaces in _rows(path):
        tokens.update(dict.fromkeys(surface for surface in surfaces if surface != DEFAULT_CONDITION))
    if len(tokens) == len(RESERVED_SURFACES):
        raise LexiconError(f"{path}: empty lexicon file")
    return Vocabulary(tuple(tokens))


def save_lexicon(path: str | Path, lexicon: Lexicon, vocab: Vocabulary) -> None:
    """Write the TSV form, default rules first, deterministic order."""
    lines = []
    for src in sorted(lexicon.default):
        lines.append(f"{vocab.surface(src)}\t{DEFAULT_CONDITION}\t{vocab.surface(lexicon.default[src])}")
    for (src, cond) in sorted(lexicon.conditional):
        tgt = lexicon.conditional[(src, cond)]
        lines.append(f"{vocab.surface(src)}\t{vocab.surface(cond)}\t{vocab.surface(tgt)}")
    write_artifact(path, "".join(line + "\n" for line in lines))
