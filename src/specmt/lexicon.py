"""Context-dependent lexical transducer: the deterministic translation rules."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .vocab import (
    BOS_SURFACE, EOS_SURFACE, PHI_SURFACE, RESERVED_SURFACES, Sentence, SpecmtError, Vocabulary,
    read_text, text_lines, write_artifact,
)


class LexiconError(SpecmtError, ValueError):
    pass


@dataclass(frozen=True)
class Lexicon:
    """Monotone token-to-token rules with optional successor conditions.

    The one translation rule: position p renders source token p, by the
    conditional rule of (token p, token p+1) when token p+1 is visible and
    has one, else by `default`, which maps every regular source id to a
    target id. The sources of `conditional` are the `ambiguous` ones, and
    each needs a default rule too.
    """

    default: dict[int, int]
    conditional: dict[tuple[int, int], int]
    ambiguous: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        ambiguous = frozenset(src for src, _ in self.conditional)
        for src in ambiguous:
            if src not in self.default:
                raise LexiconError(f"ambiguous token id {src} lacks a default rule")
        object.__setattr__(self, "ambiguous", ambiguous)

    def translate(self, prefix: Sequence[int], pos: int) -> int:
        """The target of 1-based position `pos` of a visible source prefix.

        A prefix from the engine is its source buffer, valid only for the
        call: code that keeps it copies it with `tuple(prefix)`."""
        token = prefix[pos - 1]
        if pos < len(prefix):
            conditioned = self.conditional.get((token, prefix[pos]))
            if conditioned is not None:
                return conditioned
        try:
            return self.default[token]
        except KeyError:
            raise LexiconError(f"unknown source token id {token}") from None

    def settled(self, prefix: Sequence[int], pos: int) -> bool:
        """Whether `translate(prefix, pos)` holds however the prefix grows:
        the successor is visible, or the token has no conditional rule. As in
        `translate`, the prefix is valid only for the call."""
        return pos < len(prefix) or prefix[pos - 1] not in self.ambiguous

    def translate_sentence(self, source: Sentence) -> Sentence:
        """The translation with every successor visible: the references and the quality upper bound."""
        return tuple(self.translate(source, pos) for pos in range(1, len(source) + 1))


DEFAULT_CONDITION = "*"
# markers a decision may not be: <unk> is a legal target, '*' marks a default rule
RESERVED_TARGETS = (BOS_SURFACE, EOS_SURFACE, PHI_SURFACE, DEFAULT_CONDITION)


def load_lexicon(path: str | Path) -> tuple[Vocabulary, Lexicon]:
    """Load a 3-column TSV: source, condition ('*' for default), target.

    The file fixes the vocabulary: reserved ids first, then every source,
    condition and target surface in file order of first occurrence. Blank
    and '#' lines are skipped. A surface may not be empty or hold
    whitespace. Duplicate keys are rejected rather than
    resolved, a reserved marker may not be a source, a condition, or a
    target other than `<unk>`, and every condition token and every
    ambiguous source needs a default rule. Errors name the file and, for a
    bad row, its line.
    """
    index = {surface: token_id for token_id, surface in enumerate(RESERVED_SURFACES)}
    default: dict[int, int] = {}
    conditional: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text_lines(read_text(path, LexiconError)), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}: line {lineno}"
        parts = line.split("\t")
        if len(parts) != 3:
            raise LexiconError(f"{where}: expected 3 tab-separated columns")
        for surface in parts:  # corpora split on whitespace, so no token can hold any
            if surface.split() != [surface]:
                raise LexiconError(f"{where}: empty surface or one holding whitespace: {surface!r}")
        src_s, cond_s, tgt_s = parts
        if src_s in RESERVED_SURFACES or src_s == DEFAULT_CONDITION:
            raise LexiconError(f"{where}: unknown or reserved source token {src_s!r}")
        if tgt_s in RESERVED_TARGETS:
            raise LexiconError(f"{where}: reserved target token {tgt_s!r}")
        if cond_s in RESERVED_SURFACES:
            raise LexiconError(f"{where}: unknown condition token {cond_s!r}")
        src = index.setdefault(src_s, len(index))  # ids in file order of first occurrence
        cond = None if cond_s == DEFAULT_CONDITION else index.setdefault(cond_s, len(index))
        tgt = index.setdefault(tgt_s, len(index))
        if cond is None:
            if src in default:
                raise LexiconError(f"{where}: duplicate default rule for {src_s!r}")
            default[src] = tgt
        elif (src, cond) in conditional:
            raise LexiconError(f"{where}: duplicate conditional rule for {src_s!r}")
        else:
            conditional[(src, cond)] = tgt
    if len(index) == len(RESERVED_SURFACES):
        raise LexiconError(f"{path}: empty lexicon file")  # no rule rows
    if not default:
        raise LexiconError(f"{path}: lexicon has no default rules")
    vocab = Vocabulary(tuple(index))
    # condition tokens occur in source sentences, so they need rules themselves
    missing = sorted({vocab.surface(c) for (_, c) in conditional if c not in default})
    if missing:
        raise LexiconError(f"{path}: condition tokens without a default rule: {missing}")
    missing = sorted({vocab.surface(src) for (src, _) in conditional if src not in default})
    if missing:
        raise LexiconError(f"{path}: ambiguous tokens without a default rule: {missing}")
    return vocab, Lexicon(default=default, conditional=conditional)


def save_lexicon(path: str | Path, lexicon: Lexicon, vocab: Vocabulary) -> None:
    """Write the TSV form, default rules first, deterministic order."""
    lines = []
    for src in sorted(lexicon.default):
        lines.append(f"{vocab.surface(src)}\t{DEFAULT_CONDITION}\t{vocab.surface(lexicon.default[src])}")
    for (src, cond) in sorted(lexicon.conditional):
        tgt = lexicon.conditional[(src, cond)]
        lines.append(f"{vocab.surface(src)}\t{vocab.surface(cond)}\t{vocab.surface(tgt)}")
    write_artifact(path, "".join(line + "\n" for line in lines))
