"""Vocabulary, token id conventions, and corpus file handling."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# Reserved ids are fixed; everything downstream (traces, lexicons, models)
# relies on this exact assignment.
BOS = 0
EOS = 1
PHI = 2
UNK = 3

BOS_SURFACE = "<s>"
EOS_SURFACE = "</s>"
PHI_SURFACE = "<phi>"
UNK_SURFACE = "<unk>"

RESERVED_SURFACES = (BOS_SURFACE, EOS_SURFACE, PHI_SURFACE, UNK_SURFACE)
FIRST_REGULAR = len(RESERVED_SURFACES)  # the id of the first regular token

# A sentence is a tuple of token ids, free of BOS/EOS/PHI markers.
Sentence = tuple[int, ...]


class SpecmtError(Exception):
    """Base of every error the package raises for bad input or settings; each
    subclass also keeps a builtin base (`ValueError`, or `RuntimeError`)."""


class VocabularyError(SpecmtError, ValueError):
    pass


def read_text(path: str | Path, error: type[SpecmtError]) -> str:
    """The UTF-8 text of the file at `path`, line ends as the file has them;
    a file that is not UTF-8 raises `error` naming the path and the offset
    of the first bad byte."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 at byte {exc.start}") from None


def text_lines(text: str) -> list[str]:
    """The lines of an input file's text: only a line feed ends a line, and
    a carriage return before it is dropped. Line n of a file is item n - 1."""
    return [line.removesuffix("\r") for line in text.split("\n")]


@dataclass(frozen=True)
class Vocabulary:
    """Immutable surface<->id mapping with the four reserved ids up front.

    Ids are dense: reserved ids 0..3, then regular tokens in construction
    order. Files always store surface strings; ids exist in memory only.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tokens[:FIRST_REGULAR] != RESERVED_SURFACES:
            raise VocabularyError("reserved tokens missing or misplaced")
        index = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise VocabularyError(f"duplicate surface token {tok!r}")
            index[tok] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def regular_ids(self) -> range:
        """Ids of non-reserved tokens."""
        return range(FIRST_REGULAR, len(self.tokens))

    def lookup(self, surface: str) -> int:
        """Surface -> id, UNK for unknown surfaces."""
        return self._index.get(surface, UNK)

    def surface(self, token_id: int) -> str:
        return self.tokens[token_id]

    def encode(self, line: str) -> Sentence:
        return tuple(self.lookup(tok) for tok in line.split())

    def decode(self, ids: Iterable[int]) -> str:
        return " ".join([self.tokens[i] for i in ids])


def build_vocabulary(corpus: Iterable[str]) -> Vocabulary:
    """Build a vocabulary from whitespace-tokenized lines.

    Reserved ids come first, regular tokens follow in first-occurrence
    order, so the mapping is deterministic for a given corpus.
    """
    tokens: list[str] = list(RESERVED_SURFACES)
    seen = set(RESERVED_SURFACES)
    empty = True
    for line in corpus:
        empty = False
        for tok in line.split():
            if tok not in seen:
                seen.add(tok)
                tokens.append(tok)
    if empty:
        raise VocabularyError("empty corpus")
    return Vocabulary(tuple(tokens))


def read_corpus_lines(path: str | Path) -> list[str]:
    """Read a corpus file: UTF-8, one sentence per line, blank lines dropped."""
    return [line.strip() for line in text_lines(read_text(path, VocabularyError)) if line.strip()]


def write_artifact(path: str | Path, text: str) -> None:
    """Write `text` as a new file at `path`: create it, or else unlink the old one and create it.

    Every file the package writes goes through here. Truncating or renaming
    over a file that holds data makes ext4 (with its default `auto_da_alloc`)
    flush it, and the next unlink or truncate of it waits for that writeback;
    a new inode costs neither. Artifacts are regenerable, so the crash guard
    that flush gives is not needed.
    """
    try:
        handle = open(path, "xb")
    except FileExistsError:  # a directory stays: unlinking it raises
        Path(path).unlink()
        handle = open(path, "xb")
    with handle:
        handle.write(text.encode("utf-8"))


def write_corpus_lines(path: str | Path, lines: Iterable[str]) -> None:
    write_artifact(path, "".join(line + "\n" for line in lines))


def encode_source(line: str, vocab: Vocabulary) -> Sentence:
    """Encode a source sentence, rejecting reserved markers in the text and
    tokens outside the vocabulary (a literal `<unk>` is in it)."""
    ids = vocab.encode(line)
    if BOS in ids or PHI in ids or EOS in ids:
        raise VocabularyError(f"reserved marker in source sentence: {line!r}")
    if UNK in ids:
        for tok, token_id in zip(line.split(), ids):
            if token_id == UNK and tok != UNK_SURFACE:
                raise VocabularyError(f"unknown token {tok!r}")
    return ids


def load_corpus(path: str | Path, vocab: Vocabulary) -> dict[int, Sentence]:
    """Encode a source corpus file: the sentence of each non-blank line, in
    file order, keyed by its 1-based line number (blank lines counted). An
    error names the file and that line."""
    sentences = {}
    for lineno, line in enumerate(text_lines(read_text(path, VocabularyError)), 1):
        if line.strip():
            try:
                sentences[lineno] = encode_source(line, vocab)
            except VocabularyError as exc:
                raise VocabularyError(f"{path}: line {lineno}: {exc}") from None
    return sentences
