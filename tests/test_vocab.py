from __future__ import annotations

import os

import pytest

from specmt import Vocabulary, VocabularyError, build_vocabulary
from specmt.vocab import (
    BOS,
    EOS,
    PHI,
    UNK,
    encode_source,
    load_corpus,
    read_corpus_lines,
    write_artifact,
    write_corpus_lines,
)


def test_reserved_ids_are_fixed():
    vocab = build_vocabulary(["x"])
    assert (BOS, EOS, PHI, UNK) == (0, 1, 2, 3)
    assert vocab.tokens[:4] == ("<s>", "</s>", "<phi>", "<unk>")


def test_build_vocabulary_first_occurrence_order():
    vocab = build_vocabulary(["a b", "b c"])
    assert vocab.lookup("a") == 4
    assert vocab.lookup("b") == 5
    assert vocab.lookup("c") == 6
    assert len(vocab) == 7


def test_build_vocabulary_empty_corpus():
    with pytest.raises(VocabularyError, match="empty corpus"):
        build_vocabulary([])


def test_build_vocabulary_dedups():
    vocab = build_vocabulary(["x x x"])
    assert len(vocab) == 5


def test_lookup_surface_roundtrip():
    vocab = build_vocabulary(["a b c d e"])
    for token_id in range(len(vocab)):
        assert vocab.lookup(vocab.surface(token_id)) == token_id
    assert vocab.lookup("never-seen") == UNK


def test_duplicate_surface_rejected():
    with pytest.raises(VocabularyError, match="duplicate"):
        Vocabulary(("<s>", "</s>", "<phi>", "<unk>", "a", "a"))


def test_encode_source_rejects_reserved_markers():
    vocab = build_vocabulary(["a"])
    with pytest.raises(VocabularyError, match="reserved"):
        encode_source("a <phi>", vocab)
    with pytest.raises(VocabularyError, match="reserved"):
        encode_source("<s> a", vocab)


def test_corpus_file_roundtrip(tmp_path):
    lines = ["a b c", "c b a", "a a"]
    path = tmp_path / "corpus.txt"
    write_corpus_lines(path, lines)
    assert read_corpus_lines(path) == lines
    vocab = build_vocabulary(lines)
    sentences = load_corpus(path, vocab)
    assert [vocab.decode(s) for s in sentences.values()] == lines


def test_load_corpus_rejects_unknown_token_naming_physical_line(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n\n  \nb <unk> a\nb zzz a\n", encoding="utf-8")
    vocab = build_vocabulary(["a b"])
    with pytest.raises(VocabularyError) as raised:
        load_corpus(path, vocab)
    assert str(raised.value) == f"{path}: line 5: unknown token 'zzz'"
    path.write_text("a b\n\nb <unk> a\n", encoding="utf-8")  # a literal <unk> is in the vocabulary
    assert load_corpus(path, vocab) == {1: (4, 5), 3: (5, UNK, 4)}  # keyed by physical line


def test_load_corpus_names_line_of_reserved_marker(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a\n\na </s>\n", encoding="utf-8")
    with pytest.raises(VocabularyError) as raised:
        load_corpus(path, build_vocabulary(["a"]))
    assert str(raised.value).startswith(f"{path}: line 3: reserved marker")


def test_write_artifact_creates_a_new_file_each_time(tmp_path):
    path = tmp_path / "out.txt"
    write_artifact(path, "first\r\n\u00e9\n")
    assert path.read_bytes() == "first\r\n\u00e9\n".encode("utf-8")  # no newline translation
    os.link(path, tmp_path / "side")
    write_artifact(str(path), "second\n")
    assert path.read_bytes() == b"second\n"
    assert (tmp_path / "side").read_bytes() == "first\r\n\u00e9\n".encode("utf-8")  # the old inode is left alone


def test_write_artifact_over_a_directory_raises(tmp_path):
    (tmp_path / "dir").mkdir()
    with pytest.raises(OSError):
        write_artifact(tmp_path / "dir", "text\n")
    assert (tmp_path / "dir").is_dir()
