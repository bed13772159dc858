"""Property tests of the file loaders: any text, and any bytes, read by
`load_lexicon`, `load_corpus` or `load_ngram` gives a valid object or a
`SpecmtError` whose message starts with the path. A lexicon or corpus error
about one row also names its 1-based line, counted at line feeds only.
"""

from __future__ import annotations

import json
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt import SpecmtError, Vocabulary, load_lexicon, load_ngram  # noqa: E402
from specmt.ngram import NgramModel  # noqa: E402
from specmt.vocab import BOS, EOS, PHI, RESERVED_SURFACES, load_corpus  # noqa: E402

VOCAB = Vocabulary(RESERVED_SURFACES + ("a", "b", "A", "B"))
# errors about a lexicon file as a whole; every other one is about a row
LEXICON_FILE_ERRORS = (
    "not UTF-8 at byte", "empty lexicon file", "lexicon has no default rules",
    "condition tokens without a default rule", "ambiguous tokens without a default rule",
)
ROW = re.compile(r"line (\d+): ")

# text near each format, so that many examples get past the first checks
SURFACES = ["a", "b", "A", "B", "z", "*", "#", "é", *RESERVED_SURFACES]
surfaces = st.sampled_from(SURFACES + ["", " "])
words = st.sampled_from(["a", "b", "A", "B"] * 3 + SURFACES)  # mostly in the vocabulary, never blank
rule = st.tuples(words, st.just("*") | words, words).map("\t".join)
rows = st.integers(0, 3).flatmap(lambda k: rule if k else st.lists(surfaces, max_size=4).map("\t".join))
lexicon_text = st.lists(rows, max_size=8).map("\n".join)
corpus_text = st.lists(st.lists(words, max_size=5).map(" ".join), max_size=6).map("\n".join)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | surfaces,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["order", "alpha", "beta", "tokens", "counts"]) | surfaces, inner, max_size=5,
    ),
    max_leaves=12,
)
ngram_text = st.one_of(
    json_values.map(json.dumps),
    st.integers(0, 3).flatmap(lambda order: st.builds(
        lambda tokens, counts: json.dumps(
            {"order": order, "alpha": 0.1, "beta": 0.9, "tokens": tokens, "counts": counts}
        ),
        st.lists(words, max_size=4, unique=True),
        st.lists(st.tuples(st.lists(words, max_size=order), words, st.integers(0, 3)).map(list), max_size=4),
    )),
)


def contents(text):
    """Drawn file contents: the near-format text, any text, or any bytes."""
    return st.one_of(
        text.map(str.encode), st.text(max_size=40).map(str.encode), st.binary(max_size=40),
    )


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders") / "drawn"


def load_or_error(load, path, data, file_errors=None):
    """`load(path)` over `data`, or None after checking the error's message:
    it starts with the path, and unless it is one of `file_errors` it names
    a line (no line is asked of a loader whose `file_errors` is None). The
    line named is the file's line N, `data` split at line feeds: the first
    N lines alone give the same error, and the first N - 1 no error about a
    line."""
    path.write_bytes(data)
    try:
        return load(path)
    except SpecmtError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        rest = message[len(f"{path}: "):]
        row = ROW.match(rest)
        assert file_errors is None or row or rest.startswith(file_errors), message
        if file_errors is not None and row:
            lines = data.split(b"\n")
            n = int(row.group(1))
            assert n <= len(lines), message
            assert _message(load, path, b"\n".join(lines[:n])) == message
            assert not ROW.match(_message(load, path, b"\n".join(lines[:n - 1])).removeprefix(f"{path}: "))
        return None


def _message(load, path, data):
    """The message of the error `load` raises over `data`, or ""."""
    path.write_bytes(data)
    try:
        load(path)
    except SpecmtError as exc:
        return str(exc)
    return ""


@settings(max_examples=150)
@given(contents(lexicon_text))
@example(b"a\t*\tA\nb\t*\t</s>\n")
@example(b"a\t*\t<unk>\nb\ta\t<phi>\n")
@example(b"c\t*\tC\nb\tc\tB\n")
@example(b"a b\t*\tA\n")
@example(b"a\t*\tA\nc\t*\tC D\n")
@example(b"a\t*\tA\x1e\nb\tB\n")  # a record separator ends no line
@example(b"a\t*\tA\rb\t*\t\n")  # nor does a lone carriage return
def test_lexicon_loads_or_names_the_file(path, data):
    loaded = load_or_error(load_lexicon, path, data, LEXICON_FILE_ERRORS)
    if loaded is None:
        return
    vocab, lexicon = loaded
    assert vocab.tokens[:4] == RESERVED_SURFACES
    assert all(surface.split() == [surface] for surface in vocab.tokens)
    assert lexicon.default and set(lexicon.default) <= set(vocab.regular_ids)
    assert lexicon.ambiguous == {src for src, _ in lexicon.conditional} <= set(lexicon.default)
    assert all(cond in lexicon.default for _, cond in lexicon.conditional)
    targets = {*lexicon.default.values(), *lexicon.conditional.values()}
    assert targets < set(range(len(vocab))) and not targets & {BOS, EOS, PHI}


@settings(max_examples=150)
@given(contents(corpus_text))
@example(b"a b\n\n<s> a\n")
@example(b"a z\n")
@example(b"a b\nb\x0ca\nb z\n")  # a form feed ends no line
@example("a\u2028b\r\nb z\n".encode())  # nor does a line separator
def test_corpus_loads_or_names_the_file_and_line(path, data):
    sentences = load_or_error(lambda p: load_corpus(p, VOCAB), path, data, ("not UTF-8 at byte",))
    if sentences is None:
        return
    for sentence in sentences.values():
        assert sentence and all(0 <= token < len(VOCAB) for token in sentence)
        assert not {BOS, EOS, PHI} & set(sentence)


@settings(max_examples=150)
@given(contents(ngram_text))
@example(b'{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a"], "counts": [[[], "a", 2], [[], "</s>", 1]]}')
@example(b'{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "x y"], "counts": [[[], "a", 2]]}')
@example(b"1" * 5000)  # longer than Python's integer-conversion limit
@example(b"[" * 100_000)  # deeper than the JSON decoder recurses
def test_ngram_loads_or_names_the_file(path, data):
    model = load_or_error(load_ngram, path, data)
    if model is None:
        return
    assert isinstance(model, NgramModel) and EOS in model.support
    assert all(surface.split() == [surface] for surface in model.vocabulary.tokens)
