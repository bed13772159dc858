"""Property test of config text: any `key = value` lines, read from a
config file or given as `--set`, give an `ExperimentConfig` whose every
value passes the validators a sweep calls, or one of the errors the CLI
reports as `specmt: <message>`.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt import EngineConfig, ExperimentConfig, load_config  # noqa: E402
from specmt.cli import ERRORS, _config_from_args, build_parser  # noqa: E402
from specmt.ngram import _check_parameters  # noqa: E402

KEYS = [f.name for f in fields(ExperimentConfig)]
JUNK_KEYS = ["foo", "K_GRID", "kgrid", "tau", "order", "", "out", "vocab-size"]

ints = st.integers(min_value=-(10 ** 25), max_value=10 ** 25).map(str)
floats = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "0.5", "1", "2", "0", "-1", "1e-320"]),
)
bool_words = st.sampled_from(["1", "0", "true", "False", "YES", "no", "on", "Off", "ture", "2"])
junk = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=10)
scalars = st.one_of(ints, floats, bool_words, junk, st.just(""))
values = st.one_of(scalars, st.lists(st.one_of(ints, floats, junk), min_size=1, max_size=4).map(",".join))
lines = st.lists(st.tuples(st.one_of(st.sampled_from(KEYS), st.sampled_from(JUNK_KEYS)), values), max_size=4)


def check_config(build):
    """`build()` gives a config that every sweep validator accepts, or a CLI error."""
    try:
        config = build()
    except ERRORS:
        return
    config.policy_grid()
    config.source_spec()
    for tau in config.tau_grid:
        EngineConfig(tau=tau)
    _check_parameters(config.ngram_order, config.alpha, config.beta)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "drawn.cfg"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines)
def test_config_file_gives_a_valid_config_or_a_package_error(config_path, pairs):
    config_path.write_text("".join(f"{key} = {value}\n" for key, value in pairs), encoding="utf-8")
    check_config(lambda: load_config(config_path))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lines)
def test_set_gives_a_valid_config_or_a_package_error(pairs):
    args = build_parser().parse_args(["sweep", *(f"--set={key}={value}" for key, value in pairs)])
    check_config(lambda: _config_from_args(args))
