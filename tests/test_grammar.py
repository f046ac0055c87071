import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycanon.grammar import (
    InvalidGrammarError,
    expand,
    fibonacci,
    grammar_from_config,
    grammar_from_strings,
    shuffle_preserving_counts,
    symbol_counts,
)
from polycanon.events import CSV_UNSAFE
from polycanon.metrics import information_rate
from polycanon.presets import fibonacci_grammar, load_bundled_config
from polycanon.stochastic import ConfigError


def test_depth4_is_the_canonical_string():
    assert expand(fibonacci_grammar(), 4).text == "ABAABABA"


def test_depth0_is_the_axiom_with_zero_tags():
    s = expand(fibonacci_grammar(), 0)
    assert s.text == "A"
    assert s.generations == (0,)


def test_lengths_follow_fibonacci():
    g = fibonacci_grammar()
    for n in range(13):
        assert len(expand(g, n)) == fibonacci(n + 2)


@pytest.mark.parametrize("depth,counts", [(4, (5, 3)), (5, (8, 5)), (6, (13, 8)), (7, (21, 13))])
def test_symbol_counts(depth, counts):
    c = symbol_counts(expand(fibonacci_grammar(), depth))
    assert (c["A"], c["B"]) == counts


def test_empty_string_counts():
    g = grammar_from_strings({"A": ""}, "A")
    assert symbol_counts(expand(g, 1)) == {}


def test_generation_tags_are_heterogeneous():
    s = expand(fibonacci_grammar(), 4)
    assert s.generations == (0, 1, 1, 1, 2, 1, 2, 2)
    assert max(s.generations) <= s.depth


def test_expand_is_deterministic():
    a = expand(fibonacci_grammar(), 7)
    b = expand(fibonacci_grammar(), 7)
    assert a == b


def test_unknown_axiom_symbol_rejected():
    with pytest.raises(InvalidGrammarError):
        grammar_from_strings({"A": "AB", "B": "A"}, "C", alphabet={"A", "B"})


def test_rule_body_outside_alphabet_rejected():
    with pytest.raises(InvalidGrammarError):
        grammar_from_strings({"A": "AX"}, "A", alphabet={"A"})


def test_symbols_without_rules_self_rewrite():
    g = grammar_from_strings({"A": "AB"}, "A", alphabet={"A", "B"})
    assert expand(g, 2).text == "ABB"


def test_shuffle_preserves_counts_and_is_seeded():
    s = expand(fibonacci_grammar(), 4)
    p1 = shuffle_preserving_counts(s, 7)
    p2 = shuffle_preserving_counts(s, 7)
    assert p1 == p2
    assert symbol_counts(p1) == symbol_counts(s)


def test_shuffle_single_symbol_is_identity():
    s = expand(fibonacci_grammar(), 0)
    assert shuffle_preserving_counts(s, 123).text == "A"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=40), st.integers(0, 2**31))
def test_shuffle_multiset_invariant(symbols, seed):
    g = grammar_from_strings({}, "".join(symbols), alphabet=set("ABCD"))
    s = expand(g, 0)
    assert symbol_counts(shuffle_preserving_counts(s, seed)) == symbol_counts(s)


def test_shuffled_bigram_information_matches_expected_band():
    s = expand(fibonacci_grammar(), 4)
    values = [information_rate(shuffle_preserving_counts(s, k).text) for k in range(1000)]
    assert abs(np.mean(values) - 0.14) < 0.03
    assert 0.10 < np.std(values) < 0.25


def test_grammar_from_config_reads_the_bundled_grammar():
    assert grammar_from_config(load_bundled_config("canonical")["grammar"]) == fibonacci_grammar()


def test_grammar_from_config_rejects_an_unknown_key_by_path():
    cfg = load_bundled_config("canonical")["grammar"]
    cfg["axoim"] = cfg["axiom"]
    with pytest.raises(ConfigError, match=r"unknown config key\(s\): grammar\.axoim$"):
        grammar_from_config(cfg)


@pytest.mark.parametrize("key", ["rules", "axiom"])
def test_grammar_from_config_names_a_missing_key(key):
    cfg = load_bundled_config("canonical")["grammar"]
    del cfg[key]
    with pytest.raises(ConfigError, match=rf"missing config key\(s\): grammar\.{key}$"):
        grammar_from_config(cfg)


@pytest.mark.parametrize("char", CSV_UNSAFE, ids=repr)
def test_a_symbol_a_csv_event_file_cannot_hold_is_rejected(char):
    message = f"grammar: symbol {char!r} cannot be written to a CSV event file"
    for cfg in ({"rules": {"A": "AB", "B": "A" + char}, "axiom": "A"},
                {"rules": {"A": "AB", "B": "A"}, "axiom": char},
                {"rules": {"A": "AB", "B": "A"}, "axiom": "A", "alphabet": ["A", "B", char]}):
        with pytest.raises(ConfigError) as err:
            grammar_from_config(cfg)
        assert str(err.value) == message
