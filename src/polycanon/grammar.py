"""Deterministic context-free L-systems with per-symbol recursion tags.

Expansion is parallel rewriting: every symbol of the current string is
rewritten each step (symbols without a rule rewrite to themselves). Each
output symbol carries a generation tag: the first symbol of a rule body
inherits its parent's generation, every later body symbol gets parent+1,
so nested rewrites produce heterogeneous depth tags that the mapping layer
can use for depth modulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .events import csv_symbol_problem
from .stochastic import ConfigError, config_keys, config_list, config_value, make_rng


class InvalidGrammarError(ValueError):
    pass


class TaggedSymbol(NamedTuple):
    symbol: str
    generation: int


@dataclass(frozen=True)
class Grammar:
    alphabet: frozenset[str]
    axiom: tuple[str, ...]
    rules: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if problem := csv_symbol_problem(sorted(self.alphabet)):
            raise InvalidGrammarError(problem)
        for sym in self.axiom:
            if sym not in self.alphabet:
                raise InvalidGrammarError(f"axiom symbol {sym!r} not in alphabet")
        for head, body in self.rules.items():
            if head not in self.alphabet:
                raise InvalidGrammarError(f"rule head {head!r} not in alphabet")
            for sym in body:
                if sym not in self.alphabet:
                    raise InvalidGrammarError(f"rule body symbol {sym!r} not in alphabet")


@dataclass(frozen=True)
class SymbolString:
    """Expansion output: ordered tagged symbols plus the depth that produced them."""

    symbols: tuple[TaggedSymbol, ...]
    depth: int

    def __len__(self):
        return len(self.symbols)

    @property
    def text(self) -> str:
        return "".join(t.symbol for t in self.symbols)

    @property
    def generations(self) -> tuple[int, ...]:
        return tuple(t.generation for t in self.symbols)


def grammar_from_strings(rules: dict[str, str], axiom: str, alphabet=None) -> Grammar:
    """Convenience constructor for single-character symbol grammars."""
    if alphabet is None:
        alphabet = set(axiom) | set(rules) | {s for body in rules.values() for s in body}
    return Grammar(
        alphabet=frozenset(alphabet),
        axiom=tuple(axiom),
        rules={head: tuple(body) for head, body in rules.items()},
    )


def grammar_from_config(cfg: dict) -> Grammar:
    """The ``grammar`` section's grammar; a key it does not read, one it
    needs and lacks, a value of the wrong type or an invalid grammar (one
    with a symbol that holds a comma or a line break, say) raises
    ConfigError naming its path, e.g. ``grammar.axoim`` or ``grammar.rules.A``."""
    config_keys(cfg, "grammar", ("rules", "axiom"), ("alphabet",))
    rules = {head: config_value(body, str, f"grammar.rules.{head}")
             for head, body in config_value(cfg["rules"], dict, "grammar.rules").items()}
    alphabet = cfg.get("alphabet")
    if alphabet is not None:
        alphabet = config_list(alphabet, str, "grammar.alphabet")
    try:
        return grammar_from_strings(rules, config_value(cfg["axiom"], str, "grammar.axiom"),
                                    alphabet=alphabet)
    except InvalidGrammarError as err:
        raise ConfigError(f"grammar: {err}") from err


def expand(grammar: Grammar, depth: int) -> SymbolString:
    """Apply parallel rewriting `depth` times to the axiom, tagging generations."""
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    current = [TaggedSymbol(s, 0) for s in grammar.axiom]
    for _ in range(depth):
        rewritten: list[TaggedSymbol] = []
        for sym, gen in current:
            body = grammar.rules.get(sym)
            if body is None:
                rewritten.append(TaggedSymbol(sym, gen))
                continue
            if not body:
                continue  # empty body erases the symbol
            rewritten.append(TaggedSymbol(body[0], gen))
            rewritten.extend(TaggedSymbol(s, gen + 1) for s in body[1:])
        current = rewritten
    return SymbolString(tuple(current), depth)


def shuffle_preserving_counts(s: SymbolString, seed: int) -> SymbolString:
    """Uniformly random permutation of the tagged symbols; multiset unchanged."""
    if len(s) == 0:
        raise ValueError("cannot shuffle an empty symbol string")
    rng = make_rng(seed)
    order = rng.permutation(len(s.symbols))
    return SymbolString(tuple(s.symbols[i] for i in order), s.depth)


def symbol_counts(s: SymbolString) -> dict[str, int]:
    counts: dict[str, int] = {}
    for t in s.symbols:
        counts[t.symbol] = counts.get(t.symbol, 0) + 1
    return counts


def fibonacci(n: int) -> int:
    """Fib(1) = Fib(2) = 1 convention, Fib(0) = 0."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a
