"""Chain languages and bipartite chain languages (Section 7.1 of the paper).

A *chain language* (Definition 7.1) is a language in which no word has a
repeated letter and in which the intermediate letters of a word occur in no
other word.  Chain languages are always finite.  A chain language is a
*bipartite chain language* (BCL, Definition 7.2) when its *endpoint graph* --
the graph on letters with an edge between the two endpoint letters of every
word of length at least two -- is bipartite.  Proposition 7.6 shows that
resilience is tractable for BCLs.

This module also implements the explicit word extraction of Lemma 7.7 /
Claim C.5: given an epsilon-NFA promised to recognize a chain language, list its
words explicitly in polynomial time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import NotApplicableError
from . import operations
from .automata import EpsilonNFA, State
from .core import Language
from .words import has_repeated_letter


def is_chain_language(language: Language) -> bool:
    """Return whether the language is a chain language (Definition 7.1)."""
    if not language.is_finite():
        return False
    words = language.words()
    if any(has_repeated_letter(word) for word in words):
        return False
    for word in words:
        if len(word) < 2:
            continue
        middle_letters = set(word[1:-1])
        if not middle_letters:
            continue
        for other in words:
            if other == word:
                continue
            if middle_letters & set(other):
                return False
    return True


def endpoint_graph(language: Language) -> dict[str, set[str]]:
    """Return the endpoint graph of the language as an adjacency dictionary (Definition 7.2)."""
    adjacency: dict[str, set[str]] = {letter: set() for letter in language.alphabet}
    for word in language.words():
        if len(word) >= 2 and word[0] != word[-1]:
            adjacency.setdefault(word[0], set()).add(word[-1])
            adjacency.setdefault(word[-1], set()).add(word[0])
    return adjacency


def bipartition(adjacency: dict[str, set[str]]) -> tuple[set[str], set[str]] | None:
    """Two-colour an undirected graph; return the two colour classes or ``None`` if not bipartite."""
    colour: dict[str, int] = {}
    for start in sorted(adjacency):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in adjacency.get(node, ()):
                if neighbour not in colour:
                    colour[neighbour] = 1 - colour[node]
                    stack.append(neighbour)
                elif colour[neighbour] == colour[node]:
                    return None
    side_zero = {node for node, value in colour.items() if value == 0}
    side_one = {node for node, value in colour.items() if value == 1}
    return side_zero, side_one


def is_bipartite_chain_language(language: Language) -> bool:
    """Return whether the language is a bipartite chain language (Definition 7.2).

    Memoized on the instance (:meth:`~repro.languages.core.Language.memo`).
    """
    return language.memo("is_bipartite_chain_language", _is_bipartite_chain_language)


def _is_bipartite_chain_language(language: Language) -> bool:
    if not is_chain_language(language):
        return False
    return bipartition(endpoint_graph(language)) is not None


@dataclass(frozen=True)
class BclStructure:
    """The data needed by the Proposition 7.6 flow reduction for a BCL.

    Attributes:
        words: the words of the language of length at least two, after the
            preprocessing of Proposition 7.6.
        single_letter_words: letters that form one-letter words of the language
            (their facts must always be removed).
        has_epsilon: whether the empty word is in the language (resilience is
            then infinite whenever the database is non-empty -- actually always).
        source_letters: endpoint letters assigned to the source side.
        target_letters: endpoint letters assigned to the target side.
        forward_words: words whose first letter is on the source side.
        reversed_words: words whose first letter is on the target side.
    """

    words: frozenset[str]
    single_letter_words: frozenset[str]
    has_epsilon: bool
    source_letters: frozenset[str]
    target_letters: frozenset[str]
    forward_words: frozenset[str]
    reversed_words: frozenset[str]

    @property
    def all_length_two_plus(self) -> frozenset[str]:
        return self.forward_words | self.reversed_words


def bcl_structure(language: Language) -> BclStructure:
    """Analyse a BCL and compute the bipartition-driven word orientation of Proposition 7.6.

    Memoized on the instance (:meth:`~repro.languages.core.Language.memo`).

    Raises:
        NotApplicableError: if the language is not a bipartite chain language.
    """
    if not is_bipartite_chain_language(language):
        raise NotApplicableError(f"language {language} is not a bipartite chain language")
    return language.memo("bcl_structure", _bcl_structure)


def _bcl_structure(language: Language) -> BclStructure:
    words = language.words()
    has_epsilon = "" in words
    single_letters = frozenset(word for word in words if len(word) == 1)
    long_words = frozenset(word for word in words if len(word) >= 2)

    adjacency = endpoint_graph(language)
    split = bipartition(adjacency)
    assert split is not None
    # Only *endpoint letters* (first/last letters of words of length >= 2) are
    # attached to the source/target of the flow network; middle letters are
    # isolated in the endpoint graph and must not be attached to either side.
    endpoint_letters = {word[0] for word in long_words} | {word[-1] for word in long_words}
    source_side = split[0] & endpoint_letters
    target_side = split[1] & endpoint_letters

    forward = set()
    backward = set()
    for word in long_words:
        first, last = word[0], word[-1]
        if first in source_side and last in target_side:
            forward.add(word)
        elif first in target_side and last in source_side:
            backward.add(word)
        elif first == last:
            # A word of length >= 2 whose endpoints are equal would contain a
            # repeated letter, impossible in a chain language.
            raise NotApplicableError("chain-language invariant violated")  # pragma: no cover
        else:
            # Both endpoints in the same class: only possible if the word's
            # endpoints are isolated in the endpoint graph, which cannot happen
            # since the word itself creates an edge between them.
            raise NotApplicableError("bipartition does not separate word endpoints")  # pragma: no cover
    return BclStructure(
        words=words,
        single_letter_words=single_letters,
        has_epsilon=has_epsilon,
        source_letters=frozenset(source_side),
        target_letters=frozenset(target_side),
        forward_words=frozenset(forward),
        reversed_words=frozenset(backward),
    )


# --------------------------------------------------------------------------- Lemma 7.7 extraction


def chain_language_words(automaton: EpsilonNFA) -> frozenset[str]:
    """Explicitly list the words of a chain language given by an epsilon-NFA (Lemma 7.7).

    The algorithm follows Appendix C.2: trim the automaton; handle the empty
    word and the single-letter words directly; then, for each ordered pair of
    letters ``(a, b)``, enumerate the words starting with ``a`` and ending with
    ``b`` by depth-first search on the (acyclic, after trimming) middle part.

    The promise that the language is a chain language guarantees termination in
    polynomial time; the function still terminates (by falling back to general
    finite-language enumeration) when the promise is slightly off, and raises
    :class:`~repro.exceptions.NotApplicableError` when the language is infinite.
    """
    trimmed = automaton.trim()
    if not operations.is_finite(trimmed):
        raise NotApplicableError("a chain language must be finite")
    words: set[str] = set()
    closure_initial = trimmed.epsilon_closure(trimmed.initial)
    if closure_initial & trimmed.final:
        words.add("")

    states_to_final: set[State] = _states_with_epsilon_path_to_final(trimmed)

    # Single-letter words: a transition from the initial closure whose target
    # has an epsilon path to a final state.
    for source, label, target in trimmed.letter_transitions:
        assert label is not None
        if source in closure_initial and target in states_to_final:
            words.add(label)

    # Words of length >= 2: for each pair (a, b), restrict to the sub-automaton
    # between the a-transitions leaving the initial closure and the
    # b-transitions entering the final closure.
    letters = sorted(trimmed.alphabet)
    for first in letters:
        first_targets = {
            target
            for source, label, target in trimmed.letter_transitions
            if label == first and source in closure_initial
        }
        if not first_targets:
            continue
        for last in letters:
            last_sources = {
                source
                for source, label, target in trimmed.letter_transitions
                if label == last and target in states_to_final
            }
            if not last_sources:
                continue
            middle = EpsilonNFA.build(
                trimmed.states,
                first_targets,
                last_sources,
                trimmed.transitions,
                trimmed.alphabet,
            )
            for inner in operations.enumerate_finite_language(middle):
                words.add(first + inner + last)
    return frozenset(words)


def _states_with_epsilon_path_to_final(automaton: EpsilonNFA) -> set[State]:
    reverse: dict[State, list[State]] = {}
    for source, label, target in automaton.transitions:
        if label is None:
            reverse.setdefault(target, []).append(source)
    result = set(automaton.final)
    stack = list(result)
    while stack:
        state = stack.pop()
        for predecessor in reverse.get(state, ()):
            if predecessor not in result:
                result.add(predecessor)
                stack.append(predecessor)
    return result
