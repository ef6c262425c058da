"""Local languages (Section 3.1 of the paper).

A language is *local* when it is recognized by a local DFA (all transitions on a
given letter share their target state), equivalently when it is
*letter-Cartesian* (Definition 3.3 / Proposition 3.5).  The key construction is
the *local overapproximation* (Definition 3.8): the local DFA built from the
start letters, end letters and allowed consecutive letter pairs of the language;
a language is local iff it equals its local overapproximation (Claim 3.11).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import operations
from .automata import EpsilonNFA, State
from .core import Language

_INITIAL_STATE = "q_init"


@dataclass(frozen=True)
class LocalProfile:
    """The data defining the local overapproximation of a language (Definition 3.8).

    Attributes:
        start_letters: letters that can start a word of the language.
        end_letters: letters that can end a word of the language.
        consecutive_pairs: ordered pairs of letters that occur consecutively in some word.
        has_epsilon: whether the empty word belongs to the language.
        alphabet: the alphabet of the language.
    """

    start_letters: frozenset[str]
    end_letters: frozenset[str]
    consecutive_pairs: frozenset[tuple[str, str]]
    has_epsilon: bool
    alphabet: frozenset[str]


def local_profile(language: Language) -> LocalProfile:
    """Compute the start letters, end letters and consecutive pairs of a language.

    The computation works on the trimmed epsilon-NFA: a letter can start a word
    iff some transition on it leaves the epsilon-closure of the initial states,
    and similarly for end letters; a pair ``(a, b)`` can occur consecutively iff
    some ``a``-transition's target has an epsilon-path to the source of some
    ``b``-transition.
    """
    automaton = language.automaton.trim()
    has_epsilon = language.contains("")
    if not automaton.final:
        return LocalProfile(frozenset(), frozenset(), frozenset(), has_epsilon, language.alphabet)

    letter_transitions = list(automaton.letter_transitions)
    initial_closure = automaton.epsilon_closure(automaton.initial)

    # States having an epsilon path to a final state.
    reverse_epsilon: dict[State, list[State]] = {}
    for source, label, target in automaton.transitions:
        if label is None:
            reverse_epsilon.setdefault(target, []).append(source)
    to_final: set[State] = set(automaton.final)
    queue = deque(to_final)
    while queue:
        state = queue.popleft()
        for predecessor in reverse_epsilon.get(state, ()):
            if predecessor not in to_final:
                to_final.add(predecessor)
                queue.append(predecessor)

    start_letters = {
        label for source, label, _ in letter_transitions if label is not None and source in initial_closure
    }
    end_letters = {
        label for _, label, target in letter_transitions if label is not None and target in to_final
    }

    pairs: set[tuple[str, str]] = set()
    sources_of_letter: dict[State, set[str]] = {}
    for source, label, _ in letter_transitions:
        assert label is not None
        sources_of_letter.setdefault(source, set()).add(label)
    for _, label_a, target in letter_transitions:
        assert label_a is not None
        for state in automaton.epsilon_closure([target]):
            for label_b in sources_of_letter.get(state, ()):
                pairs.add((label_a, label_b))
    return LocalProfile(
        frozenset(start_letters),
        frozenset(end_letters),
        frozenset(pairs),
        has_epsilon,
        language.alphabet,
    )


def local_overapproximation(language: Language) -> EpsilonNFA:
    """Return the local overapproximation DFA of the language (Definition 3.8).

    The DFA has one state ``q_a`` per letter ``a`` plus a fresh initial state; by
    construction it is a local DFA and its language contains the input language
    (Claim 3.9).
    """
    profile = local_profile(language)
    states: set[State] = {_INITIAL_STATE}
    final: set[State] = set()
    transitions: set[tuple[State, str, State]] = set()
    if profile.has_epsilon:
        final.add(_INITIAL_STATE)
    for letter in language.alphabet:
        states.add(("q", letter))
    for letter in profile.end_letters:
        final.add(("q", letter))
    for letter in profile.start_letters:
        transitions.add((_INITIAL_STATE, letter, ("q", letter)))
    for letter_a, letter_b in profile.consecutive_pairs:
        transitions.add((("q", letter_a), letter_b, ("q", letter_b)))
    return EpsilonNFA.build(states, [_INITIAL_STATE], final, transitions, language.alphabet).trim()


def is_local(language: Language) -> bool:
    """Return whether the language is local (Claim 3.11 / Proposition 3.12).

    The language is local iff it equals the language of its local
    overapproximation.  This also yields the PTIME locality test for DFAs of
    Proposition 3.12 (and works for any epsilon-NFA input, at the cost of a
    determinization during the equivalence check).  Memoized on the instance
    (:meth:`~repro.languages.core.Language.memo`).
    """
    return language.memo("is_local", _is_local)


def _is_local(language: Language) -> bool:
    approximation = local_overapproximation(language)
    return operations.equivalent(language.automaton, approximation)


def letter_cartesian_violation_finite(
    language: Language, max_length: int | None = None
) -> tuple[str, str, str, str, str] | None:
    """Return a violation ``(x, alpha, beta, gamma, delta)`` of the letter-Cartesian condition.

    The check enumerates the words of a finite language exhaustively and returns
    a tuple witnessing that ``alpha x beta`` and ``gamma x delta`` are words of
    the language but ``alpha x delta`` is not; ``None`` means the (finite)
    language is letter-Cartesian, hence local (Proposition 3.5).

    Args:
        language: the language to check; must be finite unless ``max_length`` is
            given, in which case only words up to that length are considered
            (the result is then only a *candidate* violation / heuristic check).
    """
    if max_length is None:
        words = language.words()
    else:
        words = language.words_up_to_length(max_length)
    word_list = sorted(words)
    for first in word_list:
        for i, letter in enumerate(first):
            alpha, beta = first[:i], first[i + 1 :]
            for second in word_list:
                for j, other in enumerate(second):
                    if other != letter:
                        continue
                    gamma, delta = second[:j], second[j + 1 :]
                    candidate = alpha + letter + delta
                    if max_length is None:
                        in_language = candidate in words
                    else:
                        in_language = language.contains(candidate)
                    if not in_language:
                        return (letter, alpha, beta, gamma, delta)
    return None


def is_letter_cartesian_finite(language: Language, max_length: int | None = None) -> bool:
    """Return whether a finite language satisfies the letter-Cartesian condition."""
    return letter_cartesian_violation_finite(language, max_length=max_length) is None
