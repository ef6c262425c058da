"""One-dangling languages (Definition 7.8 of the paper).

A *one-dangling language* can be written as ``L ∪ {xy}`` where ``L`` is a local
language over some alphabet ``Sigma`` and ``x, y`` are distinct letters with at
least one of them outside ``Sigma``.  Proposition 7.9 shows that resilience is
tractable for one-dangling languages via a rewriting to the local case.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import local, operations
from .automata import EpsilonNFA
from .core import Language


@dataclass(frozen=True)
class OneDanglingDecomposition:
    """A decomposition ``full = local_part ∪ {dangling_word}`` per Definition 7.8.

    Attributes:
        local_part: the local language ``L``.
        dangling_word: the two-letter word ``xy``.
        local_alphabet: the letters actually used by ``L``.
        fresh_letters: the letters of ``xy`` that do not occur in ``L`` (at least one).
    """

    local_part: Language
    dangling_word: str
    local_alphabet: frozenset[str]
    fresh_letters: frozenset[str]

    @property
    def x(self) -> str:
        return self.dangling_word[0]

    @property
    def y(self) -> str:
        return self.dangling_word[1]


def _used_letters(language: Language) -> frozenset[str]:
    """Return the letters that actually occur in some word of the language."""
    trimmed = language.automaton.trim()
    return frozenset(label for _, label, _ in trimmed.letter_transitions if label is not None)


def one_dangling_decomposition(language: Language) -> OneDanglingDecomposition | None:
    """Return a one-dangling decomposition of the language, or ``None`` if there is none.

    The search tries every two-letter word ``xy`` of the language with ``x != y``,
    removes it, and checks that the rest is local and does not use at least one
    of ``x`` and ``y``.  Memoized on the instance
    (:meth:`~repro.languages.core.Language.memo`), so the returned local part
    is one shared language whose own analyses are memoized in turn.
    """
    return language.memo("one_dangling_decomposition", _one_dangling_decomposition)


def _one_dangling_decomposition(language: Language) -> OneDanglingDecomposition | None:
    two_letter_words = sorted(
        word for word in language.words_up_to_length(2) if len(word) == 2 and word[0] != word[1]
    )
    for word in two_letter_words:
        word_automaton = EpsilonNFA.for_word(word, language.alphabet)
        rest_automaton = operations.difference(language.automaton, word_automaton).trim()
        rest = Language(
            rest_automaton.with_alphabet(language.alphabet),
            name=f"({language.name}) \\ {word}" if language.name else None,
        )
        used = _used_letters(rest)
        fresh = frozenset(letter for letter in word if letter not in used)
        if not fresh:
            continue
        if not local.is_local(rest):
            continue
        return OneDanglingDecomposition(
            local_part=rest,
            dangling_word=word,
            local_alphabet=used,
            fresh_letters=fresh,
        )
    return None


def is_one_dangling(language: Language) -> bool:
    """Return whether the language is one-dangling (Definition 7.8)."""
    return one_dangling_decomposition(language) is not None
