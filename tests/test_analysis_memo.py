"""Per-instance memoization of the dispatch analyses.

A language's class depends only on the query, never on the database, so the
analyses behind it are memoized on the :class:`Language` instance.  These
tests pin that a warm call derives nothing again, and that every memoized
answer equals the one a fresh instance computes.
"""

import pickle
from collections import Counter

import pytest

from repro.exceptions import NotApplicableError, ReproError
from repro.graphdb import generators
from repro.languages import Language, chain, core, dangling, local, read_once
from repro.languages.examples import FIGURE_1_LANGUAGES
from repro.resilience import choose_method, resilience

#: The uncached bodies behind the memoized analyses.
UNCACHED_BODIES = (
    (local, "_is_local"),
    (chain, "_is_bipartite_chain_language"),
    (chain, "_bcl_structure"),
    (dangling, "_one_dangling_decomposition"),
    (core, "_mirror"),
    (read_once, "local_dfa_to_read_once"),
)


@pytest.fixture
def derivations(monkeypatch):
    """Count every call of an uncached analysis body, by body name."""
    counts: Counter = Counter()
    for module, name in UNCACHED_BODIES:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return counts


def _databases():
    return (
        generators.random_labelled_graph(6, 18, "abcdexy", seed=3),
        generators.random_labelled_graph(5, 14, "abcdexy", seed=5).to_bag(2),
    )


class TestWarmCallDerivesNothing:
    @pytest.mark.parametrize(
        "expression, method, cold_bodies",
        [
            ("ax*b", "local-flow", {"_is_local", "local_dfa_to_read_once"}),
            ("ab|bc", "bcl-flow", {"_is_bipartite_chain_language", "_bcl_structure"}),
            ("abc|be", "one-dangling-flow", {"_one_dangling_decomposition", "local_dfa_to_read_once"}),
            ("bx*a|dx", "one-dangling-flow", {"_one_dangling_decomposition", "_mirror"}),
            ("aa", "exact", {"_is_local", "_is_bipartite_chain_language", "_one_dangling_decomposition"}),
        ],
    )
    def test_second_call_is_lookups_only(self, derivations, expression, method, cold_bodies):
        language = Language.from_regex(expression)
        first_database, second_database = _databases()
        cold = resilience(language, first_database)
        assert cold.method == method
        # The counters sit on the bodies the cold call really runs.
        assert cold_bodies <= set(derivations), dict(derivations)

        derivations.clear()
        warm = resilience(language, first_database)
        other = resilience(language, second_database)
        assert dict(derivations) == {}
        assert warm == cold
        assert other.method == method

    def test_mirrored_one_dangling_is_mirrored(self):
        result = resilience("bx*a|dx", _databases()[0])
        assert result.method == "one-dangling-flow"
        assert result.details["mirrored"] is True

    def test_forced_method_still_rejected_when_warm(self, derivations):
        language = Language.from_regex("aa")
        database = _databases()[0]
        for _ in range(2):
            with pytest.raises(ReproError):
                resilience(language, database, method="local-flow")
        # Only the first rejection derived locality.
        assert derivations["_is_local"] == 1


def _analyses(language: Language) -> dict:
    """Every memoized analysis of an infix-free language, by name."""
    answers = {
        "is_local": local.is_local(language),
        "is_bipartite_chain_language": chain.is_bipartite_chain_language(language),
        "one_dangling_decomposition": dangling.one_dangling_decomposition(language),
        "mirror": language.mirror(),
    }
    if answers["is_bipartite_chain_language"]:
        answers["bcl_structure"] = chain.bcl_structure(language)
    else:
        with pytest.raises(NotApplicableError):
            chain.bcl_structure(language)
    if answers["is_local"]:
        answers["read_once_automaton"] = read_once.read_once_automaton(language)
    return answers


def _assert_same_answers(memoized: dict, fresh: dict) -> None:
    assert memoized.keys() == fresh.keys()
    for name, value in memoized.items():
        assert value == fresh[name], name
    # Language equality is semantic; pin the automata too.
    assert memoized["mirror"].automaton == fresh["mirror"].automaton
    decomposition = memoized["one_dangling_decomposition"]
    if decomposition is not None:
        expected = fresh["one_dangling_decomposition"]
        assert decomposition.dangling_word == expected.dangling_word
        assert decomposition.local_part.automaton == expected.local_part.automaton


@pytest.mark.parametrize("example", FIGURE_1_LANGUAGES, ids=lambda example: example.regex)
class TestMemoEqualsFresh:
    def _warm(self, regex: str) -> tuple[Language, dict]:
        language = Language.from_regex(regex)
        choose_method(language)
        infix_free = language.infix_free()
        return language, _analyses(infix_free)

    def test_memo_equals_fresh_instance(self, example):
        language, memoized = self._warm(example.regex)
        # A second round hits the memo: the very same objects come back.
        again = _analyses(language.infix_free())
        assert all(again[name] is value for name, value in memoized.items())
        fresh_language = Language.from_regex(example.regex)
        assert choose_method(language) == choose_method(fresh_language)
        _assert_same_answers(memoized, _analyses(fresh_language.infix_free()))

    def test_pickled_copy_equals_fresh_instance(self, example, derivations):
        language, memoized = self._warm(example.regex)
        copy = pickle.loads(pickle.dumps(language))
        derivations.clear()
        copied = _analyses(copy.infix_free())
        method = choose_method(copy)
        # The memos travelled with the pickle.
        assert dict(derivations) == {}
        assert method == choose_method(Language.from_regex(example.regex))
        _assert_same_answers(copied, _analyses(Language.from_regex(example.regex).infix_free()))

    def test_relabelled_copy_equals_fresh_instance(self, example, derivations):
        language, memoized = self._warm(example.regex)
        copy = language.infix_free().relabelled("renamed")
        derivations.clear()
        copied = _analyses(copy)
        assert dict(derivations) == {}
        _assert_same_answers(copied, _analyses(Language.from_regex(example.regex).infix_free()))


def test_memo_keeps_none_and_retries_exceptions():
    language = Language.from_regex("ab")
    calls = []

    def absent(instance):
        calls.append(instance)
        return None

    assert language.memo("absent", absent) is None
    assert language.memo("absent", absent) is None
    assert len(calls) == 1

    def failing(instance):
        calls.append(instance)
        raise ValueError("not memoized")

    for _ in range(2):
        with pytest.raises(ValueError):
            language.memo("failing", failing)
    assert len(calls) == 3
