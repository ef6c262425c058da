"""Tests for the Proposition 7.9 reduction (one-dangling languages)."""

import pytest

from repro.exceptions import NotApplicableError
from repro.graphdb import BagGraphDatabase, GraphDatabase, generators
from repro.graphdb import database as database_module
from repro.graphdb.index import DatabaseIndex
from repro.languages import Language
from repro.resilience import (
    resilience_exact,
    resilience_one_dangling,
    verify_contingency_set,
)


class TestCorrectness:
    @pytest.mark.parametrize("expression", ["abc|be", "abcd|be", "abcd|ce"])
    def test_agrees_with_exact_on_random_set_databases(self, expression):
        language = Language.from_regex(expression)
        alphabet = "".join(sorted(language.alphabet))
        for seed in range(5):
            database = generators.random_labelled_graph(5, 12, alphabet, seed=seed)
            dangling_result = resilience_one_dangling(language, database)
            exact_result = resilience_exact(language, database)
            assert dangling_result.value == exact_result.value, (expression, seed)
            assert verify_contingency_set(language, database, dangling_result), (expression, seed)

    def test_infinite_one_dangling_language(self):
        # ax*b|xd (newly classified tractable in the journal version).
        language = Language.from_regex("ax*b|xd")
        for seed in range(5):
            database = generators.random_labelled_graph(5, 12, "axbd", seed=seed)
            dangling_result = resilience_one_dangling(language, database)
            exact_result = resilience_exact(language, database)
            assert dangling_result.value == exact_result.value, seed
            assert verify_contingency_set(language, database, dangling_result), seed

    def test_mirrored_case_x_fresh(self):
        # eb|abc: the dangling word is eb with e fresh as the *first* letter, so
        # the algorithm mirrors the instance (Proposition 6.3).
        language = Language.from_words(["abc", "eb"])
        for seed in range(5):
            database = generators.random_labelled_graph(5, 12, "abce", seed=seed)
            dangling_result = resilience_one_dangling(language, database)
            exact_result = resilience_exact(language, database)
            assert dangling_result.value == exact_result.value, seed
            assert verify_contingency_set(language, database, dangling_result), seed

    def test_agrees_with_exact_on_bag_databases(self):
        language = Language.from_regex("abc|be")
        for seed in range(5):
            bag = generators.random_bag_database(5, 12, "abce", seed=seed, max_multiplicity=5)
            dangling_result = resilience_one_dangling(language, bag)
            exact_result = resilience_exact(language, bag)
            assert dangling_result.value == exact_result.value, seed

    def test_rejects_non_one_dangling(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        with pytest.raises(NotApplicableError):
            resilience_one_dangling(Language.from_regex("aa"), database)

    def test_kappa_accounting(self):
        # A single xy walk: resilience 1, removing either fact.
        language = Language.from_regex("abc|be")
        database = GraphDatabase.from_edges([("u", "b", "v"), ("v", "e", "w")])
        result = resilience_one_dangling(language, database)
        assert result.value == 1
        assert verify_contingency_set(language, database, result)

    def test_dangling_word_only_database(self):
        # Many be-walks through a single b-fact.
        language = Language.from_regex("abc|be")
        database = GraphDatabase.from_edges(
            [("u", "b", "v"), ("v", "e", "w1"), ("v", "e", "w2"), ("v", "e", "w3")]
        )
        result = resilience_one_dangling(language, database)
        assert result.value == 1

    def test_query_false_gives_zero(self):
        language = Language.from_regex("abc|be")
        database = GraphDatabase.from_edges([("u", "a", "v"), ("w", "e", "z")])
        result = resilience_one_dangling(language, database)
        assert result.value == 0


class TestWarmCache:
    """A warm call is a lookup, one solve and the map-back (Prop. 7.9 cache)."""

    @staticmethod
    def _database(expression, kind):
        language = Language.from_regex(expression)
        alphabet = "".join(sorted(language.alphabet))
        if kind == "bag":
            return language, generators.random_bag_database(8, 30, alphabet, seed=4)
        return language, generators.random_labelled_graph(8, 30, alphabet, seed=4)

    @staticmethod
    def _copy(database):
        if isinstance(database, GraphDatabase):
            return GraphDatabase(database.facts)
        return BagGraphDatabase(database.multiplicities())

    @pytest.mark.parametrize("kind", ["set", "bag"])
    @pytest.mark.parametrize(
        "expression, mirrored", [("abc|be", False), ("bx*a|dx", True)]
    )
    def test_second_call_builds_no_index_and_matches(self, monkeypatch, expression, mirrored, kind):
        language, database = self._database(expression, kind)
        first = resilience_one_dangling(language, database)
        assert first.details["mirrored"] is mirrored

        builds = []
        original = database_module.DatabaseIndex

        def counting_index(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(database_module, "DatabaseIndex", counting_index)
        second = resilience_one_dangling(language, database)
        assert builds == []
        assert second.value == first.value
        assert second.contingency_set == first.contingency_set
        assert second.details == first.details

        monkeypatch.undo()
        fresh = resilience_one_dangling(language, self._copy(database))
        assert fresh.value == first.value
        assert fresh.contingency_set == first.contingency_set
        assert fresh.details == first.details
        assert verify_contingency_set(language, database, first)

    def test_mirrored_call_does_not_reverse_the_database(self, monkeypatch):
        language, database = self._database("bx*a|dx", "bag")
        resilience_one_dangling(language, database)

        def no_reverse(self):
            raise AssertionError("the warm mirrored path must not reverse the database")

        monkeypatch.setattr(BagGraphDatabase, "reverse", no_reverse)
        assert resilience_one_dangling(language, database).details["mirrored"] is True

    def test_cache_holds_no_rewritten_database(self):
        language, database = self._database("abc|be", "bag")
        resilience_one_dangling(language, database)
        (prepared,) = database.index().substrates["one-dangling"].values()
        held = vars(prepared).values()
        assert not any(isinstance(value, (BagGraphDatabase, DatabaseIndex)) for value in held)
