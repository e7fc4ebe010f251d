import copy
import gc
import itertools
import pickle
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knowtell import automata, dynamics, langs, oracle
from knowtell.automata import canonical_dfa, compile_regex, renumber
from knowtell.dynamics import _solve_fact, _tell_tail, saturate
from knowtell.langs import (
    ALL_WORDS,
    EMPTY,
    EPSILON,
    LETTER,
    MAX_ORACLE_DEPTH,
    Lang,
    concat,
    cone,
    cone_word,
    contains_cone,
    count_words,
    distinguishing_word,
    enumerate_words,
    from_ast,
    from_regex,
    from_word,
    option,
    plus,
    prefixed,
    solve_arden,
    star,
    subset,
    to_dot,
    union,
    union_tail,
    word_at,
)
from knowtell.regexes import word_regex
from knowtell.sentences import parse_sentence
from knowtell.states import Scenario, common_knowledge, initial_state, knows
from tests.test_regexes import regex_asts


def all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product((1, 2), repeat=n)


def test_membership_examples():
    assert from_regex("1(1|2)*").contains((1, 2, 1))
    assert not from_regex("1(1|2)*").contains(())
    assert from_regex("2+1*").contains((2, 2, 1))


def test_from_regex_examples():
    ones = from_regex("1*")
    assert all(ones.contains((1,) * n) for n in range(5))
    assert not ones.contains((2,))
    assert from_regex("0") == EMPTY
    assert enumerate_words(ALL_WORDS, 2) == frozenset(all_words(2))


def test_own_language_identity():
    # confirmed first by bounded enumeration, then by exact equivalence
    solved = from_regex("1*(12+1*)*")
    direct = from_regex("e|1(1|2)*")
    for word in all_words(8):
        assert solved.contains(word) == direct.contains(word), word
    assert solved == direct


def test_equality_examples():
    assert from_regex("(1|2)*") == from_regex("e|(1|2)(1|2)*")
    assert from_regex("1*") != from_regex("1+")


def test_interning_makes_equal_languages_identical():
    assert from_regex("(1|2)*") is from_regex("e|(1|2)(1|2)*")
    assert from_regex("1*") is not from_regex("1+")


def test_operator_examples():
    assert union(from_regex("1*"), EMPTY) == from_regex("1*")
    two_then_ones = concat(from_regex("2+"), from_regex("1*"))
    assert two_then_ones.contains((2, 1))
    assert not two_then_ones.contains((1, 2))
    assert star(EMPTY) == EPSILON
    assert plus(LETTER[1]) == from_regex("11*")
    assert option(LETTER[2]) == from_regex("e|2")


def test_subset_examples():
    assert subset(from_regex("1*"), ALL_WORDS)
    assert not subset(ALL_WORDS, from_regex("1*"))


def test_enumerate_examples():
    assert enumerate_words(from_regex("2+1*"), 2) == {(2,), (2, 1), (2, 2)}
    for k in range(5):
        assert enumerate_words(EMPTY, k) == frozenset()


def test_solve_arden_examples():
    assert solve_arden(from_regex("1*"), from_regex("12+1*")) == from_regex(
        "1*(12+1*)*"
    )
    assert solve_arden(EPSILON, EMPTY) == EPSILON
    with pytest.raises(ValueError):
        solve_arden(from_regex("1*"), from_regex("2*"))


def test_cone_examples():
    assert cone(()) == ALL_WORDS
    two_cone = cone((2,))
    assert two_cone.contains((2,)) and two_cone.contains((2, 1, 1))
    assert not two_cone.contains((1, 2))


def test_contains_cone_examples():
    assert contains_cone(ALL_WORDS, ()) and contains_cone(ALL_WORDS, (2, 1))
    one_then_any = from_regex("1(1|2)*")
    assert contains_cone(one_then_any, (1,))
    assert contains_cone(one_then_any, (1, 2, 2))
    assert not contains_cone(one_then_any, ())
    assert not contains_cone(from_regex("1*"), (1, 1))
    assert not contains_cone(EMPTY, ())
    with pytest.raises(ValueError):
        contains_cone(ALL_WORDS, (3,))


@pytest.mark.parametrize("walk", [
    ALL_WORDS.dfa.accepts,
    ALL_WORDS.contains,
    lambda word: contains_cone(ALL_WORDS, word),
    lambda word: prefixed(word, EPSILON),
    lambda word: union_tail(EMPTY, word, 1, False),
], ids=["accepts", "contains", "contains_cone", "prefixed", "union_tail"])
def test_word_walks_reject_the_same_bad_letter(walk):
    # True and 2.0 compare equal to a letter, so a cached answer for the
    # int word must not answer for them
    walk((1,))
    walk((1, 2))
    for bad in (3, True, 2.0):
        for word in ((bad,), (1, bad)):
            with pytest.raises(ValueError,
                               match=rf"^letter must be 1 or 2, got {re.escape(repr(bad))}$"):
                walk(word)


def test_prefixed_examples():
    assert prefixed((), LETTER[1]) is LETTER[1]
    assert prefixed((2, 1), EPSILON) is from_regex("21")
    assert prefixed((1, 1), from_regex("2*")) is from_regex("112*")
    assert prefixed((1,), EMPTY) is EMPTY
    assert from_word(()) is EPSILON
    with pytest.raises(ValueError):
        prefixed((0,), ALL_WORDS)


def test_long_words_build_in_linear_time():
    word = (1, 2) * 2500
    lang = from_word(word)
    assert len(lang.dfa.delta) == 5002
    assert lang.contains(word) and not lang.contains(word[1:])
    assert contains_cone(cone(word), word + (2, 2))
    assert prefixed((1,) * 5000, EPSILON).contains((1,) * 5000)


def test_a_long_own_run_into_a_held_cycle_builds_in_linear_time():
    # every state on the run of 2s merges into the held state of 2*: each
    # is a lookup among the held rows, which must not scan them every time
    lang = prefixed((1,) + (2,) * 20000, from_regex("2*"))
    assert union_tail(lang, (), 1, False) is from_regex("12*")


def test_union_tail_examples():
    assert union_tail(EMPTY, (), 1, False) is from_regex("12*")
    assert union_tail(EMPTY, (2, 1), 1, True) is from_regex("21(1|e)2*")
    grown = union_tail(from_regex("1*"), (2,), 2, False)
    assert grown is from_regex("1*|221*")
    # nothing new: the very same object comes back
    assert union_tail(grown, (2,), 2, False) is grown
    assert union_tail(ALL_WORDS, (1, 2), 2, True) is ALL_WORDS
    # the own-mark run from the mark's successor loops through two states,
    # which the tail makes equal: a cycle of two exits with period 1
    assert union_tail(from_regex("1(22)*"), (), 1, False) is from_regex("12*")
    assert union_tail(from_regex("1(22)*1"), (), 1, False) is from_regex("12*|1(22)*1")
    with pytest.raises(ValueError):
        union_tail(EMPTY, (3,), 1, False)
    for bad in (True, 3):
        with pytest.raises(ValueError, match=rf"^mark must be 1 or 2, got {bad!r}$"):
            union_tail(EMPTY, (), bad, False)
    # a truthy "no" once ran the understanding rule, and None the communication one
    for bad in ("no", None, 0, 1):
        with pytest.raises(ValueError,
                           match=rf"^optional must be a bool, got {re.escape(repr(bad))}$"):
            union_tail(EMPTY, (), 1, bad)
    # a list would pass the letter check and then fail in the cache's hash
    with pytest.raises(ValueError, match=r"^word must be a tuple, got \[1\]$"):
        union_tail(EMPTY, [1], 1, False)


def test_to_dot_shape():
    dot = to_dot(from_regex("1*"), name="ones")
    assert dot.startswith("digraph ones {")
    assert "doublecircle" in dot
    assert 'label="1"' in dot or 'label="1,2"' in dot


langs_st = regex_asts.map(langs.from_ast)


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_union_commutative_and_idempotent(a, b):
    assert union(a, b) == union(b, a)
    assert union(a, a) == a


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st, langs_st)
def test_associativity_and_distribution(a, b, c):
    assert union(union(a, b), c) == union(a, union(b, c))
    assert concat(concat(a, b), c) == concat(a, concat(b, c))
    assert concat(a, union(b, c)) == union(concat(a, b), concat(a, c))
    assert concat(union(a, b), c) == union(concat(a, c), concat(b, c))


@settings(max_examples=60, deadline=None)
@given(langs_st)
def test_star_laws(a):
    assert star(star(a)) == star(a)
    assert plus(a) == concat(a, star(a))
    assert option(a) == union(a, EPSILON)
    assert union(a, EMPTY) == a


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_equality_agrees_with_enumeration(a, b):
    if a == b:
        for k in (0, 2, 4, 8):
            assert enumerate_words(a, k) == enumerate_words(b, k)
        assert distinguishing_word(a, b) is None
    else:
        word = distinguishing_word(a, b)
        assert word is not None
        assert a.contains(word) != b.contains(word)


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_subset_is_an_exact_order(a, b):
    assert subset(a, a)
    assert subset(a, union(a, b))
    both = subset(a, b) and subset(b, a)
    assert both == (a == b)


@settings(max_examples=40, deadline=None)
@given(langs_st, st.integers(min_value=0, max_value=6))
def test_enumeration_matches_membership(a, k):
    expected = {w for w in all_words(k) if a.contains(w)}
    assert enumerate_words(a, k) == expected


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_arden_solution_satisfies_its_equation(base, loop):
    assume(not loop.accepts_empty)
    solution = solve_arden(base, loop)
    assert solution == union(base, concat(solution, loop))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from((1, 2)), max_size=5).map(tuple))
def test_from_word_singleton(word):
    lang = from_word(word)
    assert enumerate_words(lang, len(word) + 2) == {word}


def test_cone_word_examples():
    assert cone_word(ALL_WORDS) == ()
    assert cone_word(from_regex("1(1|2)*")) == (1,)
    assert cone_word(union(cone((2, 2)), cone((1, 2, 1)))) == (2, 2)
    assert cone_word(union(cone((2, 1)), cone((1, 2)))) == (1, 2)
    assert cone_word(from_regex("1*|2(1|2)*2")) is None
    assert cone_word(EMPTY) is None


words_st = st.lists(st.sampled_from((1, 2)), max_size=6).map(tuple)


def regex_route(word, lang):
    # word . lang through the regex compiler and the NFA concatenation
    return concat(from_ast(word_regex(word)), lang)


@settings(max_examples=60, deadline=None)
@given(langs_st, words_st)
def test_prefixed_matches_regex_concatenation(lang, word):
    assert prefixed(word, lang) is regex_route(word, lang)
    assert from_word(word) is from_ast(word_regex(word))
    assert cone(word) is regex_route(word, ALL_WORDS)


@settings(max_examples=60, deadline=None)
@given(langs_st, words_st, st.integers(min_value=0, max_value=6))
def test_contains_cone_matches_cone_inclusion(lang, word, cut):
    assert contains_cone(lang, word) == subset(regex_route(word, ALL_WORDS), lang)
    # a language that does hold the cone of a prefix holds the word's cone
    widened = union(lang, regex_route(word[:cut], ALL_WORDS))
    assert contains_cone(widened, word)
    assert subset(regex_route(word, ALL_WORDS), widened)


@settings(max_examples=60, deadline=None)
@given(langs_st, words_st)
def test_cone_word_is_the_first_word_whose_cone_is_held(lang, word):
    for held in (lang, union(lang, cone(word))):
        found = cone_word(held)
        bound = len(word) if found is None else len(found)
        earlier = itertools.takewhile(lambda w: w != found, all_words(bound))
        assert not any(contains_cone(held, w) for w in earlier)
        assert found is None or contains_cone(held, found)
    assert cone_word(union(lang, cone(word))) is not None


def subset_unpruned(a, b):
    # reference inclusion: the plain product walk, every reachable pair expanded
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        s, t = stack.pop()
        if a.dfa.accepting[s] and not b.dfa.accepting[t]:
            return False
        for letter_index in (0, 1):
            pair = (a.dfa.delta[s][letter_index], b.dfa.delta[t][letter_index])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st, words_st)
def test_pruned_subset_matches_unpruned_walk(a, b, word):
    gain = prefixed(word, a)  # shaped like a tell's gain
    for left, right in ((a, b), (b, a), (a, union(a, b)), (gain, b),
                        (gain, union(b, gain)), (gain, union(b, a))):
        assert subset(left, right) == subset_unpruned(left, right)


@st.composite
def minimal_dfas(draw):
    # any minimal acceptor, including ones no run of tells can reach
    n = draw(st.integers(min_value=1, max_value=8))
    state = st.integers(min_value=0, max_value=n - 1)
    delta = draw(st.lists(st.tuples(state, state), min_size=n, max_size=n))
    accepting = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return canonical_dfa(renumber(delta, accepting, 0))


def minimal_dfa_langs():
    return minimal_dfas().map(Lang)


def renumber_by_dict(delta, accepting, start):
    # reference: the breadth-first numbering kept in a dict
    number = {start: 0}
    order = [start]
    rows = []
    for state in order:
        for after in delta[state]:
            if after not in number:
                number[after] = len(order)
                order.append(after)
        rows.append((number[delta[state][0]], number[delta[state][1]]))
    return automata.Dfa(tuple(rows), tuple(accepting[s] for s in order))


@st.composite
def row_tables(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    state = st.integers(min_value=0, max_value=n - 1)
    delta = draw(st.lists(st.tuples(state, state), min_size=n, max_size=n))
    accepting = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return delta, accepting, draw(state)


@settings(max_examples=200, deadline=None)
@given(row_tables())
def test_renumber_matches_dict_numbering(table):
    assert renumber(*table) == renumber_by_dict(*table)


def reachable_states(roots):
    """The stored states the roots reach, in breadth-first order."""
    order = list(dict.fromkeys(roots))
    seen = set(order)
    for state in order:
        for after in langs._delta[state]:
            if after not in seen:
                seen.add(after)
                order.append(after)
    return order


def moore_block_count(states):
    """How many languages the stored states hold, by Moore refinement over
    them; states must be closed under successors."""
    block = {s: langs._accepting[s] for s in states}
    count = len(set(block.values()))
    while True:
        index = {}
        block = {s: index.setdefault((block[s], *(block[t] for t in langs._delta[s])),
                                     len(index))
                 for s in states}
        if len(index) == count:
            return count
        count = len(index)


def stored_by_scan(accepting, row):
    # reference: the stored state with this signature, found by scanning every row
    start = 0
    while True:
        try:
            state = langs._delta.index(row, start)
        except ValueError:
            return None
        if langs._accepting[state] == accepting:
            return state
        start = state + 1


@settings(max_examples=200, deadline=None)
@given(minimal_dfa_langs(),
       st.lists(st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 99),
                          st.booleans()),
                max_size=30))
def test_register_add_finds_what_a_scan_of_every_state_finds(lang, signatures):
    # the store is one register for every language: a lookup of a state's
    # signature finds the one stored state a scan finds, or adds one
    reach = reachable_states([lang.root])
    for accepting, one, two, stored_row in signatures:
        # the row of a state lang reaches, or any successors in the store
        n = len(langs._delta)
        row = langs._delta[reach[one % len(reach)]] if stored_row else (one % n, two % n)
        expected = stored_by_scan(accepting, row)
        state = langs._add(accepting, row)
        assert state == (n if expected is None else expected)
        assert (langs._accepting[state], langs._delta[state]) == (accepting, row)


@settings(max_examples=200, deadline=None)
@given(minimal_dfa_langs(), st.sampled_from((1, 2)), st.integers(0, 99))
def test_a_cycle_of_one_repeated_exit_is_one_state(lang, letter, exit):
    # a cycle of two states with the same exit has period 1: one state
    reach = reachable_states([lang.root])
    exit = reach[exit % len(reach)]
    [state] = langs._add_cycle(letter, [exit])
    n = len(langs._delta)
    assert langs._add_cycle(letter, [exit, exit]) == [state, state]
    assert len(langs._delta) == n
    assert langs._accepting[state] and langs._delta[state] == langs.row_for(letter, state, exit)


@st.composite
def built_langs(draw):
    """Languages, each with its acceptor as the automata layer alone builds
    it: regex compiles and minimal acceptors, then unions, concatenations,
    prefixed words and tells of what was built before."""
    dfas = draw(st.lists(st.one_of(regex_asts.map(compile_regex), minimal_dfas()),
                         min_size=1, max_size=3))
    built = [(Lang(dfa), dfa) for dfa in dfas]
    steps = st.tuples(st.sampled_from("ucpt"), st.integers(0, 99), st.integers(0, 99),
                      words_st, st.sampled_from((1, 2)), st.booleans())
    for op, i, j, word, mark, optional in draw(st.lists(steps, max_size=6)):
        (a, da), (b, db) = built[i % len(built)], built[j % len(built)]
        path = compile_regex(word_regex(word))
        if op == "u":
            built.append((union(a, b), automata.product_dfa(da, db)))
        elif op == "c":
            built.append((concat(a, b), automata.concat_dfa(da, db)))
        elif op == "p":
            built.append((prefixed(word, a), automata.concat_dfa(path, da)))
        else:
            gain = automata.concat_dfa(path, compile_regex(_tell_tail(mark, optional)))
            built.append((union_tail(a, word, mark, optional), automata.product_dfa(da, gain)))
    return built


def reaches_universal(state):
    return any(langs._accepting[s] and langs._delta[s] == (s, s)
               for s in reachable_states([state]))


@settings(max_examples=300, deadline=None)
@given(built_langs(), words_st)
def test_the_store_holds_every_language_once(built, word):
    for lang, dfa in built:
        assert lang.dfa == dfa
        assert canonical_dfa(lang.dfa) == lang.dfa
    for (a, _), (b, _) in itertools.product(built, repeat=2):
        assert (a is b) == (a.dfa == b.dfa)
    # no two states the languages reach are equal, and each knows whether
    # it reaches the universal state
    states = reachable_states([lang.root for lang, _ in built])
    assert moore_block_count(states) == len(states)
    assert all(langs._cone[s] == reaches_universal(s) for s in states)
    for lang, _ in built:
        for answer in (lang.contains(word), lang.accepts_empty, contains_cone(lang, word)):
            assert type(answer) is bool


def test_queries_answer_with_bools(worked_example):
    state_a, state_b = initial_state(1, worked_example), initial_state(2, worked_example)
    for text in ("a", "a.1", "b.2", "c", "a.2.1"):
        sentence = parse_sentence(text)
        assert type(knows(state_a, sentence)) is bool
        assert type(common_knowledge(state_a, state_b, sentence)) is bool


def union_with_gain(lang, word, sender, understanding):
    # the general route: the tell's gain as a language, then inclusion and union
    gain = prefixed(word, from_ast(_tell_tail(sender, understanding)))
    return lang if subset(gain, lang) else union(lang, gain)


@settings(max_examples=200, deadline=None)
@given(st.one_of(langs_st, minimal_dfa_langs()), words_st, words_st,
       st.sampled_from((1, 2)), st.booleans())
def test_union_tail_is_union_with_gain(lang, word, again, sender, understanding):
    grown = union_tail(lang, word, sender, understanding)
    assert grown is union_with_gain(lang, word, sender, understanding)
    # a second tell, from either side, into the grown language
    for second in (1, 2):
        assert (union_tail(grown, again, second, understanding)
                is union_with_gain(grown, again, second, understanding))


def assert_enumeration_ops_agree(lang):
    for d in range(7):
        # all_words lists by (length, word), letter 1 first
        ordered = [w for w in all_words(d) if lang.contains(w)]
        assert enumerate_words(lang, d) == frozenset(ordered)
        n = count_words(lang, d)
        assert n == len(ordered)
        assert [word_at(lang, d, i) for i in range(n)] == ordered
        with pytest.raises(IndexError):
            word_at(lang, d, n)


@settings(max_examples=60, deadline=None)
@given(langs_st)
def test_count_and_unrank_match_enumeration(a):
    assert_enumeration_ops_agree(a)


def test_count_and_unrank_on_fixed_languages():
    saturated = [
        lang
        for in_a, in_b, understanding in itertools.product((False, True), repeat=3)
        for lang in _solve_fact(in_a, in_b, understanding)[:2]
    ]
    for lang in [EMPTY, ALL_WORDS, *saturated]:
        assert_enumeration_ops_agree(lang)
    assert count_words(ALL_WORDS, 6) == 2 ** 7 - 1
    with pytest.raises(ValueError):
        count_words(ALL_WORDS, -1)
    with pytest.raises(IndexError):
        word_at(ALL_WORDS, 2, -1)


@pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=["true", "float", "str"])
def test_counting_refuses_a_length_or_index_that_is_not_an_int(bad):
    # a warm cache once answered 2.0 and True with the entries of 2 and 1,
    # where a cold one died in range() or took True for 1
    lang = from_regex("1*2")
    not_an_int = rf"must be an int, got {re.escape(repr(bad))}$"
    langs._counts.clear()
    langs.enumerate_words.cache_clear()
    for _ in ("cold", "warm"):
        for call in (count_words, enumerate_words, lambda lang, n: word_at(lang, n, 0)):
            with pytest.raises(ValueError, match="^max_len " + not_an_int):
                call(lang, bad)
        with pytest.raises(ValueError, match="^index " + not_an_int):
            word_at(lang, 3, bad)
        for n in range(4):
            enumerate_words(lang, n)  # fills both counting caches
    assert word_at(lang, 3, 1) == (1, 2)


def test_enumeration_depth_is_bounded():
    with pytest.raises(ValueError):
        enumerate_words(ALL_WORDS, MAX_ORACLE_DEPTH + 1)
    with pytest.raises(ValueError):
        enumerate_words(ALL_WORDS, -1)
    assert oracle.MAX_ORACLE_DEPTH is MAX_ORACLE_DEPTH


def test_module_constants_are_canonical():
    constants = [automata.EMPTY_DFA, automata.EPS_DFA, *automata.LETTER_DFA.values(),
                 *(lang.dfa for lang in (EMPTY, EPSILON, ALL_WORDS, *LETTER.values()))]
    for dfa in constants:
        assert canonical_dfa(dfa) == dfa


@settings(max_examples=60, deadline=None)
@given(regex_asts, regex_asts, words_st)
def test_every_operation_returns_canonical_acceptors(r, s, word):
    a, b = from_ast(r), from_ast(s)
    for lang in (a, b, union(a, b), concat(a, b), star(a), prefixed(word, a),
                 union_tail(a, word, 1, True), union_tail(b, word, 2, False)):
        assert canonical_dfa(lang.dfa) == lang.dfa


def language_caches():
    """Every lru cache defined in langs and dynamics; each holds languages."""
    return [value for module in (langs, dynamics) for value in vars(module).values()
            if hasattr(value, "cache_info") and value.__module__ == module.__name__]


def clear_language_caches():
    for cached in language_caches():
        cached.cache_clear()
    gc.collect()


def evicting(step):
    """step, with every language-keyed cache cleared and the freed
    languages collected before each call."""
    def evicting_step(*args):
        clear_language_caches()
        return step(*args)
    return evicting_step


def test_weak_interning_keeps_one_object_per_language():
    lang = from_regex("221(2|e)1*")
    dfa, root = lang.dfa, lang.root
    assert Lang._interned[root] is lang
    del lang
    clear_language_caches()
    assert root not in Lang._interned
    # rebuilt by two routes, it is again one object
    rebuilt = from_regex("221(2|e)1*")
    assert rebuilt.dfa == dfa and Lang._interned[rebuilt.root] is rebuilt
    assert union_tail(EMPTY, (2, 2, 1), 2, True) is rebuilt
    assert copy.copy(rebuilt) is rebuilt
    assert copy.deepcopy(rebuilt) is rebuilt
    assert pickle.loads(pickle.dumps(rebuilt)) is rebuilt
    assert not hasattr(rebuilt, "__dict__")


def test_copies_and_pickles_are_the_interned_language():
    for lang in (EMPTY, ALL_WORDS, from_regex("1*(12+1*)*")):
        assert copy.copy(lang) is lang
        assert copy.deepcopy(lang) is lang
        assert pickle.loads(pickle.dumps(lang)) is lang
    result = saturate(Scenario.make("ab", "a", "b", "understanding"))
    twin = copy.deepcopy(result)
    assert twin == result and twin.state_a.langs["a"] is result.state_a.langs["a"]
    state = initial_state(1, Scenario.make("ab", "a", "", "communication"))
    assert pickle.loads(pickle.dumps(state)) == state


def test_acceptors_compare_and_hash_by_value():
    lang = from_regex("1*(12+1*)*")
    dfa = lang.dfa
    assert lang.dfa is dfa  # built once, then kept
    rebuilt = automata.Dfa(tuple(tuple(list(row)) for row in dfa.delta),
                           tuple(list(dfa.accepting)))
    assert rebuilt == dfa and rebuilt is not dfa and hash(rebuilt) == hash(dfa)
    assert repr(dfa) == f"Dfa(delta={dfa.delta!r}, accepting={dfa.accepting!r})"
    assert all(type(accepts) is bool for accepts in dfa.accepting)
    assert dfa != automata.Dfa(dfa.delta, tuple(not a for a in dfa.accepting))
    for twin in (copy.copy(dfa), copy.deepcopy(dfa), pickle.loads(pickle.dumps(dfa))):
        assert twin == dfa and hash(twin) == hash(dfa) and Lang(twin) is lang
