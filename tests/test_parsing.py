import random

import pytest

from mdlsynth.logic import Literal, Rule, Var, canonicalize, format_rule
from mdlsynth.parsing import (
    ParseError,
    parse_clauses,
    parse_directives,
    parse_examples,
    parse_ground_atom,
    parse_rules,
)


class TestClauses:
    def test_fact(self):
        [(head, body)] = parse_clauses("beats(paper,stone).")
        assert head == Literal("beats", ("paper", "stone"))
        assert body == []

    def test_rule_with_variables(self):
        [(head, body)] = parse_clauses("grand(A,B):- parent(A,C),parent(C,B).")
        assert head.pred == "grand"
        assert len(body) == 2
        assert head.args[0] == body[0].args[0]

    def test_integers_and_lists(self):
        [(head, _)] = parse_clauses("f([1,2,3],-4).")
        assert head.args == ((1, 2, 3), -4)

    def test_empty_list(self):
        [(head, _)] = parse_clauses("f([]).")
        assert head.args == ((),)

    def test_comments_skipped(self):
        clauses = parse_clauses("% a comment\np(a). % trailing\np(b).")
        assert len(clauses) == 2

    def test_rejects_compound_terms(self):
        with pytest.raises(ParseError):
            parse_clauses("f(g(a)).")

    def test_rejects_variable_in_list(self):
        with pytest.raises(ParseError):
            parse_clauses("f([A]).")


def random_name(rng):
    return rng.choice("abpqz") + "".join(rng.choice("az_Z09")
                                        for _ in range(rng.randrange(3)))


def random_value(rng, depth=0):
    """An integer, a name or a list of values, possibly nested or empty."""
    if depth < 3 and rng.random() < 0.3:
        return tuple(random_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    return rng.randint(-20, 20) if rng.random() < 0.5 else random_name(rng)


def random_literal(rng, term):
    return Literal(random_name(rng), tuple(term() for _ in range(rng.randrange(4))))


class TestRoundTrip:
    def test_rule_round_trips_through_canonical_form(self):
        texts = [
            "f(A):- head(A,1),tail(A,B).",
            "evens(A):- head(A,B),tail(A,C),even(B),evens(C).",
            "dropk(A,B,C):- decrement(B,E),tail(A,D),dropk(D,E,C).",
            "p(A):- q(A,A).",
        ]
        for text in texts:
            [r] = parse_rules(text)
            [r2] = parse_rules(format_rule(r))
            assert r == r2

    def test_ground_atom_round_trip(self):
        for text in ("f([1,3])", "g(a,b,-2)", "h([])", "z([1,2,3],[3,2,1])"):
            a = parse_ground_atom(text)
            assert parse_ground_atom(repr(a)) == a

    def test_random_rules(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 4)

            def term():
                return Var(rng.randrange(n)) if rng.random() < 0.5 else random_value(rng)

            body = frozenset(random_literal(rng, term) for _ in range(rng.randrange(4)))
            rule = canonicalize(Rule(random_literal(rng, term), body))
            assert parse_rules(format_rule(rule)) == [rule], format_rule(rule)

    def test_random_ground_atoms(self):
        rng = random.Random(6)
        for _ in range(500):
            atom = random_literal(rng, lambda: random_value(rng))
            assert parse_ground_atom(repr(atom)) == atom, repr(atom)
            assert parse_examples(f"neg({atom!r}).") == ([], [atom])


class TestExamples:
    def test_wrapped(self):
        pos, neg = parse_examples("pos(f([1,2])).\nneg(f([2,1])).")
        assert pos == [parse_ground_atom("f([1,2])")]
        assert neg == [parse_ground_atom("f([2,1])")]

    def test_bare_with_default(self):
        pos, neg = parse_examples("f(a).\nf(b).", default_label="pos")
        assert len(pos) == 2 and not neg

    def test_bare_without_default_rejected(self):
        with pytest.raises(ParseError):
            parse_examples("f(a).")

    def test_nonground_rejected(self):
        with pytest.raises(ParseError):
            parse_examples("pos(f(A)).")


class TestDirectives:
    def test_bias_directives(self):
        ds = parse_directives("""
            head_pred(f,1).
            body_pred(tail,2).
            type(head,(list,int)).
            type(empty,(list,)).
            constant(int,0).
            max_vars(5).
            enable_recursion.
        """)
        d = dict(ds[:3] + ds[3:])
        assert ("head_pred", ("f", 1)) in ds
        assert ("type", ("head", ("list", "int"))) in ds
        assert ("type", ("empty", ("list",))) in ds
        assert ("constant", ("int", 0)) in ds
        assert ("enable_recursion", ()) in ds

    def test_unexpected_token(self):
        with pytest.raises(ParseError):
            parse_directives("max_vars(]).")

    def test_list_argument_reads_as_the_tuple(self):
        assert parse_directives("constant(t,[a,[1,b]]). constant(t,(a,(1,b))).") == [
            ("constant", ("t", ("a", (1, "b"))))] * 2

    @pytest.mark.parametrize("text", ["head_pred(F,1).", "constant(t,[a,B]).",
                                      "type(p,(a,)", "foo().", "p(a,,b)."])
    def test_bad_directive_argument(self, text):
        with pytest.raises(ParseError):
            parse_directives(text)


class TestErrorPositions:
    @pytest.mark.parametrize("read, text, message", [
        (parse_clauses, "p(a).\n" * 500 + "q(b c).",
         "expected ')', got 'c' at line 501, column 5"),
        (parse_clauses, "p(a).\n  q(#).", "unexpected character '#' at line 2, column 5"),
        (parse_clauses, "p(a).\np(a", "unexpected end of input at line 2, column 4"),
        (parse_clauses, "p(a).\nf(A):- g(h(A)).",
         "nested compound term 'h'(...) is not supported at line 2, column 10"),
        (parse_clauses, "p(a).\n% c\n  p(.).", "expected a term, got '.' at line 3, column 5"),
        (parse_examples, "pos(f(a)).\n\npos(f(A)).",
         "variable A where a ground value is expected at line 3, column 7"),
        (parse_examples, "pos(f(a)).\n f(b).",
         "unlabelled example f(b) and no default label at line 2, column 2"),
        (parse_directives, "max_vars(5).\nmax_vars(]).", "expected a term, got ']' at line 2, column 10"),
        (parse_ground_atom, "f(a) g", "trailing input after atom: 'f(a) g' at line 1, column 6"),
    ], ids=["late_line", "character", "end", "nested", "comment", "variable",
            "unlabelled", "directive", "trailing"])
    def test_message_names_line_and_column(self, read, text, message):
        with pytest.raises(ParseError) as err:
            read(text)
        assert str(err.value) == message
