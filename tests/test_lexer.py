"""The lexer against its character-at-a-time reference.

:func:`repro.core.lexer.tokenize` is one compiled regular expression;
``tests/lexer_reference.py`` keeps the loop it replaced.  Both must produce
the same tokens — kind, value and position — and the same
:class:`~repro.errors.ParseError` (message and position) on every input: the
texts of every workload (pinned by digest, so the reference cannot drift
either), edge spellings, and arbitrary text.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lexer import END, IDENT, NUMBER, STRING, SYMBOL, tokenize
from repro.errors import ParseError
from repro.workloads import symantec
from repro.workloads.query_spec import TableRef
from tests.lexer_reference import reference_tokenize

#: The seven ``binary_warm_olap`` classes and the five ``serve_dashboard``
#: shapes, as the end-to-end benchmark sends them.
OLAP_TEXTS = [
    "SELECT COUNT(*), SUM(l_extendedprice), MAX(l_quantity) FROM lineitem "
    "WHERE l_discount < 0.05",
    "SELECT l_linenumber, COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "WHERE l_quantity < 40 GROUP BY l_linenumber",
    "SELECT l_suppkey, COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "WHERE l_quantity < 40 GROUP BY l_suppkey",
    "SELECT COUNT(*), SUM(l_extendedprice), MAX(o_totalprice) FROM lineitem l "
    "JOIN orders o ON l.l_orderkey = o.o_orderkey WHERE o.o_orderpriority < 3",
    "SELECT l_extendedprice, l_orderkey FROM lineitem WHERE l_discount < 0.05 "
    "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 100",
    "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderpriority < 3 "
    "ORDER BY o_custkey, o_totalprice DESC",
    "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem "
    "WHERE l_orderkey < 3000",
]
DASHBOARD_TEXTS = [
    "SELECT COUNT(*) AS cnt, SUM(l_extendedprice) AS revenue FROM lineitem "
    "WHERE l_suppkey = ?",
    "SELECT l_extendedprice, l_orderkey FROM lineitem WHERE l_partkey < ? "
    "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 20",
    "SELECT COUNT(*) AS cnt FROM orders_json WHERE o_custkey < ?",
    "SELECT o_orderpriority, COUNT(*) AS cnt, SUM(o_totalprice) AS total "
    "FROM orders WHERE o_custkey < ? GROUP BY o_orderpriority",
    "SELECT COUNT(*) AS cnt, SUM(o.o_totalprice) AS total FROM orders o "
    "JOIN orders_json j ON o.o_orderkey = j.o_orderkey WHERE j.o_custkey = ?",
]

#: The ``raw_feed_arrival`` steps: Symantec queries over one feed's files.
FEED_QUERIES = (
    "Q16", "Q9", "Q17", "Q18", "Q19", "Q20", "Q21",
    "Q10", "Q11", "Q12", "Q13", "Q15", "Q22", "Q36",
)


def _workload_texts() -> list[str]:
    """The 50 Symantec texts at the benchmark's sizes, the 14 feed texts
    under a feed's dataset names, and the OLAP and dashboard texts."""
    mixed = symantec.SymantecFiles("s.json", "c.csv", "m", 8_000, 32_000, 40_000)
    texts = [query.spec.to_text() for query in symantec.symantec_workload(mixed)]
    feed = symantec.SymantecFiles("f.json", "f.csv", "fm", 4_000, 20_000, 10)
    renamed = {"classification": "feed3_csv", "spam_mails": "feed3_json"}
    specs = {query.spec.name: query.spec for query in symantec.symantec_workload(feed)}
    for name in FEED_QUERIES:
        spec = specs[name]
        spec.tables = [TableRef(renamed[table.dataset], table.alias) for table in spec.tables]
        texts.append(spec.to_text())
    return texts + OLAP_TEXTS + DASHBOARD_TEXTS


def _lexed(lexer, text: str):
    """Every token as ``(kind, value, position)``, or the error raised."""
    try:
        return [(token.kind, token.value, token.position) for token in lexer(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)


def test_workload_texts_lex_as_pinned():
    """The 76 workload texts lex to the token lists the character loop
    gave (their digest, taken before the lexer was replaced) — with the
    new lexer and the reference alike."""
    texts = _workload_texts()
    assert len(texts) == 76
    lexed = [_lexed(tokenize, text) for text in texts]
    assert lexed == [_lexed(reference_tokenize, text) for text in texts]
    digest = hashlib.sha256(repr(lexed).encode("utf-8")).hexdigest()
    assert sum(map(len, lexed)) == PINNED_TOKENS
    assert digest == PINNED_DIGEST


#: The token count and the ``sha256`` of the lexed workload texts.
PINNED_TOKENS = 2410
PINNED_DIGEST = "841a3dd3f35fa8401fa91bf05f639d410e9b689a3de4fe283f2807bd0f996188"


#: Edge spellings: text -> its tokens as ``(kind, value)`` (positions are
#: compared with the reference below), or the error message.
EDGE_SPELLINGS = {
    "": [],
    "   \t\n": [],
    "a.b": [(IDENT, "a"), (SYMBOL, "."), (IDENT, "b")],
    "1.5": [(NUMBER, "1.5")],
    ".5": [(NUMBER, ".5")],
    "1.": [(NUMBER, "1"), (SYMBOL, ".")],
    "1.x": [(NUMBER, "1"), (SYMBOL, "."), (IDENT, "x")],
    "1.2.3": [(NUMBER, "1.2"), (NUMBER, ".3")],
    "1..2": [(NUMBER, "1"), (SYMBOL, "."), (NUMBER, ".2")],
    "a.5": [(IDENT, "a"), (NUMBER, ".5")],
    "x1_y2 _z": [(IDENT, "x1_y2"), (IDENT, "_z")],
    "9lives": [(NUMBER, "9"), (IDENT, "lives")],
    "''": [(STRING, "")],
    "'it''s'": [(STRING, "it"), (STRING, "s")],
    "\"a'b\"": [(STRING, "a'b")],
    "'a\nb'": [(STRING, "a\nb")],
    "x <-> y": [(IDENT, "x"), (SYMBOL, "<->"), (IDENT, "y")],
    "x<-y": [(IDENT, "x"), (SYMBOL, "<-"), (IDENT, "y")],
    "<=>=<>!===:=:?": [
        (SYMBOL, "<="), (SYMBOL, ">="), (SYMBOL, "<>"), (SYMBOL, "!="),
        (SYMBOL, "=="), (SYMBOL, ":="), (SYMBOL, ":"), (SYMBOL, "?"),
    ],
    "a-1": [(IDENT, "a"), (SYMBOL, "-"), (NUMBER, "1")],
    ":name": [(SYMBOL, ":"), (IDENT, "name")],
    "café ß": [(IDENT, "café"), (IDENT, "ß")],
    "x\x1cy": [(IDENT, "x"), (IDENT, "y")],  # a separator is whitespace
    "x\u00a0y": [(IDENT, "x"), (IDENT, "y")],  # a no-break space too
    "٣٤": [(NUMBER, "٣٤")],  # Arabic-Indic digits are digits
    "²": [(NUMBER, "²")],  # a digit that is not decimal
    "x²": [(IDENT, "x²")],
    "SELECT 'oops": "unterminated string literal",
    "a \"b": "unterminated string literal",
    "a ! b": "unexpected character '!'",
    "a;": "unexpected character ';'",
    "½": "unexpected character '½'",
    "Ⅻ": "unexpected character 'Ⅻ'",
}


@pytest.mark.parametrize("text", list(EDGE_SPELLINGS))
def test_edge_spellings(text):
    expected = EDGE_SPELLINGS[text]
    lexed = _lexed(tokenize, text)
    assert lexed == _lexed(reference_tokenize, text)
    if isinstance(expected, str):
        with pytest.raises(ParseError, match=expected):
            tokenize(text)
        return
    assert [(kind, value) for kind, value, _ in lexed] == expected + [(END, "")]
    assert lexed[-1][2] == len(text)


def test_every_ascii_character_lexes_like_the_reference():
    for code in range(128):
        for text in (chr(code), f"a{chr(code)}1", f"1{chr(code)}.5"):
            assert _lexed(tokenize, text) == _lexed(reference_tokenize, text), repr(text)


#: Characters that exercise every branch: ASCII, quotes, symbol prefixes and
#: non-ASCII letters, digits, numerics and spaces.
_ALPHABET = st.sampled_from(
    list("ab_Z09 .'\"<>-=!:?(){},*+/%;\t\n") + ["é", "ß", "٣", "²", "½", "\u00a0", "\x1c", "一"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ALPHABET, max_size=24).map("".join))
def test_any_text_lexes_like_the_reference(text):
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=16))
def test_any_unicode_text_lexes_like_the_reference(text):
    assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)
