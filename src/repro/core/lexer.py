"""The lexer shared by the SQL and comprehension frontends: one compiled
regular expression matches every token (:func:`tokenize`)."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, NamedTuple

from repro.errors import ParseError

# Token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
SYMBOL = "SYMBOL"
END = "END"

_SYMBOLS = (
    "<->",  # never valid, placeholder to keep ordering logic simple
    "<-",
    "<=",
    ">=",
    "!=",
    "<>",
    "==",
    ":=",
    ":",  # named query parameters (":name"); must follow ":=" for longest match
    "?",  # positional query parameters
    "(",
    ")",
    "{",
    "}",
    ",",
    ".",
    "*",
    "+",
    "-",
    "/",
    "%",
    "=",
    "<",
    ">",
)


class Token(NamedTuple):
    """A single lexical token with its position in the source text."""

    kind: str
    value: str
    position: int

    def matches(self, kind: str, value: str | None = None) -> bool:
        if self.kind != kind:
            return False
        if value is None:
            return True
        if kind == IDENT:
            return self.value.lower() == value.lower()
        return self.value == value


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on bad input.

    One compiled expression (:func:`_scanner`) matches each token with the
    whitespace before it, its group naming the kind; a character no token
    starts with is an error.  The scan stops at the trailing whitespace,
    which holds no token."""
    tokens: list[Token] = []
    for match in _scanner(text).finditer(text, 0, len(text.rstrip())):
        kind = match.lastgroup
        start = match.start(kind)
        if kind == _ERROR:
            char = match.group(kind)
            if char in "'\"":
                raise ParseError("unterminated string literal", start, text)
            raise ParseError(f"unexpected character {char!r}", start, text)
        value = match.group(kind)
        tokens.append(Token(kind, value[1:-1] if kind == STRING else value, start))
    tokens.append(Token(END, "", len(text)))
    return tokens


#: The group of a character no token starts with.
_ERROR = "ERROR"


def _scanner(text: str) -> re.Pattern:
    """The token expression for ``text``.  ``str`` methods classify
    characters — a space is ``isspace()``, a digit ``isdigit()``, an
    identifier starts ``isalpha()`` or ``_`` and goes on ``isalnum()`` or
    ``_`` —, and no regular-expression class says the same for all of
    Unicode; so the ASCII classes are spelled out, and the non-ASCII
    characters of ``text`` are classified by those methods and added."""
    if text.isascii():
        return _compile("", "", "", "")
    extra = sorted({char for char in text if not char.isascii()})

    def chars(test: Callable[[str], bool]) -> str:
        return "".join(re.escape(char) for char in extra if test(char))

    return _compile(
        chars(str.isspace), chars(str.isdigit), chars(str.isalpha), chars(str.isalnum)
    )


@lru_cache(maxsize=64)
def _compile(spaces: str, digits: str, letters: str, alnums: str) -> re.Pattern:
    """The token expression whose classes add the given characters to the
    ASCII ones.  The whitespace before a token is taken whole: the error
    group matches any other character, so it is never handed back.  A number
    is digits with at most one dot followed by a digit, or such a dot and
    its digits; the symbols are tried in :data:`_SYMBOLS` order, so the
    longest wins."""
    digit = f"[0-9{digits}]"
    space = rf"\t\n\r\x0b\x0c\x1c-\x1f {spaces}"
    return re.compile(
        rf"[{space}]*"
        rf"(?:(?P<{STRING}>'[^']*'|\"[^\"]*\")"
        rf"|(?P<{NUMBER}>{digit}+(?:\.{digit}+)?|\.{digit}+)"
        rf"|(?P<{IDENT}>[A-Za-z_{letters}][A-Za-z0-9_{alnums}]*)"
        rf"|(?P<{SYMBOL}>{'|'.join(map(re.escape, _SYMBOLS))})"
        rf"|(?P<{_ERROR}>[^{space}]))"
    )


class TokenStream:
    """A cursor over a token list with convenience accept/expect helpers.

    ``tokens`` is ``tokenize(text)`` when the caller already lexed the text
    (the engine does, to find the query's shape before parsing it)."""

    def __init__(self, text: str, tokens: list[Token] | None = None):
        self.text = text
        self.tokens = tokenize(text) if tokens is None else tokens
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def at_end(self) -> bool:
        return self.current.kind == END

    def peek(self, offset: int = 1) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != END:
            self.index += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.current.matches(kind, value):
            return self.advance()
        return None

    def accept_keyword(self, *keywords: str) -> str | None:
        for keyword in keywords:
            if self.current.matches(IDENT, keyword):
                self.advance()
                return keyword.lower()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            expected = value if value is not None else kind
            raise ParseError(
                f"expected {expected!r} but found {self.current.value!r}",
                self.current.position,
                self.text,
            )
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.current.position, self.text)
