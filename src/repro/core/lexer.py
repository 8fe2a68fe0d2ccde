"""A small hand-written lexer shared by the SQL and comprehension frontends."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
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
    """Split ``text`` into tokens, raising :class:`ParseError` on bad input."""
    tokens: list[Token] = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'" or ch == '"':
            end = text.find(ch, i + 1)
            if end == -1:
                raise ParseError("unterminated string literal", i, text)
            tokens.append(Token(STRING, text[i + 1:end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < length and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is a path separator, not a decimal.
                    if j + 1 >= length or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token(NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, text[i:j], i))
            i = j
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                tokens.append(Token(SYMBOL, symbol, i))
                i += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i, text)
    tokens.append(Token(END, "", length))
    return tokens


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
