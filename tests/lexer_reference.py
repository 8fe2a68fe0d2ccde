"""Character-at-a-time lexer: the reference the engine's lexer is checked
against.

This is the loop :func:`repro.core.lexer.tokenize` was first written as: it
classifies one character at a time with ``str`` methods and tries every
symbol with ``str.startswith``.  The engine's lexer is one compiled regular
expression now; ``tests/test_lexer.py`` requires both to produce the same
tokens, positions and errors on every input.
"""

from __future__ import annotations

from repro.core.lexer import END, IDENT, NUMBER, STRING, SYMBOL, Token
from repro.errors import ParseError

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


def reference_tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on bad input:
    one character at a time, trying every symbol in turn."""
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
