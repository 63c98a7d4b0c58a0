"""Differential test: the hand-tuned first-char-dispatch scanner must
produce a token stream bit-identical to the single-alternation regex
lexer it replaced, over the full benchmark corpus.

The reference implementation below is a faithful copy of the previous
``lang/lexer.py`` scanner (one big named-group regex, ``lastgroup``
dispatch), kept here as the oracle — the same pattern as the uncached
label-lattice oracle in ``tests/labels/reference.py``.  The only
intentional divergence is non-ASCII input: the old ``name`` alternative
``[^\\W\\d]\\w*`` accepted Unicode identifiers the documented token set
excludes, and the new scanner rejects them (covered separately in
``test_lexer.py``); the corpus here is pure ASCII, so the streams must
match token for token.

It also cross-checks the two position-recovery paths — the scanner's
incremental line tracking against the bisect-based ``Lexer._pos`` —
at every token offset.
"""

import re

import pytest

from repro import progen
from repro.lang.errors import LexError
from repro.lang.lexer import EOF_KIND, KEYWORDS, Lexer
from repro.workloads import handcoded, listcompare, medical, ot, tax, work

# -- reference implementation (the pre-PR5 regex scanner) ---------------------

_REF_OPERATORS = [
    "&&", "||", "==", "!=", "<=", ">=",
    "{", "}", "(", ")", "[", "]", ",", ";", ":", ".", "?",
    "=", "<", ">", "+", "-", "*", "/", "%", "!",
]

_REF_TOKEN_RE = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)+)"
    r"|(?P<badcomment>/\*)"
    r"|(?P<name>[^\W\d]\w*)"
    r"|(?P<num>\d+)"
    r"|(?P<op>" + "|".join(re.escape(op) for op in _REF_OPERATORS) + r")",
    re.DOTALL,
)


def reference_scan(source):
    """The old scanner, returning ``(kind, text, offset)`` triples plus
    the EOF pseudo-token."""
    result = []
    index = 0
    length = len(source)
    while index < length:
        found = _REF_TOKEN_RE.match(source, index)
        if found is None:
            raise LexError(f"unexpected character {source[index]!r}", None)
        group = found.lastgroup
        if group == "skip":
            index = found.end()
            continue
        if group == "badcomment":
            raise LexError("unterminated block comment", None)
        text = found.group()
        if group == "name":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif group == "num":
            kind = "int"
        else:
            kind = text
        result.append((kind, text, index))
        index = found.end()
    result.append((EOF_KIND, "", length))
    return result


# -- corpus -------------------------------------------------------------------

#: Every source the benchmark suite lexes: the full 200-seed progen
#: sweep plus all the Table 1 / handcoded workload programs.
def corpus():
    sources = [progen.generate_program(seed) for seed in range(200)]
    sources += [
        listcompare.source(),
        ot.source(),
        ot.source(rounds=5),
        tax.source(),
        work.source(),
        medical.source(),
        handcoded.source() if hasattr(handcoded, "source") else "",
    ]
    return [s for s in sources if s]


class TestTokenStreamDifferential:
    def test_bit_identical_over_corpus(self):
        for source in corpus():
            lexer = Lexer(source)
            new = lexer.scan()
            old = reference_scan(source)
            assert len(new) == len(old), "token count diverged"
            for token, (kind, text, offset) in zip(new, old):
                assert token.kind == kind
                assert token.text == text
                # Incremental line tracking must agree with the
                # bisect-based recovery at the token's offset.
                assert token.pos == lexer._pos(offset)

    def test_error_cases_agree(self):
        for source in ("/* never ends", "a @ b", "x = 1 & 2;", "a\n/*"):
            with pytest.raises(LexError) as new_err:
                Lexer(source).scan()
            with pytest.raises(LexError) as old_err:
                reference_scan(source)
            assert new_err.value.message == old_err.value.message

    def test_every_operator_token(self):
        source = " ".join(_REF_OPERATORS) + "\n" + "".join(_REF_OPERATORS)
        new = [(t.kind, t.text) for t in Lexer(source).scan()]
        old = [(kind, text) for kind, text, _ in reference_scan(source)]
        assert new == old
