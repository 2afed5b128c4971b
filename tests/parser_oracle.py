"""The hand-written system-file polynomial reader that `sysio.parse_polynomial`
replaced: a tokenizer and a term loop.  On valid expressions the two must
give the same polynomial; on some malformed ones this reader accepts
another polynomial (`X + - Y` reads as X - Y + 1), which the grammar
refuses."""

import re

from wgb.errors import SystemFormatError

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))")


def _tokenize(expr):
    pos = 0
    out = []
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m or m.end() == pos:
            if expr[pos:].strip():
                raise SystemFormatError(f"cannot tokenize near {expr[pos:pos+15]!r}")
            break
        pos = m.end()
        if m.group("int") is not None:
            out.append(("int", int(m.group("int"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def parse_polynomial(expr, ring):
    """Parse a sum of monomial terms into a polynomial of the given ring."""
    toks = _tokenize(expr)
    if not toks:
        raise SystemFormatError("empty polynomial expression")
    name_index = {nm: i for i, nm in enumerate(ring.names)}
    acc = {}
    i = 0
    sign = 1
    # leading sign
    if toks[0] == ("op", "-"):
        sign = -1
        i = 1
    elif toks[0] == ("op", "+"):
        i = 1
    while i < len(toks):
        coeff = sign
        exps = [0] * ring.n
        expect_factor = True
        while i < len(toks):
            kind, val = toks[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise SystemFormatError(f"missing '*' before {val!r}")
            if kind == "int":
                coeff *= val
                i += 1
            elif kind == "name":
                if val not in name_index:
                    raise SystemFormatError(f"undeclared variable {val!r}")
                e = 1
                i += 1
                if i < len(toks) and toks[i] == ("op", "^"):
                    if i + 1 >= len(toks) or toks[i + 1][0] != "int":
                        raise SystemFormatError("expected integer exponent after '^'")
                    e = toks[i + 1][1]
                    i += 2
                exps[name_index[val]] += e
            else:
                raise SystemFormatError(f"unexpected token {val!r}")
            expect_factor = False
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
        if i < len(toks):
            sign = 1 if toks[i] == ("op", "+") else -1
            i += 1
            if i == len(toks):
                raise SystemFormatError("dangling sign at end of expression")
    return ring.from_map(acc)
