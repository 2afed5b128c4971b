"""Line-oriented system files and plain-text report rendering.

Format:

    p 65521
    vars X1 X2 X3
    weights 3 2 1
    poly X1^2*X2 + 3*X1*X2*X3 - X3^6
    poly ...

Variables must be declared before use; expressions are sums of terms,
each a '*'-separated product of integer constants and powers NAME^INT.
"""

import re

from .field import DEFAULT_MODULUS, PrimeField
from .monomial import WeightSystem
from .poly import PolyRing, PolySystem

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))")


class SystemFormatError(ValueError):
    pass


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


def format_polynomial(f):
    """Render with balanced signs; parses back to the same polynomial."""
    if f.is_zero:
        return "0"
    p = f.ring.field.p
    names = f.ring.names
    parts = []
    for e, c in f.terms:
        if c > p // 2:
            sgn, mag = "-", p - c
        else:
            sgn, mag = "+", c
        factors = []
        for nm, a in zip(names, e):
            if a == 1:
                factors.append(nm)
            elif a > 1:
                factors.append(f"{nm}^{a}")
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        parts.append((sgn, body))
    first_sgn, first_body = parts[0]
    text = ("-" if first_sgn == "-" else "") + first_body
    for sgn, body in parts[1:]:
        text += f" {sgn} {body}"
    return text


def write_system(sys):
    lines = [
        f"p {sys.ring.field.p}",
        "vars " + " ".join(sys.ring.names),
        "weights " + " ".join(str(w) for w in sys.ring.weights),
    ]
    for f in sys.polys:
        lines.append("poly " + format_polynomial(f))
    return "\n".join(lines) + "\n"


def parse_system(text):
    p = None
    names = None
    weights = None
    poly_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "p":
            p = int(rest)
        elif head == "vars":
            names = tuple(rest.split())
        elif head == "weights":
            weights = tuple(int(w) for w in rest.split())
        elif head == "poly":
            poly_lines.append((lineno, rest))
        else:
            raise SystemFormatError(f"line {lineno}: unknown directive {head!r}")
    if names is None or weights is None:
        raise SystemFormatError("missing 'vars' or 'weights' header")
    if len(names) != len(weights):
        raise SystemFormatError(
            f"{len(names)} variables but {len(weights)} weights"
        )
    field = PrimeField(p if p is not None else DEFAULT_MODULUS)
    ring = PolyRing(field, WeightSystem(weights), names=names)
    polys = []
    for lineno, expr in poly_lines:
        try:
            polys.append(parse_polynomial(expr, ring))
        except SystemFormatError as exc:
            raise SystemFormatError(f"line {lineno}: {exc}") from exc
    return PolySystem(ring, polys)


def load_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def render_report(data, indent=0):
    """Nested key-value rendering for report dictionaries."""
    lines = []
    pad = "  " * indent
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(f"{pad}{k}:")
                lines.extend(render_report(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_fmt_scalar(v)}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(render_report(item, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt_scalar(item)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(data)}")
    return lines if indent else "\n".join(lines)


def _is_scalar_list(v):
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) for x in v
    )


def _fmt_scalar(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)
