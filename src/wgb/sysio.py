"""Line-oriented system files and plain-text report rendering.

Format:

    p 65521
    vars X1 X2 X3
    weights 3 2 1
    poly X1^2*X2 + 3*X1*X2*X3 - X3^6
    poly ...

`p` is one prime below 2^31 (65521 when the line is left out), `weights`
one positive integer per variable, and `vars` names matching NAME =
[A-Za-z_][A-Za-z_0-9]*.  Each header line appears at most once, and any
run of spaces or tabs separates a directive from its arguments.
Variables must be declared before use; expressions are sums of terms,
each a '*'-separated product of integer constants and powers NAME^INT,
with whitespace between tokens only.  A line off this grammar, a
repeated header line, an undeclared variable or a name declared twice
raises SystemFormatError naming the line.
"""

import re

from .errors import SystemFormatError
from .field import DEFAULT_MODULUS, PrimeField
from .monomial import WeightSystem
from .poly import PolyRing, PolySystem, format_term

# [sign] term (sign term)*, a term factor ('*' factor)*, a factor INT or
# NAME ['^' INT]; whitespace stands only before a token or at the end, so
# that no two whitespace runs can split one run between them
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_FACTOR = rf"\s*(?:[0-9]+|{_NAME}(?:\s*\^\s*[0-9]+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*{_FACTOR})*"
_EXPRESSION = re.compile(rf"(?:\s*[-+])?{_TERM}(?:\s*[-+]{_TERM})*\s*")


def parse_polynomial(expr, ring):
    """Parse a sum of monomial terms into a polynomial of the given ring."""
    if not _EXPRESSION.fullmatch(expr):
        raise SystemFormatError(
            f"malformed polynomial {expr!r}: want [sign] term (sign term)*, "
            "a term INT or NAME[^INT] factors joined by '*'"
        )
    index = {nm: i for i, nm in enumerate(ring.names)}
    acc = {}
    for sign, term in re.findall(r"([-+]?)([^-+]+)", re.sub(r"\s+", "", expr)):
        coeff, exps = (-1 if sign == "-" else 1), [0] * ring.n
        for factor in term.split("*"):
            name, _, e = factor.partition("^")
            if name.isdigit():
                coeff *= int(name)
            elif name in index:
                exps[index[name]] += int(e or 1)
            else:
                raise SystemFormatError(f"undeclared variable {name!r}")
        acc[tuple(exps)] = acc.get(tuple(exps), 0) + coeff
    return ring.from_map(acc)


def format_polynomial(f):
    """Render with balanced signs; parses back to the same polynomial."""
    if f.is_zero:
        return "0"
    p = f.ring.field.p
    parts = []
    for e, c in f.terms:
        if c > p // 2:
            sgn, mag = "-", p - c
        else:
            sgn, mag = "+", c
        parts.append((sgn, format_term(mag, e, f.ring.names)))
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


def _header_tokens(lineno, head, rest, pattern, want):
    """The tokens of a header line after its directive, which must match
    pattern as a whole."""
    if not re.fullmatch(pattern, rest.strip()):
        raise SystemFormatError(f"line {lineno}: {head!r} wants {want}, got {rest.strip()!r}")
    return tuple(rest.split())


def parse_system(text):
    field = None
    names = None
    weights = None
    poly_lines = []
    header_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, *rest = line.split(maxsplit=1)
        rest = "".join(rest)
        if head in ("p", "vars", "weights"):
            if head in header_lines:
                raise SystemFormatError(
                    f"line {lineno}: second {head!r} line (the first is line {header_lines[head]})"
                )
            header_lines[head] = lineno
        if head == "p":
            (p,) = _header_tokens(lineno, head, rest, "[0-9]+", "one prime below 2^31")
            try:
                field = PrimeField(int(p))
            except ValueError as exc:
                raise SystemFormatError(f"line {lineno}: {exc}") from exc
        elif head == "vars":
            names = _header_tokens(
                lineno, head, rest, rf"{_NAME}(\s+{_NAME})*", f"names matching {_NAME}"
            )
            repeated = [nm for i, nm in enumerate(names) if nm in names[:i]]
            if repeated:
                raise SystemFormatError(f"line {lineno}: variable {repeated[0]!r} declared twice")
        elif head == "weights":
            weights = _header_tokens(
                lineno, head, rest, r"0*[1-9][0-9]*(\s+0*[1-9][0-9]*)*", "positive integers"
            )
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
    ring = PolyRing(field or PrimeField(DEFAULT_MODULUS), WeightSystem(weights), names=names)
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
