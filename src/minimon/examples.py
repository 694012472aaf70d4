"""The bundled example programs that `builtin:<name>` names: each name's
arity and function.

`programs.make_builtin` imports this module when it first needs a name, so
that `exec:` and table programs never compile it.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import ProgramFailure
from .trace import _INT_RE, InputTuple


def _int(name: str, token: str) -> int:
    if not _INT_RE.fullmatch(token):
        raise ProgramFailure(f"builtin {name!r} expects integer tokens, got {token!r}")
    return int(token)


def _bit(name: str, token: str) -> int:
    if token not in ("0", "1"):
        raise ProgramFailure(f"builtin {name!r} expects tokens 0/1, got {token!r}")
    return int(token)


def _benefits(i: InputTuple) -> str:
    return "true" if _int("benefits", i[0]) < 10000 else "false"


def _dist_benefits(i: InputTuple) -> str:
    s = _int("dist-benefits", i[0])
    a = _int("dist-benefits", i[1])
    return "true" if s < 10000 or a > 60 else "false"


def _xor(i: InputTuple) -> str:
    return str(_bit("xor", i[0]) ^ _bit("xor", i[1]))


def _or(i: InputTuple) -> str:
    return str(_bit("or", i[0]) | _bit("or", i[1]))


def _loyalty(i: InputTuple) -> str:
    n = _int("loyalty", i[0])
    if n <= 9:
        return "0"
    if n <= 19:
        return str(n - 10)
    if n <= 24:
        return str(10 * (n - 10))
    if n <= 29:
        return "150"
    return "500"


BUILTINS: dict[str, tuple[int, Callable[[InputTuple], str]]] = {
    "benefits": (1, _benefits),
    "dist-benefits": (2, _dist_benefits),
    "xor": (2, _xor),
    "or": (2, _or),
    "loyalty": (1, _loyalty),
    "identity": (1, lambda i: i[0]),
}
