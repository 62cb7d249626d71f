"""Core domain types shared by every stage of the streaming colorer.

Vertices are dense non-negative integers below a declared count.  Colors are
structured names rather than pre-allocated integers: a color is identified by
where it was minted (epoch, recursion level, phase, degree class, palette
family, palette index, slot), and two colors are equal exactly when every
coordinate matches.  Palette disjointness is therefore a construction
property, and a color exists only once an edge actually receives it.  The
engine passes each color as its canonical token string; ColorId is the
parsed form that decode_color returns.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, NoReturn

__all__ = [
    "ColorFormatError",
    "ColorId",
    "Edge",
    "EngineInvariantError",
    "FAMILIES",
    "KIND_BASE",
    "KIND_LOW",
    "Row",
    "RunConfig",
    "StreamInputError",
    "decode_color",
    "encode_color",
    "epoch_config",
    "normalize_delta",
    "resolve_config",
    "token_prefix",
]


class StreamInputError(ValueError):
    """Stream input or configuration violates the declared contract."""


class ColorFormatError(ValueError):
    """A color string cannot be parsed back into a ColorId."""


class EngineInvariantError(RuntimeError):
    """An internal engine invariant broke; this is a bug, not bad input."""


KIND_BASE = "BASE"
KIND_LOW = "LOW"
FAMILIES = ("A", "B", "C")


class Edge(NamedTuple):
    """One arrival event: an endpoint pair plus its position in the stream.

    The seq value is the edge instance's identity; parallel edges share
    endpoints but never a seq.  Deferred edges keep their original seq all
    the way down the recursion, so conservation can be checked on exact
    (u, v, seq) triples.  An Edge is that triple with names: it equals the
    plain tuple, so everything that takes rows takes edges too.
    """

    u: int
    v: int
    seq: int


# an edge as the engines hold and emit it: (u, v, seq), seq its arrival position
Row = tuple[int, int, int]


class ColorId(NamedTuple):
    """A structured color name, as decode_color returns it.

    kind selects the namespace: BASE for the whole-buffer base case, LOW for
    per-interval fresh palettes (the under-threshold bucket, the baseline,
    and the depth-cap fallback), and A/B/C for the three per-class palette
    families.  Fields not used by a kind stay None.  Nothing checks them
    here: decode_color's pattern admits only fields that fit their kind.
    """

    epoch: int
    level: int
    kind: str
    slot: int
    phase: int | None = None
    interval: int | None = None
    d: int | None = None
    index: int | None = None


def token_prefix(epoch: int, level: int, kind: str, *, phase: int | None = None,
                 interval: int | None = None, d: int | None = None, index: int | None = None) -> str:
    """The canonical token of a color of this kind up to its slot, trailing
    dot included: E.L.BASE., E.L.P.I<interval>.LOW. or E.L.P.D.<kind><index>.
    The one renderer of the token grammar, whose parser is decode_color;
    the fields are not checked."""
    if kind == KIND_BASE:
        return f"E{epoch}.L{level}.BASE."
    if kind == KIND_LOW:
        return f"E{epoch}.L{level}.P{phase}.I{interval}.LOW."
    return f"E{epoch}.L{level}.P{phase}.D{d}.{kind}{index}."


def encode_color(color: ColorId) -> str:
    """Render a ColorId as its canonical dotted string."""
    epoch, level, kind, slot, phase, interval, d, index = color
    return token_prefix(epoch, level, kind, phase=phase, interval=interval, d=d, index=index) + str(slot)


_FAMILY_TOKEN = re.compile(r"([ABC])(0*[1-9][0-9]*)\Z")  # palette indices are 1-based


def _plain(token: str, field: str) -> None:
    if not (token.isascii() and token.isdigit()):
        raise ColorFormatError(f"field {field!r}: expected a decimal integer, got {token!r}")


def _tagged(token: str, tag: str, field: str) -> None:
    rest = token[len(tag) :]
    if not (token.startswith(tag) and rest.isascii() and rest.isdigit()):
        raise ColorFormatError(f"field {field!r}: expected {tag}<int>, got {token!r}")


# The shape of every canonical token, and the one parser that returns
# colors.  Text that does not match is walked field by field only to name
# the field that breaks the shape.
_COLOR_TOKEN = re.compile(
    r"E([0-9]+)\.L([0-9]+)\."
    r"(?:BASE\.([0-9]+)|P([0-9]+)\.(?:I([0-9]+)\.LOW|D([0-9]+)\.([ABC])(0*[1-9][0-9]*))\.([0-9]+))"
)


def decode_color(text: str) -> ColorId:
    """Parse a canonical color string; inverse of encode_color."""
    match = _COLOR_TOKEN.fullmatch(text)
    if match is None:
        _reject(text)
    epoch, level, base_slot, phase, interval, d, family, index, slot = match.groups()
    if base_slot is not None:
        return ColorId(int(epoch), int(level), KIND_BASE, int(base_slot))
    if interval is not None:
        return ColorId(int(epoch), int(level), KIND_LOW, int(slot), phase=int(phase), interval=int(interval))
    return ColorId(int(epoch), int(level), family, int(slot), phase=int(phase), d=int(d), index=int(index))


def _reject(text: str) -> NoReturn:
    """Raise a ColorFormatError naming the first field of text that breaks
    the canonical shape.  Digits are ASCII only, as in _COLOR_TOKEN."""
    parts = text.split(".")
    if len(parts) < 4:
        raise ColorFormatError(f"color {text!r}: too few fields")
    _tagged(parts[0], "E", "epoch")
    _tagged(parts[1], "L", "level")
    tag = parts[2]
    if tag == KIND_BASE:
        if len(parts) != 4:
            raise ColorFormatError(f"color {text!r}: base colors have exactly one trailing slot field")
        _plain(parts[3], "slot")
    else:
        if not tag.startswith("P"):
            raise ColorFormatError(f"field 'kind': expected BASE or P<phase>..., got {tag!r}")
        _tagged(tag, "P", "phase")
        if len(parts) != 6:
            raise ColorFormatError(f"color {text!r}: interval and palette colors have six fields")
        selector = parts[3]
        if selector.startswith("I"):
            _tagged(selector, "I", "interval")
            if parts[4] != KIND_LOW:
                raise ColorFormatError(f"field 'kind': expected LOW after an interval field, got {parts[4]!r}")
        elif selector.startswith("D"):
            _tagged(selector, "D", "class")
            if _FAMILY_TOKEN.fullmatch(parts[4]) is None:
                raise ColorFormatError(f"field 'family': expected A/B/C plus a 1-based index, got {parts[4]!r}")
        else:
            raise ColorFormatError(f"field 'scope': expected I<interval> or D<class>, got {selector!r}")
        _plain(parts[5], "slot")
    # every field is well formed, so _COLOR_TOKEN would have matched
    raise ColorFormatError(f"color {text!r}: not a canonical color")


def normalize_delta(raw: int) -> int:
    """Round a degree bound up to the next power of four.

    Keeps the class threshold (the square root) a power of two, so degree
    classes, block widths, and the per-index cap all come out integral.
    """
    if raw < 1:
        raise StreamInputError(f"degree bound must be >= 1, got {raw}")
    value = 1
    while value < raw:
        value <<= 2
    return value


class RunConfig(NamedTuple):
    """Fully resolved run parameters: the values a run is configured with.

    declared_delta is the degree bound as the caller gave it, and a known
    bound is enforced at that value.  delta is that bound rounded up by
    normalize_delta, the value the palette arithmetic runs at.
    """

    n: int
    delta: int
    declared_delta: int
    kappa: int
    interval_size: int
    max_depth: int
    seed: int
    delta_mode: str = "known"

    @property
    def sqrt_delta(self) -> int:
        return math.isqrt(self.delta)


def _resolve_interval_size(n: int, factor: str | float | int | None) -> int:
    if factor is None:
        return n
    if isinstance(factor, str):
        if factor == "logn":
            return max(1, math.ceil(n * math.log2(max(n, 2))))
        try:
            factor = float(factor)
        except ValueError:
            raise StreamInputError(f"interval factor must be 1, 'logn', or a float, got {factor!r}") from None
    if not factor > 0:  # NaN included
        raise StreamInputError(f"interval factor must be positive, got {factor}")
    try:
        factor = float(factor)
    except OverflowError:  # an int beyond float range
        factor = math.inf
    size = n * factor
    if not math.isfinite(size):
        raise StreamInputError(f"interval factor must give a finite interval size, got {factor}")
    return max(1, math.ceil(size))


def resolve_config(
    *,
    n: int,
    delta: int,
    kappa: int = 32,
    seed: int = 0,
    m: int | None = None,
    interval_size: int | None = None,
    interval_factor: str | float | int | None = None,
    max_depth: int | None = None,
    delta_mode: str = "known",
) -> RunConfig:
    """Validate raw parameters and fill in every default."""
    if n < 1:
        raise StreamInputError(f"vertex count must be >= 1, got {n}")
    if kappa < 32 or kappa & (kappa - 1):
        raise StreamInputError(f"kappa must be a power of two >= 32, got {kappa}")
    if delta_mode not in ("known", "unknown"):
        raise StreamInputError(f"delta mode must be 'known' or 'unknown', got {delta_mode!r}")
    norm = normalize_delta(delta)
    if interval_size is None:
        interval_size = _resolve_interval_size(n, interval_factor)
    if interval_size < 1:
        raise StreamInputError(f"interval size must be >= 1, got {interval_size}")
    if max_depth is None:
        max_depth = 4 * (max(m, 2) - 1).bit_length() + 10 if m is not None else 64
    if max_depth < 0:
        raise StreamInputError(f"recursion depth cap must be >= 0, got {max_depth}")
    return RunConfig(
        n=n,
        delta=norm,
        declared_delta=delta,
        kappa=kappa,
        interval_size=interval_size,
        max_depth=max_depth,
        seed=seed & 0xFFFFFFFFFFFFFFFF,
        delta_mode=delta_mode,
    )


def epoch_config(config: RunConfig, epoch: int) -> RunConfig:
    """The configuration an epoch runs under.  A known delta is one epoch
    at config itself; with an unknown delta, epoch e holds the edges that
    arrive while the running max degree is in (2**(e-1), 2**e] and runs at
    the normalized 2**e."""
    if config.delta_mode == "known":
        return config
    return config._replace(delta=normalize_delta(1 << epoch))
