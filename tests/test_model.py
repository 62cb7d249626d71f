"""Color identifiers, their wire format, and config resolution."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsecolor import (
    ColorFormatError,
    ColorId,
    StreamInputError,
    decode_color,
    encode_color,
    normalize_delta,
    resolve_config,
)
from wsecolor.model import epoch_config

# frozen: powers of four, rounded up
NORMALIZE_CASES = {1: 1, 2: 4, 3: 4, 4: 4, 5: 16, 16: 16, 17: 64, 20: 64, 64: 64, 65: 256, 256: 256}


def test_normalize_delta_frozen():
    for raw, want in NORMALIZE_CASES.items():
        assert normalize_delta(raw) == want


def test_normalize_delta_rejects_nonpositive():
    with pytest.raises(StreamInputError):
        normalize_delta(0)
    with pytest.raises(StreamInputError):
        normalize_delta(-3)


@given(st.integers(min_value=1, max_value=1 << 30))
def test_normalize_delta_properties(raw):
    norm = normalize_delta(raw)
    assert norm >= raw
    # power of four: a single set bit on an even position
    assert norm & (norm - 1) == 0
    assert norm.bit_length() % 2 == 1
    if norm > 1:
        assert norm // 4 < raw


# -- color codec -------------------------------------------------------------


def test_encode_frozen_strings():
    assert encode_color(ColorId(0, 2, "BASE", 5)) == "E0.L2.BASE.5"
    assert encode_color(ColorId(1, 0, "LOW", 7, phase=3, interval=12)) == "E1.L0.P3.I12.LOW.7"
    assert encode_color(ColorId(0, 1, "B", 42, phase=2, d=8, index=17)) == "E0.L1.P2.D8.B17.42"
    assert encode_color(ColorId(0, 0, "A", 0, phase=0, d=4, index=1)) == "E0.L0.P0.D4.A1.0"
    assert encode_color(ColorId(2, 3, "C", 511, phase=1, d=16, index=99)) == "E2.L3.P1.D16.C99.511"


def test_decode_frozen_strings():
    assert decode_color("E0.L2.BASE.5") == ColorId(0, 2, "BASE", 5)
    assert decode_color("E1.L0.P3.I12.LOW.7") == ColorId(1, 0, "LOW", 7, phase=3, interval=12)
    assert decode_color("E0.L1.P2.D8.B17.42") == ColorId(0, 1, "B", 42, phase=2, d=8, index=17)


BAD_TOKENS = [
    "",
    "E0.L0",
    "x0.L0.BASE.1",
    "E0.L0.BASE.1.9",  # trailing field on a base color
    "E0.L0.Q1.I0.LOW.3",  # unknown phase tag
    "E0.L0.P1.D8.D9.3",  # family must be A, B, or C
    "E0.L0.P1.D8.B.3",  # family without an index
    "E0.L0.P1.I2.LOW.x",
    "E-1.L0.BASE.1",
    "E0.L0.P0.I0.LOW.",
]


@pytest.mark.parametrize("token", BAD_TOKENS)
def test_decode_rejects_malformed(token):
    with pytest.raises(ColorFormatError):
        decode_color(token)


def test_decode_error_names_the_field():
    with pytest.raises(ColorFormatError, match="epoch"):
        decode_color("Ex.L0.BASE.1")
    with pytest.raises(ColorFormatError, match="level"):
        decode_color("E0.Lx.BASE.1")


def test_decode_accepts_ascii_digits_only():
    # str.isdigit also accepts these; a color is never read from them
    with pytest.raises(ColorFormatError, match="field 'epoch': expected E<int>"):
        decode_color("E\uff13.L0.BASE.0")  # fullwidth 3
    with pytest.raises(ColorFormatError, match="field 'slot': expected a decimal integer"):
        decode_color("E1.L0.BASE.\u00b2")  # superscript 2


@pytest.mark.parametrize("token", ["E0.L0.P0.D4.A0.1", "E0.L0.P0.D4.C00.1"])
def test_decode_rejects_palette_index_zero(token):
    # the right shape, but palette indices start at 1
    with pytest.raises(ColorFormatError, match="field 'family': expected A/B/C plus a 1-based index"):
        decode_color(token)


nonneg = st.integers(min_value=0, max_value=10_000)


@st.composite
def color_ids(draw):
    which = draw(st.sampled_from(["base", "low", "palette"]))
    epoch, level, slot = draw(nonneg), draw(nonneg), draw(nonneg)
    if which == "base":
        return ColorId(epoch, level, "BASE", slot)
    if which == "low":
        return ColorId(epoch, level, "LOW", slot, phase=draw(nonneg), interval=draw(nonneg))
    return ColorId(
        epoch,
        level,
        draw(st.sampled_from(["A", "B", "C"])),
        slot,
        phase=draw(nonneg),
        d=draw(st.sampled_from([4, 8, 16, 32, 256])),
        index=draw(st.integers(min_value=1, max_value=8192)),
    )


@given(color_ids())
def test_codec_roundtrip(color):
    assert decode_color(encode_color(color)) == color


@given(color_ids(), color_ids())
def test_encoding_is_injective(a, b):
    if a != b:
        assert encode_color(a) != encode_color(b)


@given(color_ids(), st.integers(min_value=0, max_value=2))
def test_pattern_parse_matches_field_parse(color, pad):
    # zero-padded numbers are not canonical but still decode to the same color
    text = re.sub(r"([0-9]+)", lambda m: "0" * pad + m.group(1), encode_color(color))
    twin = decode_color(text)
    assert twin == color and twin is not color
    assert hash(twin) == hash(color)


# the optional fields each kind of color carries; ColorId checks nothing,
# so decode_color must yield only colors that keep these rules
OPTIONAL_FIELDS = ("phase", "interval", "d", "index")
FIELDS_OF_KIND = {"BASE": (), "LOW": ("phase", "interval"), **dict.fromkeys("ABC", ("phase", "d", "index"))}

# every token shape, each number a digit run with leading zeros allowed
_digits = st.from_regex(r"[0-9]{1,4}", fullmatch=True)
color_texts = st.one_of(
    st.builds("E{}.L{}.BASE.{}".format, _digits, _digits, _digits),
    st.builds("E{}.L{}.P{}.I{}.LOW.{}".format, _digits, _digits, _digits, _digits, _digits),
    st.builds(
        "E{}.L{}.P{}.D{}.{}{}.{}".format,
        _digits, _digits, _digits, _digits, st.sampled_from("ABC"), _digits, _digits,
    ),
)


@given(color_texts)
def test_decoded_colors_keep_the_field_rules_of_their_kind(text):
    try:
        color = decode_color(text)
    except ColorFormatError:
        # a family index of zero, however padded, is the one shape rejected
        assert re.fullmatch(r".*\.[ABC]0+\.[0-9]+", text)
        return
    assert color.kind in FIELDS_OF_KIND
    present = tuple(name for name in OPTIONAL_FIELDS if getattr(color, name) is not None)
    assert present == FIELDS_OF_KIND[color.kind]
    if color.index is not None:
        assert color.index >= 1
    ints = [x for x in color if type(x) is int]
    assert len(ints) == 3 + len(present) and min(ints) >= 0


# -- config resolution -------------------------------------------------------


def test_resolve_defaults():
    cfg = resolve_config(n=64, delta=16)
    assert cfg.delta == 16
    assert cfg.declared_delta == 16
    assert cfg.kappa == 32
    assert cfg.interval_size == 64
    assert cfg.max_depth == 64  # no m given
    assert cfg.delta_mode == "known"
    assert cfg.sqrt_delta == 4


def test_resolve_normalizes_delta():
    cfg = resolve_config(n=8, delta=20)
    assert (cfg.delta, cfg.declared_delta) == (64, 20)
    assert cfg.sqrt_delta == 8  # the phase length, in intervals


# frozen: 4 * ceil(log2 max(m, 2)) + 10
@pytest.mark.parametrize("m,want", [(1, 14), (2, 14), (20, 30), (256, 42), (4096, 58)])
def test_max_depth_default_tracks_stream_length(m, want):
    assert resolve_config(n=16, delta=4, m=m).max_depth == want


def test_interval_factor_parsing():
    assert resolve_config(n=100, delta=4, interval_factor=0.5).interval_size == 50
    assert resolve_config(n=100, delta=4, interval_factor="2").interval_size == 200
    # ceil(n * log2 n)
    assert resolve_config(n=8, delta=4, interval_factor="logn").interval_size == 24
    with pytest.raises(StreamInputError):
        resolve_config(n=8, delta=4, interval_factor="fast")
    with pytest.raises(StreamInputError):
        resolve_config(n=8, delta=4, interval_factor=-1)
    # an int beyond float range, as a non-finite float is
    with pytest.raises(StreamInputError, match="^interval factor must give a finite interval size, got inf$"):
        resolve_config(n=8, delta=4, interval_factor=10**400)


def test_explicit_interval_size_wins():
    cfg = resolve_config(n=100, delta=4, interval_size=7, interval_factor=3)
    assert cfg.interval_size == 7


@pytest.mark.parametrize("kappa", [16, 31, 33, 48, 0])
def test_kappa_must_be_power_of_two_at_least_32(kappa):
    with pytest.raises(StreamInputError):
        resolve_config(n=8, delta=4, kappa=kappa)


def test_kappa_64_accepted():
    assert resolve_config(n=8, delta=4, kappa=64).kappa == 64


def test_rejects_bad_shapes():
    with pytest.raises(StreamInputError):
        resolve_config(n=0, delta=4)
    with pytest.raises(StreamInputError):
        resolve_config(n=8, delta=0)
    with pytest.raises(StreamInputError):
        resolve_config(n=8, delta=4, interval_size=0)
    with pytest.raises(StreamInputError):
        resolve_config(n=8, delta=4, max_depth=-1)
    with pytest.raises(StreamInputError):
        resolve_config(n=8, delta=4, delta_mode="guess")


def test_seed_masked_to_64_bits():
    cfg = resolve_config(n=8, delta=4, seed=1 << 70)
    assert cfg.seed == 0
    assert resolve_config(n=8, delta=4, seed=-1).seed == 0xFFFFFFFFFFFFFFFF


def test_config_holds_only_the_values_a_run_chooses():
    cfg = resolve_config(n=8, delta=5, seed=9, m=20, delta_mode="unknown")
    assert list(cfg._fields) == [
        "n", "delta", "declared_delta", "kappa", "interval_size", "max_depth", "seed", "delta_mode",
    ]
    assert (cfg.delta, cfg.declared_delta, cfg.seed) == (16, 5, 9)
    # an epoch runs at its own normalized bound; the declared one stays
    lower = epoch_config(cfg, 5)
    assert (lower.delta, lower.declared_delta) == (64, 5)
    assert lower == cfg._replace(delta=64)
