"""Exact symbolic algebra for polynomials in bosonic creation operators.

States are formal sums of creation-operator monomials over a fixed, finite
set of polarization modes.  Coefficients live in the ring Q(i)[sqrt(2)]
(Gaussian rationals extended by sqrt(2)), so every amplitude produced by a
50/50 beamsplitter network with circular analyzers is represented exactly
and equality is decidable with no tolerance.  A coefficient is stored as
four integer numerators (rational and sqrt(2) parts of its real and
imaginary components) over one positive integer denominator, reduced by a
single gcd, so ring arithmetic is integer arithmetic; ``Fraction`` appears
only at the edges (component properties, rendering, JSON).

Each amplitude additionally carries an integer ``order`` tag counting powers
of the pair-creation coupling gamma.  Orders add under multiplication and
amplitudes of different order never sum: they belong to different
perturbation orders and only acquire a relative scale once a numeric
pair-creation probability is supplied (see the Monte Carlo sampler in
:mod:`ghzsim.sampler`).
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, lcm
from numbers import Rational
from operator import itemgetter
from typing import Any, Callable, Iterable, List, Mapping, Sequence, Tuple, Union


class GhzsimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModeError(GhzsimError):
    """A (beam, polarization) pair outside the modeled setup."""


class OrderMixError(GhzsimError):
    """Amplitudes of different coupling order were combined."""


class IrrationalValueError(GhzsimError):
    """A value expected to be a plain rational has a sqrt(2) or imaginary part."""


# ---------------------------------------------------------------------------
# Coefficient ring Q(i)[sqrt2], tagged with a gamma exponent
# ---------------------------------------------------------------------------

RationalLike = Union[int, Fraction]


_PLAIN = frozenset((int, Fraction))


def exact(values: Iterable[Any]) -> bool:
    """The package's one test of exact values: every value is a
    :class:`numbers.Rational` and none is a ``bool``.  The set of the values'
    types is read once; ints and Fractions skip the abstract-class check."""
    kinds = set(map(type, values))
    return kinds <= _PLAIN or bool not in kinds and all(issubclass(k, Rational) for k in kinds)


def require_type(kind: type, value: Any, message: str) -> None:
    """Raise TypeError with ``message`` unless the type of ``value`` is exactly ``kind``:
    a bool is no int, and 1 is no bool."""
    if type(value) is not kind:
        raise TypeError(f"{message}, got {value!r:.60}")


def over_one_denominator(values: Sequence[Rational]) -> Tuple[List[int], int]:
    """Numerators of ``values`` over the lcm of their denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


IntegerForm = Tuple[Tuple[int, ...], int]  # numerators over one positive denominator


def over_common_denominator(forms: Sequence[IntegerForm]) -> Tuple[List[List[int]], int]:
    """The numerators of each integer form over the lcm of the forms'
    denominators, and that lcm."""
    den = lcm(*(d for _, d in forms))
    return [[n * (den // d) for n in nums] for nums, d in forms], den


class Amplitude:
    """Element ``(re + im*i) + (re_sqrt2 + im_sqrt2*i)*sqrt(2)`` times gamma^order.

    Stored as four integer numerators over one positive integer denominator
    with no common factor (``integers``); zero is ``0/1`` at order 0.  Instances are
    immutable values, compared and hashed by value.  ``Fraction`` appears
    only in the component properties.  A part that fails :func:`exact`
    and an order that is not an ``int`` raise ``TypeError``; so does a
    product with a scalar that fails it.
    """

    __slots__ = ("_num", "_den", "_order")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, re_sqrt2: RationalLike = 0,
                 im_sqrt2: RationalLike = 0, order: int = 0) -> None:
        parts = (re, im, re_sqrt2, im_sqrt2)
        if not exact(parts):
            raise TypeError(f"amplitude parts must be exact rationals, got {parts!r}")
        require_type(int, order, "gamma order must be an int")
        if order < 0:
            raise OrderMixError("gamma order must be non-negative")
        nums, den = over_one_denominator(parts)
        value = _new(*nums, den, order)
        self._num, self._den, self._order = value._num, value._den, value._order

    re = property(lambda self: Fraction(self._num[0], self._den))
    im = property(lambda self: Fraction(self._num[1], self._den))
    re_sqrt2 = property(lambda self: Fraction(self._num[2], self._den))
    im_sqrt2 = property(lambda self: Fraction(self._num[3], self._den))
    order = property(lambda self: self._order)
    integers = property(lambda self: (self._num, self._den))  # ((re, im, re√2, im√2), den)

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Amplitude):
            return NotImplemented
        return (self._num, self._den, self._order) == (other._num, other._den, other._order)

    def __hash__(self) -> int:
        return hash((self._num, self._den, self._order))

    def __repr__(self) -> str:
        return f"Amplitude({render_amplitude(self)}, order={self._order})"

    def __add__(self, other: "Amplitude") -> "Amplitude":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._order != other._order:
            raise OrderMixError(f"cannot add amplitudes of order {self._order} and {other._order}")
        (a1, b1, c1, e1), s1 = self._num, self._den
        (a2, b2, c2, e2), s2 = other._num, other._den
        return _new(
            a1 * s2 + a2 * s1, b1 * s2 + b2 * s1, c1 * s2 + c2 * s1, e1 * s2 + e2 * s1,
            s1 * s2, self._order,
        )

    def __neg__(self) -> "Amplitude":
        a, b, c, e = self._num
        return _new(-a, -b, -c, -e, self._den, self._order)

    def __sub__(self, other: "Amplitude") -> "Amplitude":
        return self + (-other)

    def __mul__(self, other: Union["Amplitude", RationalLike]) -> "Amplitude":
        a1, b1, c1, e1 = self._num
        if isinstance(other, Amplitude):
            # (p1 + q1 s)(p2 + q2 s) = (p1 p2 + 2 q1 q2) + (p1 q2 + q1 p2) s with
            # s = sqrt2, p = re + im*i and q = re_sqrt2 + im_sqrt2*i
            a2, b2, c2, e2 = other._num
            return _new(
                a1 * a2 - b1 * b2 + 2 * (c1 * c2 - e1 * e2),
                a1 * b2 + b1 * a2 + 2 * (c1 * e2 + e1 * c2),
                a1 * c2 - b1 * e2 + c1 * a2 - e1 * b2,
                a1 * e2 + b1 * c2 + c1 * b2 + e1 * a2,
                self._den * other._den,
                self._order + other._order,
            )
        if not exact((other,)):
            return NotImplemented
        n = other.numerator
        return _new(a1 * n, b1 * n, c1 * n, e1 * n, self._den * other.denominator, self._order)

    __rmul__ = __mul__

    def conjugate(self) -> "Amplitude":
        a, b, c, e = self._num
        return _new(a, -b, c, -e, self._den, self._order)

    def abs_squared(self) -> "Amplitude":
        """|value|^2 with gamma normalized to 1 (order dropped)."""
        a, b, c, e = self._num
        return _new(a * a + b * b + 2 * (c * c + e * e), 0, 2 * (a * c + b * e), 0,
                    self._den * self._den, 0)

    def inverse(self) -> "Amplitude":
        if self.is_zero:
            raise ZeroDivisionError("zero amplitude has no inverse")
        if self._order:
            raise OrderMixError("only order-0 amplitudes are invertible")
        # With P = a + b i and Q = c + e i, the value is (P + Q s)/den and
        # 1/(P + Q s) = (P - Q s)(nr - ni i)/(nr^2 + ni^2), where
        # nr + ni i = P^2 - 2 Q^2 is nonzero because sqrt2 is not in Q(i).
        (a, b, c, e), den = self._num, self._den
        nr = a * a - b * b - 2 * (c * c - e * e)
        ni = 2 * a * b - 4 * c * e
        return _new(
            den * (a * nr + b * ni), den * (b * nr - a * ni),
            -den * (c * nr + e * ni), -den * (e * nr - c * ni),
            nr * nr + ni * ni, 0,
        )

    def __truediv__(self, other: "Amplitude") -> "Amplitude":
        return self * other.inverse()

    def __str__(self) -> str:
        return render_amplitude(self)


def _new(a: int, b: int, c: int, e: int, den: int, order: int) -> Amplitude:
    """The value ``(a, b, c, e)/den`` (den > 0) reduced by one gcd."""
    g = gcd(a, b, c, e, den)
    if g != 1:
        a, b, c, e, den = a // g, b // g, c // g, e // g, den // g
    amp = object.__new__(Amplitude)
    amp._num, amp._den = (a, b, c, e), den
    # canonical zero: a vanishing value carries order 0
    amp._order = order if (a or b or c or e) else 0
    return amp


ZERO = Amplitude()
ONE = Amplitude(1)
I_UNIT = Amplitude(0, 1)
SQRT2 = Amplitude(0, 0, 1)
INV_SQRT2 = Amplitude(0, 0, Fraction(1, 2))


def rational(value: RationalLike, order: int = 0) -> Amplitude:
    return Amplitude(value, 0, 0, 0, order)


def gamma_power(order: int) -> Amplitude:
    """The bare coupling factor gamma^order with unit coefficient."""
    return Amplitude(1, 0, 0, 0, order)


def _render_gaussian(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    if im == 1:
        im_part = "i"
    elif im == -1:
        im_part = "-i"
    else:
        im_part = f"{im}i"
    if not re:
        return im_part
    sign = "+" if im > 0 else "-"
    mag = im_part.lstrip("-")
    return f"({re}{sign}{mag})"


def render_amplitude(amp: Amplitude) -> str:
    """Canonical ``p + q*sqrt2`` text form of the value (gamma not included)."""
    if amp.is_zero:
        return "0"
    plain = _render_gaussian(amp.re, amp.im)
    root = _render_gaussian(amp.re_sqrt2, amp.im_sqrt2)
    if not (amp.re_sqrt2 or amp.im_sqrt2):
        return plain
    if root == "1":
        root_part = "√2"
    elif root == "-1":
        root_part = "-√2"
    else:
        root_part = f"{root}·√2"
    if not (amp.re or amp.im):
        return root_part
    if root_part.startswith("-"):
        return f"{plain} - {root_part[1:]}"
    return f"{plain} + {root_part}"


# ---------------------------------------------------------------------------
# Wire codec: each JSON artifact is declared once as an (encode, decode) pair;
# every JSON object, a record's included, is written by one rule, tuple_codec
# ---------------------------------------------------------------------------

Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]  # (encode, decode)


def _json(kind: type, name: str) -> Callable[[Any], Any]:
    """The decoder of one JSON type: it returns a value of exactly ``kind`` (so
    no bool passes as an int) and raises ValueError for any other."""

    def decode(value: Any) -> Any:
        if type(value) is not kind:
            raise ValueError(f"expected a JSON {name}, got {value!r:.60}")
        return value

    return decode


_LIST, _OBJECT = _json(list, "list"), _json(dict, "object")


_LIMIT = 10 ** 4300  # CPython's default int-string limit: no part of a rational reaches it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Exact parse of ``p/q`` or a decimal literal ("13/20" == "0.65").  A
    numerator or denominator of more than 4300 digits is refused, and so is
    an exponent beyond ±8600, before any power of ten is computed: int() takes
    at most 4300 digits on each side of the point, so past it any nonzero
    literal has such a part."""
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > 8600:
            raise ValueError("more than 4300 digits")
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) >= _LIMIT:
            raise ValueError("more than 4300 digits")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r} ({exc})") from None


INT: Codec = (int, _json(int, "integer"))
BOOL: Codec = (bool, _json(bool, "boolean"))
TEXT: Codec = (str, _json(str, "string"))


def _rational_text(value: Rational) -> str:  # "p/q"; a value that fails exact(): TypeError
    if not exact((value,)):
        raise TypeError(f"expected an exact rational, got {value!r:.60}")
    return str(value)


RATIONAL: Codec = (_rational_text, lambda text: parse_rational(TEXT[1](text)))  # never a number


def sequence_codec(item: Codec) -> Codec:
    """A JSON list of ``item`` values, decoded to a tuple."""
    encode, decode = item
    return (lambda values: [encode(v) for v in values],
            lambda obj: tuple(decode(v) for v in _LIST(obj)))


def mapping_codec(key: Codec, value: Codec) -> Codec:
    """A JSON object with encoded keys and values, decoded to a dict."""
    (encode_key, decode_key), (encode_value, decode_value) = key, value
    return (lambda mapping: {encode_key(k): encode_value(v) for k, v in mapping.items()},
            lambda obj: {decode_key(k): decode_value(v) for k, v in _OBJECT(obj).items()})


def tuple_codec(*fields: Tuple[str, Codec], optional: Tuple[str, ...] = (),
                build: Callable[..., Any] = lambda *items: items) -> Codec:
    """A tuple as a JSON object with one ``(wire key, codec)`` per item, in
    order: a record's fields, in ``_fields`` order, and none of the values it
    derives after them.  An item that is ``None`` is left out.  The decoder
    calls ``build`` with the decoded items by position (by default it returns
    them as a plain tuple).  Only the keys named in ``optional`` may be absent,
    and decode to ``None``; any other missing key raises ValueError."""

    def decode(obj: Any) -> Any:
        obj = _OBJECT(obj)
        for key, _ in fields:
            if key not in obj and key not in optional:
                raise ValueError(f"JSON object lacks the key {key!r}")
        return build(*(dec(obj[key]) if key in obj else None for key, (_, dec) in fields))

    return (lambda values: {key: enc(v) for (key, (enc, _)), v in zip(fields, values)
                            if v is not None}, decode)


def derived_codec(codec: Codec, key: str, derive: Callable[[Any], Any]) -> Codec:
    """``codec``'s JSON object plus ``key``, computed from the value by ``derive``.
    The decoder reads ``codec``'s keys alone: a derived key is never trusted."""
    encode, decode = codec
    return lambda value: {**encode(value), key: derive(value)}, decode


# an amplitude, the one wire object that is no tuple, written as its parts
_PARTS = tuple_codec(*((name, RATIONAL) for name in ("re", "im", "re_sqrt2", "im_sqrt2")),
                     ("gamma_order", INT), build=Amplitude)
AMPLITUDE: Codec = (lambda a: _PARTS[0]((a.re, a.im, a.re_sqrt2, a.im_sqrt2, a.order)),
                    _PARTS[1])


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


class Record(tuple):
    """Base of the package's immutable value types: a ``tuple`` of the field
    values, then any values derived from them.

    A subclass names its fields in ``_fields`` and declares ``__slots__ = ()``,
    so an instance has no ``__dict__``; each field becomes a property that
    reads its item by index.  The default ``__new__`` binds the fields by
    position, then by name; a subclass that checks, converts or defaults its
    arguments has its own ``__new__``, which returns ``tuple.__new__(cls,
    values)``: the fields in ``_fields`` order, then any values derived from
    them, which the subclass reads by index.  A record hashes as its tuple,
    in C, equals only a record of its own type (never a plain tuple, on
    either side of ``==``) and has no order; ``repr`` (the frozen dataclass
    one), ``_replace``, pickling and ``copy`` read the fields alone.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index)))

    def __new__(cls, *args: Any, **kwargs: Any) -> "Record":
        """Bind ``_fields`` as a dataclass's ``__init__`` does; a missing, extra
        or unknown field raises ``TypeError``.  A call with every field by
        position and none by name is the tuple of its arguments, built by
        ``tuple.__new__`` in C; any other call builds the name map and checks it."""
        fields = cls._fields
        if not kwargs and len(args) == len(fields):
            return tuple.__new__(cls, args)
        named = {**dict(zip(fields, args)), **kwargs}
        if len(args) + len(kwargs) != len(fields) or named.keys() != set(fields):
            raise TypeError(f"{cls.__qualname__}() takes the fields "
                            f"{', '.join(fields)}; got {len(args)} by position and "
                            f"{', '.join(kwargs) or 'none'} by name")
        return tuple.__new__(cls, map(named.get, fields))

    def __eq__(self, other: object) -> bool:  # False, not NotImplemented: no tuple's ==
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's item-by-item !=
    __hash__ = tuple.__hash__

    def __lt__(self, other: object) -> bool:
        raise TypeError(f"{self.__class__.__qualname__} records have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self[:len(self._fields)]

    def _replace(self, **changes: Any) -> "Record":
        """A copy with ``changes`` applied, built and checked by ``__new__``."""
        return self.__class__(**{**dict(zip(self._fields, self)), **changes})


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


class Polarization(Enum):
    __hash__ = object.__hash__  # members are singletons: hashed by identity, in C

    H = "H"
    V = "V"


class Beam(Enum):
    """Spatial beams of the three-photon setup.

    ``A``/``B`` are the two down-conversion beams, ``C`` the beamsplitter
    output that feeds the second polarizing beamsplitter, ``G``/``H``/``Z``
    the observation stations, ``A_H`` the transmitted trigger arm, ``A_V``
    the reflected arm and ``A_45`` that arm after the half-wave plate.
    Filter loss is no mode: a sampled event carries it as its
    ``herald_veto`` flag (see :mod:`ghzsim.events`).
    """

    __hash__ = object.__hash__

    A = "a"
    A_H = "a_H"
    A_V = "a_V"
    A_45 = "a_45"
    B = "b"
    C = "c"
    G = "g"
    H = "h"
    Z = "z"


def not_a_member(call: str, argument: str, value: Any, kind: type) -> TypeError:
    """The error of a call whose ``argument`` is ``value``, not a member of ``kind``."""
    return TypeError(f"{call}: {argument} must be a member of {kind.__name__}, got {value!r:.60}")


class Mode(Record):
    """One bosonic mode: a beam together with a polarization.

    The setup's 16 modes are interned: ``Mode(beam, polarization)`` returns the
    one instance that :data:`MODE_BY_NAME` holds for the pair, and so do
    pickling, ``copy`` and ``_replace``.  Two modes are equal only when they
    are the same object, so ``==`` and ``hash`` are ``object``'s, run in C.  An
    argument that is not a :class:`Beam` or :class:`Polarization` member raises
    ``TypeError``; a pair the setup lacks raises :class:`InvalidModeError`.
    ``name`` and ``sort_key`` (canonicalisation sorts by it) are items 2 and 3.
    """

    __slots__ = ()
    _fields = ("beam", "polarization")
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    name = property(itemgetter(2))
    sort_key = property(itemgetter(3))

    def __new__(cls, beam: Beam, polarization: Polarization, *derived: Any):
        # ``derived``: dataclasses.astuple and asdict rebuild a record from all its items
        try:
            mode = _MODES[beam, polarization]
        except (KeyError, TypeError):  # TypeError: an unhashable argument
            pass
        else:
            if derived in ((), mode[2:]):
                return mode
            raise TypeError(f"Mode() takes the fields beam, polarization; got {derived!r:.60}")
        if type(beam) is not Beam:
            raise not_a_member("Mode", "beam", beam, Beam)
        if type(polarization) is not Polarization:
            raise not_a_member("Mode", "polarization", polarization, Polarization)
        raise InvalidModeError(
            f"beam {beam.value!r} does not carry polarization "
            f"{polarization.value!r} in this setup"
        )

    def __lt__(self, other: "Mode") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return self.name


# Single naming table shared by the text rendering and the JSON codecs.
# The single-polarization arms render as their bare beam label.
MODE_NAMES: Mapping[Tuple[Beam, Polarization], str] = {
    (Beam.A, Polarization.H): "aH",
    (Beam.A, Polarization.V): "aV",
    (Beam.A_H, Polarization.H): "a_H",
    (Beam.A_V, Polarization.V): "a_V",
    (Beam.A_45, Polarization.H): "a45H",
    (Beam.A_45, Polarization.V): "a45V",
    (Beam.B, Polarization.H): "bH",
    (Beam.B, Polarization.V): "bV",
    (Beam.C, Polarization.H): "cH",
    (Beam.C, Polarization.V): "cV",
    (Beam.G, Polarization.H): "g_H",
    (Beam.G, Polarization.V): "g_V",
    (Beam.H, Polarization.H): "h_H",
    (Beam.H, Polarization.V): "h_V",
    (Beam.Z, Polarization.H): "z_H",
    (Beam.Z, Polarization.V): "z_V",
}


def _intern(beam: Beam, polarization: Polarization, name: str) -> Mode:
    sort_key = (list(Beam).index(beam), list(Polarization).index(polarization))
    return tuple.__new__(Mode, (beam, polarization, name, sort_key))


# the one instance of each legal mode, complete at import
_MODES: Mapping[Tuple[Beam, Polarization], Mode] = {
    pair: _intern(*pair, name) for pair, name in MODE_NAMES.items()
}

MODE_BY_NAME: Mapping[str, Mode] = {mode.name: mode for mode in _MODES.values()}

AH = MODE_BY_NAME["aH"]
AV = MODE_BY_NAME["aV"]
BH = MODE_BY_NAME["bH"]
BV = MODE_BY_NAME["bV"]
CH = MODE_BY_NAME["cH"]
CV = MODE_BY_NAME["cV"]
GH = MODE_BY_NAME["g_H"]
GV = MODE_BY_NAME["g_V"]
HH = MODE_BY_NAME["h_H"]
HV = MODE_BY_NAME["h_V"]
ZH = MODE_BY_NAME["z_H"]
ZV = MODE_BY_NAME["z_V"]
TRIGGER = MODE_BY_NAME["a_H"]
REFLECT_ARM = MODE_BY_NAME["a_V"]


# ---------------------------------------------------------------------------
# Occupation patterns and polynomials
# ---------------------------------------------------------------------------

# canonical: sorted by mode, every count positive
Pattern = Tuple[Tuple[Mode, int], ...]
PatternLike = Union[Pattern, Mapping[Mode, int], Iterable[Tuple[Mode, int]]]


def as_pattern(obj: PatternLike) -> Pattern:
    items = obj.items() if isinstance(obj, Mapping) else obj
    counts: dict = {}
    for mode, count in items:
        if not isinstance(mode, Mode):
            raise TypeError(f"pattern keys must be Mode, got {mode!r}")
        if type(count) is not int:  # no float, string or bool is a photon count
            raise TypeError(f"occupation counts must be ints, got {count!r}")
        if count < 0:
            raise ValueError("occupation counts must be non-negative")
        if count:
            counts[mode] = counts.get(mode, 0) + count
    return _canonical(counts)


def _canonical(counts: Mapping[Mode, int]) -> Pattern:
    """The one canonical form of a pattern: the (all positive) counts, in mode order."""
    return tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key))


def occupation(pattern: Pattern, mode: Mode) -> int:
    return dict(pattern).get(mode, 0)


def mode_from_name(name: str) -> Mode:
    try:
        return MODE_BY_NAME[name]
    except KeyError:
        raise InvalidModeError(f"unknown mode name {name!r}") from None


def pattern_to_json(pattern: Pattern) -> dict:
    return {mode.name: count for mode, count in pattern}


# hand-written, because the decoder reports an unknown mode name as such
MODE: Codec = (lambda mode: mode.name, mode_from_name)
_COUNTS = mapping_codec(MODE, INT)


def pattern_from_json(obj: Mapping[str, int]) -> Pattern:
    return as_pattern(_COUNTS[1](obj))


PATTERN: Codec = (pattern_to_json, pattern_from_json)


class StatePolynomial:
    """A formal sum of creation-operator monomials with exact coefficients.

    Instances are immutable values; all arithmetic returns new canonical
    polynomials (terms sorted, zero coefficients dropped).  Two polynomials
    are equal exactly when their term maps are equal; a polynomial is unhashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[PatternLike, Amplitude],
                                    Iterable[Tuple[PatternLike, Amplitude]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        canonical: dict = {}
        for pattern_like, coeff in items:
            _accumulate(canonical, as_pattern(pattern_like), coeff)
        self._terms = _sorted_terms(canonical)

    @classmethod
    def _from_canonical(cls, terms: Mapping[Pattern, Amplitude]) -> "StatePolynomial":
        """Build from keys that are already canonical patterns; sorts once."""
        poly = object.__new__(cls)
        poly._terms = _sorted_terms(terms)
        return poly

    @property
    def terms(self) -> Mapping[Pattern, Amplitude]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "StatePolynomial") -> "StatePolynomial":
        merged = dict(self._terms)
        for pattern, coeff in other._terms.items():
            _accumulate(merged, pattern, coeff)
        return StatePolynomial._from_canonical(merged)

    def __neg__(self) -> "StatePolynomial":
        return StatePolynomial._from_canonical({p: -c for p, c in self._terms.items()})

    def __sub__(self, other: "StatePolynomial") -> "StatePolynomial":
        return self + (-other)

    def __mul__(self,
                other: Union["StatePolynomial", Amplitude, RationalLike]) -> "StatePolynomial":
        if isinstance(other, StatePolynomial):
            return multiply(self, other)
        return StatePolynomial._from_canonical({p: c * other for p, c in self._terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "StatePolynomial":
        require_type(int, exponent, "exponent must be an int")
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = self if exponent else scalar(ONE)
        for _ in range(exponent - 1):
            result = multiply(result, self)
        return result

    def __str__(self) -> str:
        return render_polynomial(self)

    def __repr__(self) -> str:
        return f"StatePolynomial({render_polynomial(self)})"


def terms_codec(term: Codec) -> Codec:
    """A polynomial as the JSON list of its ``(pattern, amplitude)`` terms."""
    encode, decode = sequence_codec(term)
    return lambda poly: encode(poly.terms.items()), lambda obj: StatePolynomial(decode(obj))


TERM = tuple_codec(("pattern", PATTERN), ("amplitude", AMPLITUDE))
TERMS = terms_codec(TERM)


def _sorted_terms(terms: Mapping[Pattern, Amplitude]) -> dict:
    """Canonical term map: zero coefficients dropped, patterns in mode order."""
    kept = [(p, c) for p, c in terms.items() if not c.is_zero]
    return dict(sorted(kept, key=lambda kv: [(m.sort_key, n) for m, n in kv[0]]))


def _accumulate(terms: dict, pattern: Pattern, coeff: Amplitude) -> None:
    size, previous = len(terms), terms.setdefault(pattern, coeff)  # a new key: one hash
    if len(terms) == size:
        terms[pattern] = previous + coeff


def scalar(coeff: Amplitude) -> StatePolynomial:
    """The polynomial ``coeff * 1`` (vacuum unit scaled)."""
    return StatePolynomial({(): coeff})


def creation(mode: Mode, coeff: Amplitude = ONE) -> StatePolynomial:
    """The single creation operator acting on the vacuum."""
    return StatePolynomial({((mode, 1),): coeff})


def monomial(pattern: PatternLike, coeff: Amplitude = ONE) -> StatePolynomial:
    return StatePolynomial(((pattern, coeff),))


def multiply(p: StatePolynomial, q: StatePolynomial) -> StatePolynomial:
    """Distributive product; commuting operators add their occupations."""
    out: dict = {}
    for pat_a, coeff_a in p._terms.items():
        for pat_b, coeff_b in q._terms.items():
            counts = dict(pat_a)
            counts.update((mode, counts.get(mode, 0) + count) for mode, count in pat_b)
            _accumulate(out, _canonical(counts), coeff_a * coeff_b)
    return StatePolynomial._from_canonical(out)


# the linear image of one source mode: (target mode, coefficient) pairs
RuleTargets = Tuple[Tuple[Mode, Amplitude], ...]


def substitute(p: StatePolynomial, transform) -> StatePolynomial:
    """Replace each ruled creation operator by its linear combination.

    Substitution is simultaneous: rule targets are never re-substituted.
    Modes without a rule pass through unchanged.  Powers expand
    multinomially, so total photon number is preserved term by term.
    """
    rules: Mapping[Mode, RuleTargets] = getattr(transform, "rules", transform)
    if not isinstance(rules, Mapping):
        raise TypeError("substitute expects a ModeTransform or a rules mapping")
    out: dict = {}
    for pattern, coeff in p._terms.items():
        kept, image, products = {}, {}, [((), coeff)]  # products: (target modes, amplitude)
        for mode, count in pattern:
            if (targets := rules.get(mode)) is None:  # no rule: kept as is, unmultiplied
                kept[mode] = count
                continue
            for _ in range(count):  # one product over the term's photons
                products = [(ms + (t,), amp * f) for ms, amp in products for t, f in targets]
        for modes, amp in products:  # one canonical pattern per output monomial
            counts = dict(kept)
            for mode in modes:
                counts[mode] = counts.get(mode, 0) + 1
            _accumulate(image, _canonical(counts), amp)
        for key, value in image.items():  # the term's image joins the sum whole
            _accumulate(out, key, value)
    return StatePolynomial._from_canonical(out)


def filter_terms(p: StatePolynomial, predicate: Callable[[Pattern], bool]) -> StatePolynomial:
    """Keep exactly the terms whose occupation pattern satisfies ``predicate``."""
    return StatePolynomial._from_canonical(
        {pat: c for pat, c in p._terms.items() if predicate(pat)}
    )


def amplitude(p: StatePolynomial, pattern: PatternLike) -> Amplitude:
    return p._terms.get(as_pattern(pattern), ZERO)


def born_terms(p: StatePolynomial) -> Tuple[dict, Tuple[int, int, int]]:
    """Each term's ``|coeff|^2 * prod_modes n!`` (:func:`born_weight`, gamma treated
    as 1) as the integers (w, r) of (w + r·√2)/den, den the square of the terms' lcm
    denominator, and their sum, the squared norm, as (W, R, den).  All terms must
    share one coupling order, otherwise the relative gamma scale is ambiguous."""
    orders = {c._order for c in p._terms.values()}
    if len(orders) > 1:
        raise OrderMixError(f"norm of a mixed-order state is ambiguous (orders {sorted(orders)}); "
                            "separate the orders first")
    den = lcm(*(c._den for c in p._terms.values()))  # 1 for the empty polynomial
    weights, plain, root = {}, 0, 0  # |(a + b i + (c + e i)√2)/d|^2 · Πn!, over den^2
    for pattern, coeff in p._terms.items():
        k = (den // coeff._den) ** 2
        for _, n in pattern:
            if n > 1:  # 1! is 1
                k *= factorial(n)
        weights[pattern] = w, r = born_weight(*coeff._num, k)
        plain, root = plain + w, root + r
    return weights, (plain, root, den * den)


def born_weight(a: int, b: int, c: int, e: int, k: int) -> Tuple[int, int]:
    """|a + b i + (c + e i)√2|^2 · k as the integers (w, r) of w + r·√2."""
    return (a * a + b * b + 2 * (c * c + e * e)) * k, 2 * (a * c + b * e) * k


def norm_squared(p: StatePolynomial) -> Amplitude:
    """Fock-space squared norm with gamma treated as 1: the sum of :func:`born_terms`."""
    _, (plain, root, den) = born_terms(p)
    return _new(plain, 0, root, 0, den, 0)


def born_weights(weights: Mapping[Any, Tuple[int, int]],
                 norm: Tuple[int, int, int]) -> Tuple[dict, int]:
    """The Born weights (w, r) as w/g over W/g, g the gcd of the w and W: for one
    state's terms, its probabilities over the lcm of their denominators.  A weight
    with w·R ≠ r·W is no rational multiple of the norm (W, R, den): IrrationalValueError."""
    plain, root, _ = norm
    if any(w * root != r * plain for w, r in weights.values()):
        raise IrrationalValueError("a Born weight is not a rational multiple of the squared norm")
    g = gcd(plain, *(w for w, _ in weights.values())) or 1  # 0 over 1 for the zero state
    return {key: w // g for key, (w, _) in weights.items()}, plain // g


def equal_up_to_phase(p: StatePolynomial, q: StatePolynomial) -> bool:
    """True when ``p == phase * q`` for a single unit-modulus ring element.

    Decided by cross-multiplication, so no division is needed and the
    coupling orders of the two sides may differ term-for-term consistently.
    """
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    if set(p._terms) != set(q._terms):
        return False
    ref = next(iter(p._terms))
    cp_ref, cq_ref = p._terms[ref], q._terms[ref]
    if cp_ref.abs_squared() != cq_ref.abs_squared():
        return False  # the single phase must have modulus 1
    return all(p._terms[pat] * cq_ref == q._terms[pat] * cp_ref for pat in p._terms)


def render_polynomial(p: StatePolynomial) -> str:
    """Debug text form, canonical term order, e.g. ``(-2)·γ^2·aH†·aV†·bH†·bV†``."""
    if p.is_zero:
        return "0"
    chunks = []
    for pattern, coeff in p._terms.items():
        parts = [f"({render_amplitude(coeff)})"]
        if coeff.order == 1:
            parts.append("γ")
        elif coeff.order > 1:
            parts.append(f"γ^{coeff.order}")
        for mode, count in pattern:
            parts.append(f"{mode.name}†" + (f"^{count}" if count > 1 else ""))
        chunks.append("·".join(parts))
    return " + ".join(chunks)
