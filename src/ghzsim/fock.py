"""Exact symbolic algebra for polynomials in bosonic creation operators.

States are formal sums of creation-operator monomials over a fixed, finite
set of polarization modes.  Coefficients live in the ring Q(i)[sqrt(2)]
(Gaussian rationals extended by sqrt(2)), so every amplitude produced by a
50/50 beamsplitter network with circular analyzers is represented exactly
and equality is decidable with no tolerance.  A coefficient is stored as
four integer numerators (rational and sqrt(2) parts of its real and
imaginary components) over one positive integer denominator, reduced by a
single gcd, so ring arithmetic is integer arithmetic; ``Fraction`` appears
only at the edges (constructor, component properties, rendering, JSON).

Each amplitude additionally carries an integer ``order`` tag counting powers
of the pair-creation coupling gamma.  Orders add under multiplication and
amplitudes of different order never sum: they belong to different
perturbation orders and only acquire a relative scale once a numeric
pair-creation probability is supplied (see the Monte Carlo sampler in
:mod:`ghzsim.events`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from typing import Any, Callable, Iterable, Mapping, Tuple, Union


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


class Amplitude:
    """Element ``(re + im*i) + (re_sqrt2 + im_sqrt2*i)*sqrt(2)`` times gamma^order.

    Stored as four integer numerators over one positive integer denominator
    with no common factor; zero is ``0/1`` at order 0.  Instances are
    immutable values, compared and hashed by value.  ``Fraction`` appears
    only in the constructor and the component properties.
    """

    __slots__ = ("_num", "_den", "_order")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0, re_sqrt2: RationalLike = 0,
                 im_sqrt2: RationalLike = 0, order: int = 0) -> None:
        if order < 0:
            raise OrderMixError("gamma order must be non-negative")
        parts = [Fraction(v) for v in (re, im, re_sqrt2, im_sqrt2)]
        den = lcm(*(v.denominator for v in parts))
        value = _new(*(v.numerator * (den // v.denominator) for v in parts), den, order)
        self._num, self._den, self._order = value._num, value._den, value._order

    re = property(lambda self: Fraction(self._num[0], self._den))
    im = property(lambda self: Fraction(self._num[1], self._den))
    re_sqrt2 = property(lambda self: Fraction(self._num[2], self._den))
    im_sqrt2 = property(lambda self: Fraction(self._num[3], self._den))
    order = property(lambda self: self._order)

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
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _new(a1 * n, b1 * n, c1 * n, e1 * n, self._den * other.denominator, self._order)
        if not isinstance(other, Amplitude):
            return NotImplemented
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

    @property
    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational or self._order:
            raise IrrationalValueError(f"{self} is not a plain rational")
        return self.re

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
    return Amplitude(Fraction(value), 0, 0, 0, order)


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
# Wire codec: each JSON artifact is declared once as an (encode, decode) pair
# ---------------------------------------------------------------------------

Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]  # (encode, decode)

INT: Codec = (int, int)
BOOL: Codec = (bool, bool)
TEXT: Codec = (str, str)
RATIONAL: Codec = (str, lambda text: Fraction(str(text)))  # "p/q" text, never a JSON number


def sequence_codec(item: Codec) -> Codec:
    """A JSON list of ``item`` values, decoded to a tuple."""
    encode, decode = item
    return lambda values: [encode(v) for v in values], lambda obj: tuple(decode(v) for v in obj)


def mapping_codec(key: Codec, value: Codec) -> Codec:
    """A JSON object with encoded keys and values, decoded to a dict."""
    (encode_key, decode_key), (encode_value, decode_value) = key, value
    return (lambda mapping: {encode_key(k): encode_value(v) for k, v in mapping.items()},
            lambda obj: {decode_key(k): decode_value(v) for k, v in obj.items()})


def record_codec(build: Callable[..., Any], *fields: Tuple[str, str, Codec]) -> Codec:
    """A JSON object with one ``(wire key, attribute, codec)`` per field; the
    decoder calls ``build`` with the decoded fields as keyword arguments."""
    return (lambda value: {key: enc(getattr(value, attr)) for key, attr, (enc, _) in fields},
            lambda obj: build(**{attr: dec(obj[key]) for key, attr, (_, dec) in fields}))


def tuple_codec(*fields: Tuple[str, Codec]) -> Codec:
    """A tuple as a JSON object with one ``(wire key, codec)`` per item; an
    item that is ``None`` is left out, and decodes from its absent key."""
    return (lambda values: {key: enc(v) for (key, (enc, _)), v in zip(fields, values)
                            if v is not None},
            lambda obj: tuple(dec(obj[key]) if key in obj else None for key, (_, dec) in fields))


def derived_codec(codec: Codec, key: str, derive: Callable[[Any], Any]) -> Codec:
    """``codec``'s JSON object plus ``key``, computed from the value by ``derive``.
    The decoder reads ``codec``'s keys alone: a derived key is never trusted."""
    encode, decode = codec
    return lambda value: {**encode(value), key: derive(value)}, decode


AMPLITUDE = record_codec(
    Amplitude,
    *((name, name, RATIONAL) for name in ("re", "im", "re_sqrt2", "im_sqrt2")),
    ("gamma_order", "order", INT),
)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


class Polarization(Enum):
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

    A = "a"
    A_H = "a_H"
    A_V = "a_V"
    A_45 = "a_45"
    B = "b"
    C = "c"
    G = "g"
    H = "h"
    Z = "z"


_BEAM_ORDER = {beam: index for index, beam in enumerate(Beam)}
_POL_ORDER = {Polarization.H: 0, Polarization.V: 1}


@dataclass(frozen=True, order=False)
class Mode:
    """One bosonic mode: a beam together with a polarization (equal by value)."""

    beam: Beam
    polarization: Polarization

    def __post_init__(self) -> None:
        name = MODE_NAMES.get((self.beam, self.polarization))
        if name is None:
            raise InvalidModeError(
                f"beam {self.beam.value!r} does not carry polarization "
                f"{self.polarization.value!r} in this setup"
            )
        # pattern lookups hash modes and canonicalisation sorts them: compute once
        sort_key = (_BEAM_ORDER[self.beam], _POL_ORDER[self.polarization])
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sort_key", sort_key)
        object.__setattr__(self, "_hash", hash(sort_key))

    def __hash__(self) -> int:
        return self._hash

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

MODE_BY_NAME: Mapping[str, Mode] = {
    name: Mode(beam, pol) for (beam, pol), name in MODE_NAMES.items()
}

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
        count = int(count)
        if count < 0:
            raise ValueError("occupation counts must be non-negative")
        if count:
            counts[mode] = counts.get(mode, 0) + count
    return tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key))


def _merge(a: Pattern, b: Pattern) -> Pattern:
    """The canonical pattern of the product of two canonical monomials."""
    counts = dict(a)
    for mode, count in b:
        counts[mode] = counts.get(mode, 0) + count
    return tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key))


def occupation(pattern: Pattern, mode: Mode) -> int:
    for m, n in pattern:
        if m == mode:
            return n
    return 0


def total_photons(pattern: Pattern) -> int:
    return sum(n for _, n in pattern)


def mode_from_name(name: str) -> Mode:
    try:
        return MODE_BY_NAME[name]
    except KeyError:
        raise InvalidModeError(f"unknown mode name {name!r}") from None


def pattern_to_json(pattern: Pattern) -> dict:
    return {mode.name: count for mode, count in pattern}


def pattern_from_json(obj: Mapping[str, int]) -> Pattern:
    # JSON true and 1.5 would pass int(); only a JSON integer is a count
    if not isinstance(obj, dict) or any(type(count) is not int for count in obj.values()):
        raise ValueError(f"a pattern is a JSON object of integer counts, got {obj!r}")
    return as_pattern({mode_from_name(name): count for name, count in obj.items()})


# hand-written, because the decoders report an unknown mode name as such
MODE: Codec = (lambda mode: mode.name, mode_from_name)
PATTERN: Codec = (pattern_to_json, pattern_from_json)


class StatePolynomial:
    """A formal sum of creation-operator monomials with exact coefficients.

    Instances are immutable values; all arithmetic returns new canonical
    polynomials (terms sorted, zero coefficients dropped).  Two polynomials
    are equal exactly when their term maps are equal.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[PatternLike, Amplitude], Iterable[Tuple[PatternLike, Amplitude]]] = ()):
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

    def __hash__(self):  # pragma: no cover - polynomials are not hashable
        raise TypeError("StatePolynomial is unhashable")

    def __add__(self, other: "StatePolynomial") -> "StatePolynomial":
        merged = dict(self._terms)
        for pattern, coeff in other._terms.items():
            _accumulate(merged, pattern, coeff)
        return StatePolynomial._from_canonical(merged)

    def __neg__(self) -> "StatePolynomial":
        return StatePolynomial._from_canonical({p: -c for p, c in self._terms.items()})

    def __sub__(self, other: "StatePolynomial") -> "StatePolynomial":
        return self + (-other)

    def __mul__(self, other: Union["StatePolynomial", Amplitude, RationalLike]) -> "StatePolynomial":
        if isinstance(other, StatePolynomial):
            return multiply(self, other)
        return StatePolynomial._from_canonical({p: c * other for p, c in self._terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "StatePolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = scalar(ONE)
        for _ in range(exponent):
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
    return dict(sorted(kept, key=lambda kv: tuple((m.sort_key, n) for m, n in kv[0])))


def _accumulate(terms: dict, pattern: Pattern, coeff: Amplitude) -> None:
    previous = terms.get(pattern)
    terms[pattern] = coeff if previous is None else previous + coeff


def scalar(coeff: Amplitude) -> StatePolynomial:
    """The polynomial ``coeff * 1`` (vacuum unit scaled)."""
    return StatePolynomial({(): coeff})


def vacuum_unit() -> StatePolynomial:
    return scalar(ONE)


def creation(mode: Mode, coeff: Amplitude = ONE) -> StatePolynomial:
    """The single creation operator acting on the vacuum."""
    return StatePolynomial({((mode, 1),): coeff})


def monomial(pattern: PatternLike, coeff: Amplitude = ONE) -> StatePolynomial:
    return StatePolynomial({as_pattern(pattern): coeff})


def multiply(p: StatePolynomial, q: StatePolynomial) -> StatePolynomial:
    """Distributive product; commuting operators add their occupations."""
    out: dict = {}
    for pat_a, coeff_a in p._terms.items():
        for pat_b, coeff_b in q._terms.items():
            _accumulate(out, _merge(pat_a, pat_b), coeff_a * coeff_b)
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
        partial = {(): coeff}
        for mode, count in pattern:
            factor = [(((target, 1),), amp) for target, amp in rules.get(mode, ((mode, ONE),))]
            for _ in range(count):
                expanded: dict = {}
                for key, value in partial.items():
                    for single, amp in factor:
                        _accumulate(expanded, _merge(key, single), value * amp)
                partial = expanded
        for key, value in partial.items():
            _accumulate(out, key, value)
    return StatePolynomial._from_canonical(out)


def filter_terms(p: StatePolynomial, predicate: Callable[[Pattern], bool]) -> StatePolynomial:
    """Keep exactly the terms whose occupation pattern satisfies ``predicate``."""
    return StatePolynomial._from_canonical(
        {pat: c for pat, c in p._terms.items() if predicate(pat)}
    )


def amplitude(p: StatePolynomial, pattern: PatternLike) -> Amplitude:
    return p._terms.get(as_pattern(pattern), ZERO)


def norm_squared(p: StatePolynomial) -> Amplitude:
    """Fock-space squared norm with gamma treated as 1.

    ``sum |coeff|^2 * prod_modes n!`` over all terms.  All terms must share
    one coupling order, otherwise the relative gamma scale is ambiguous.
    """
    orders = {c.order for c in p._terms.values()}
    if len(orders) > 1:
        raise OrderMixError(
            f"norm of a mixed-order state is ambiguous (orders {sorted(orders)}); "
            "separate the orders first"
        )
    total = ZERO
    for pattern, coeff in p._terms.items():
        total = total + coeff.abs_squared() * prod(factorial(n) for _, n in pattern)
    return total


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
    return all(
        p._terms[pat] * cq_ref == q._terms[pat] * cp_ref for pat in p._terms
    )


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
