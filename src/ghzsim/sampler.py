"""The exact pulse sampler: its tables, its draw loop and its event record.

:func:`ghzsim.events.sample_events` checks its arguments and draws every
event through :meth:`_Sampler.draw`, the only reader of the tables built
here.  A ``_Table`` draws a value from integer weights exactly, one 64-bit
word at a time, most words through one index into its guide table.  A
``_Sampler`` holds, for one call, the emission table (the gap to the next
emitting pulse and its component), the survivor tables of the loss channel,
and the draw chains that link each component to its detection table
(:func:`_output_table`).

The two emission laws, which depend on no argument, are derived once per
process, and so is each detection table, when an event first needs it;
the tables of one pair and loss probability are built per call.  Only
``sample_events`` loads this module, so the table and verdict commands
never compile it.  ``SampledEvent`` is a :class:`ghzsim.fock.Record`, the
``tuple`` of its four fields, so the draw loop builds each event in C, the size
of a plain 4-tuple.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul
from random import Random
from typing import Dict, Iterable, Iterator, Optional

from .events import (
    EVENT_CLASS,
    EventClass,
    _circuit,
    classify_pattern,
    single_pair_emission,
    two_pair_emission,
)
from .fock import (BOOL, INT, PATTERN, Pattern, Record, born_terms, born_weights, monomial,
                   over_common_denominator, tuple_codec)


# a dataclass only so that dataclasses.replace copies it; its own __new__ gives
# the generated dataclass's signature (the draw loop calls tuple.__new__)
@dataclass(frozen=True, init=False, eq=False, repr=False)
class SampledEvent(Record):
    __slots__ = ()
    pulse_index: int
    pattern: Pattern
    event_class: EventClass
    herald_veto: bool
    _fields = tuple(__annotations__)

    def __new__(cls, pulse_index, pattern, event_class, herald_veto):
        return tuple.__new__(cls, (pulse_index, pattern, event_class, herald_veto))


EVENT = tuple_codec(("pulse", INT), ("pattern", PATTERN), ("class", EVENT_CLASS),
                    ("veto", BOOL), build=SampledEvent)

WORD = 64  # bits per random word; every draw reads whole words
GUIDE = 10  # leading bits of a word that index a guided table's guide
SKIP_PRECISION = 256  # fractional bits of the fixed-precision skip-level bounds
MAX_BLOCK = 64  # the most pulses one emission-table draw covers
_UNGUIDED = (None,) * (1 << GUIDE)  # the guide of a table drawn by bisection alone


class _Table:
    """An exact draw from (value, integer weight) pairs; zero weights drop out.

    Value i is drawn with probability (cuts[i] - cuts[i-1]) / den exactly,
    where ``cuts`` are the running sums of the weights and ``den`` the total.
    A draw reads one word u as the leading bits of a uniform U in [0, 1).
    ``_guide`` maps u's top GUIDE bits (Chen & Asau's guide table) to the
    index every word of that bucket draws, or to None when a truncated cut
    point falls in the bucket; only then is u bisected against ``_leading``,
    the cut points cuts[i] / den truncated to one word.  U lies between cut
    points i-1 and i unless u equals the truncated cut point i-1 (for i = 0
    that reads the last one, 2^WORD, never u); only then does :meth:`_settle`
    read further words and compare exactly with the integer cut points.  An
    unguided table (``guided`` false) skips building the guide and always
    bisects.  :meth:`_Sampler.draw` makes its draws inline.
    """

    __slots__ = ("values", "cuts", "den", "_leading", "_guide")

    def __init__(self, weighted: Iterable[tuple], guided: bool = True):
        weighted = [(value, weight) for value, weight in weighted if weight]
        self.values = [value for value, _ in weighted]
        self.cuts = list(accumulate(weight for _, weight in weighted))
        self.den = self.cuts[-1]
        self._leading = [(cut << WORD) // self.den for cut in self.cuts]
        self._guide = _UNGUIDED
        if guided:
            guide = self._guide = []
            for i, cut in enumerate(self._leading[:-1]):
                bucket = cut >> (WORD - GUIDE)
                guide += [i] * (bucket - len(guide))  # the buckets below this cut draw i
                if bucket == len(guide):
                    guide.append(None)  # a bucket that holds a cut point bisects
            guide += [len(self.cuts) - 1] * ((1 << GUIDE) - len(guide))

    def _settle(self, rng: Random, value: int) -> int:
        """The index drawn by the words that start with ``value``, a tied first word."""
        bits = WORD
        while True:
            value = value << WORD | rng.getrandbits(WORD)
            bits += WORD
            low = value * self.den  # U * den lies in [low, low + den) / 2^bits
            i = bisect_right(self.cuts, low >> bits)
            if low + self.den <= self.cuts[i] << bits:
                return i


@lru_cache(maxsize=None)
def _output_table(component: Pattern) -> _Table:
    """(pattern, class) with the exact detection law of ``component`` behind the
    circuit.  Built once per process: at most 25, one per non-empty sub-pattern
    of the five emission components."""
    weights, _ = born_weights(*born_terms(_circuit().apply(monomial(component))))
    return _Table(((pattern, classify_pattern(pattern)), n) for pattern, n in weights.items())


_ALL_LOST = ((), classify_pattern(()))  # every photon lost: drawn without a random word


def _survivors_table(component: Pattern, loss: Fraction) -> _Table:
    """(surviving pattern, herald veto) of ``component`` when each photon is
    removed independently with probability ``loss``; weights over den^n, one
    row per choice of kept counts, the first mode's count varying slowest."""
    lost, den = loss.numerator, loss.denominator
    rows = [((), False, 1)]  # (survivors, some photon lost, weight) of the modes so far
    for mode, count in component:
        extended = []
        for survivors, veto, weight in rows:
            for kept in range(count + 1):
                w = weight * comb(count, kept) * (den - lost) ** kept * lost ** (count - kept)
                extended.append((survivors + ((mode, kept),) if kept else survivors,
                                 veto or kept < count, w))
        rows = extended
    return _Table((((survivors, veto), weight) for survivors, veto, weight in rows))


def _skip_bounds(skip: Fraction, levels: int, precision: int) -> list:
    """(lo, hi) with lo <= skip^(2^j) * 2^precision <= hi for each j < levels:
    ``skip`` rounded down and up once, then squared with floor and ceiling."""
    scaled = skip.numerator << precision
    lo, hi = scaled // skip.denominator, -(-scaled // skip.denominator)
    bounds = []
    for _ in range(levels):
        bounds.append((lo, hi))
        lo, hi = lo * lo >> precision, -(-(hi * hi) >> precision)
    return bounds


def _skipped(value: int, bits: int, bounds: list, precision: int, top: int) -> Optional[int]:
    """K = #{k >= 1 : U < skip^k} capped at 2^top, for U in [value, value + 1) / 2^bits.

    A binary search from digit ``top`` down: each digit compares U with the
    bounds of one power of ``skip``, skip^(k + 2^j) for the digits k found so
    far; while k = 0 those are level j's own bounds, read with no product.
    None when the bits of U do not decide a comparison.
    """
    low = value << (precision - bits)
    high = low + (1 << (precision - bits))  # U * 2^precision lies in [low, high)
    lo, hi = bounds[top]
    if high <= lo:
        return 1 << top
    if low < hi:
        return None
    k = 0
    for j in reversed(range(top)):
        lo_next, hi_next = bounds[j]  # bounds on skip^(k + 2^j) * 2^precision
        if k:  # times lo, hi: skip^k's bounds; while k = 0 both are 2^precision exactly
            lo_next, hi_next = lo * lo_next >> precision, -(-(hi * hi_next) >> precision)
        if high <= lo_next:  # U < skip^(k + 2^j)
            k, lo, hi = k + (1 << j), lo_next, hi_next
        elif low < hi_next:
            return None
    return k


@lru_cache(maxsize=1)
def _emission_laws() -> tuple:
    """(one-pair components, two-pair components, the weights of both laws over
    one denominator, that denominator): the exact emission laws, built once per process."""
    (one_pair, d1), (two_pair, d2) = (born_weights(*born_terms(state))
                                      for state in (single_pair_emission(), two_pair_emission()))
    (w1, w2), common = over_common_denominator([(one_pair.values(), d1), (two_pair.values(), d2)])
    return one_pair, two_pair, w1 + w2, common


class _Sampler:
    """Emission and loss tables for one call of ``sample_events``, 0 < pair_prob.

    A pulse emits component c of the one-pair state with probability p * w1(c)
    and of the two-pair state with p^2 * w2(c), so it emits at all with
    E = p + p^2 and the gap before the next emitting pulse is geometric,
    P(G = k) = q^k * E with q = 1 - E.  Pulses are taken in blocks of ``block``;
    ``skip`` = q^block is the chance that a block emits nothing.

    ``steps`` holds, for each value of ``emission``, None (the block emits
    nothing) or (offset, chain), the component's draw chain resolved once per
    call.  With loss the chain is the survivor draw (the guide,
    (output link, herald veto) per value, and the table); without loss it is
    the component's output link.  An output link is [table, component], its
    table None until the first event that needs it; a fully lost component
    has the link None.
    """

    def __init__(self, pair_prob: Fraction, loss_prob: Fraction, pulses: int):
        one_pair, two_pair, weights, common = _emission_laws()
        a, b = pair_prob.numerator, pair_prob.denominator
        # per-pulse weights over b^2 * common, and q = q_num / b^2
        per_pulse = ([(c, a * b * n) for c, n in zip(one_pair, weights)]
                     + [(c, a * a * n) for c, n in zip(two_pair, weights[len(one_pair):])])
        pulse_den, q_num = b * b, b * b - a * b - a * a
        # the shortest block that emits at least half the time, if one fits:
        # then a joint draw that may skip the block costs at most two draws
        q_powers, den_powers = [1], [1]  # q_num^k and pulse_den^k for k <= block
        for block in range(1, MAX_BLOCK + 1):
            q_powers.append(q_powers[-1] * q_num)
            den_powers.append(den_powers[-1] * pulse_den)
            if 2 * q_powers[block] <= den_powers[block]:
                break
        self.pulses, self.block = pulses, block
        self.skip = Fraction(q_powers[block], den_powers[block])
        # (offset, component) over pulse_den^block * common: q^offset * weight
        scales = map(mul, q_powers[:block], reversed(den_powers[:block]))
        offsets = [((offset, c), scale * n)
                   for offset, scale in enumerate(scales) for c, n in per_pulse]
        self.dense = 2 * self.skip <= 1
        if self.dense:  # one joint table; None skips the whole block
            self.emission = _Table([*offsets, (None, q_powers[block] * common)])
        else:  # the emitting block comes from the skip levels, then this table; the
            # skip search dominates a sparse event, so a guide would not pay for its build
            self.emission = _Table(offsets, guided=False)
            levels = (-(-pulses // block) - 1).bit_length() + 1
            self.skip_bounds = _skip_bounds(self.skip, levels, SKIP_PRECISION)
        # per emission component, (surviving pattern, herald veto); none without loss
        self.survivors = {c: _survivors_table(c, loss_prob)
                          for c in (*one_pair, *two_pair) if loss_prob}
        links: Dict[Pattern, list] = {}  # one output link per surviving component

        def link(component: Pattern) -> Optional[list]:
            return links.setdefault(component, [None, component]) if component else None

        # one chain per entry of ``per_pulse``, so ``steps`` follows the order of ``offsets``
        if loss_prob:
            chains = [(table._guide, [(link(kept), veto) for kept, veto in table.values], table)
                      for table in (self.survivors[c] for c, _ in per_pulse)]
        else:
            chains = [link(c) for c, _ in per_pulse]
        self.steps = [(offset, chain) for offset in range(block) for chain in chains]
        self.steps += [None] * self.dense  # the skip entry of the joint table
        assert len(self.steps) == len(self.emission.values)  # no emission weight is zero

    def skipped_blocks(self, rng: Random, blocks: int) -> Optional[int]:
        """The number K of blocks that emit nothing before one that does,
        P(K >= k) = skip^k, decided from one uniform U; None when K >= blocks.

        U's first word is compared with the fixed-precision skip levels; a
        comparison those bounds leave open reads another word and redoes the
        search with bounds of twice the precision.
        """
        top = (blocks - 1).bit_length()
        value, bits = rng.getrandbits(WORD), WORD
        bounds, precision = self.skip_bounds, SKIP_PRECISION
        while (k := _skipped(value, bits, bounds, precision, top)) is None:
            value, bits = value << WORD | rng.getrandbits(WORD), bits + WORD
            precision *= 2
            bounds = _skip_bounds(self.skip, top + 1, precision)
        return k if k < blocks else None

    def draw(self, rng: Random) -> Iterator[SampledEvent]:
        """The events of the call's ``pulses`` pulses, every draw read from ``rng``.

        The empty pulses are skipped, not visited: the geometric gap to the
        next emitting pulse is drawn with the emission component.  When a
        block of pulses emits at least half the time one joint table gives
        (offset in the block, component) or "skip the block"; otherwise the
        number of empty blocks comes from a binary search over the powers of
        the skip chance, then the (offset, component) table.  When loss is
        enabled each photon of the component is then removed with probability
        ``loss_prob``, and finally the detection pattern is drawn from the
        exact conditional distribution behind the circuit.  Every draw is
        decided from 64-bit random words against integer weights, so the
        sampled law is the rational law exactly, and the work of a call grows
        with the events it emits, not with ``pulses``.  A word's top GUIDE
        bits name the drawn value through the table's guide unless a cut
        point falls in their bucket; only then is the word bisected, so a
        guide changes which steps run, never which value a word draws.
        """
        # each event reads its chain from ``steps``, so no per-event lookup is
        # keyed by a pattern; each draw looks one word up in a guide, and only
        # in a bucket that holds a cut point bisects it and settles a tie
        getrandbits, skipped_blocks, pulses = rng.getrandbits, self.skipped_blocks, self.pulses
        emission, steps, block = self.emission, self.steps, self.block
        emission_guide, dense, lossy = emission._guide, self.dense, bool(self.survivors)
        shift = WORD - GUIDE
        new, event_type = tuple.__new__, SampledEvent  # an event is built in C, with no frame
        pulse = 0
        while pulse < pulses:
            if not dense:  # the empty blocks first, then (offset, component)
                blocks = skipped_blocks(rng, -(-(pulses - pulse) // block))
                if blocks is None:
                    return
                pulse += blocks * block
            u = getrandbits(WORD)
            if (i := emission_guide[u >> shift]) is None:
                i = bisect_right(emission._leading, u)
                if emission._leading[i - 1] == u:
                    i = emission._settle(rng, u)
            step = steps[i]
            if step is None:  # the whole block emits nothing
                pulse += block
                continue
            offset, chain = step
            pulse += offset
            if pulse >= pulses:
                return
            veto = False
            if lossy:
                guide, survivors, table = chain
                u = getrandbits(WORD)
                if (i := guide[u >> shift]) is None:
                    i = bisect_right(table._leading, u)
                    if table._leading[i - 1] == u:
                        i = table._settle(rng, u)
                chain, veto = survivors[i]
            if chain is None:
                pattern, event_class = _ALL_LOST
            else:
                table = chain[0]
                if table is None:
                    table = chain[0] = _output_table(chain[1])
                u = getrandbits(WORD)
                if (i := table._guide[u >> shift]) is None:
                    i = bisect_right(table._leading, u)
                    if table._leading[i - 1] == u:
                        i = table._settle(rng, u)
                pattern, event_class = table.values[i]
            yield new(event_type, (pulse, pattern, event_class, veto))
            pulse += 1


def summarize_events(events: Iterable[SampledEvent], redefined: bool = False) -> Counter:
    """Class counts; with ``redefined`` only herald-clean events are counted."""
    counts: Counter = Counter()
    for event in events:
        if redefined and event.herald_veto:
            continue
        counts[event.event_class.wire] += 1
    return counts
