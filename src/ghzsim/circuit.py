"""Passive linear-optical elements and the composed Innsbruck GHZ circuit.

A :class:`ModeTransform` is a simultaneous linear substitution rule set on
creation operators.  Element constructors build the three element types of
the setup (50/50 beamsplitter, polarizing beamsplitter, 22.5° half-wave
plate); :func:`innsbruck_circuit` wires them into the full arrangement:
the trigger arm passes through, the reflected V photon is rotated and split
onto stations H and Z, and beam b is split onto station G and, through the
second polarizing beamsplitter, onto stations H and Z.

All coefficients here are real and positive; no reflection phase
convention is introduced, and every constructed transform is checked to be
an exact isometry (Gram orthonormality of its rule columns).
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

from .fock import (
    AMPLITUDE,
    Beam,
    GhzsimError,
    INV_SQRT2,
    InvalidModeError,
    MODE,
    MODE_NAMES,
    Mode,
    ONE,
    Polarization,
    Record,
    RuleTargets,
    StatePolynomial,
    TEXT,
    ZERO,
    creation,
    derived_codec,
    mapping_codec,
    record_codec,
    render_amplitude,
    sequence_codec,
    substitute,
    tuple_codec,
)


class CircuitConfigError(GhzsimError):
    """An element or circuit was configured inconsistently."""


class ModeTransform(Record):
    """A linear substitution rule set mapping source modes to output modes."""

    __slots__ = _fields = ("rules", "name")

    def __init__(self, rules: Mapping[Mode, RuleTargets], name: str = "") -> None:
        self._set(dict(rules), name)
        self._validate()

    def _validate(self) -> None:
        for source, targets in self.rules.items():
            seen = set()
            for target, coeff in targets:
                if target in seen:
                    raise CircuitConfigError(
                        f"{self.name or 'transform'}: duplicate target {target} "
                        f"for source {source}"
                    )
                seen.add(target)
                if coeff.order:
                    raise CircuitConfigError("transform coefficients carry no gamma")
        sources = list(self.rules)
        for i, si in enumerate(sources):
            row_i = dict(self.rules[si])
            for sj in sources[i:]:
                inner = ZERO
                for target, coeff in self.rules[sj]:
                    if target in row_i:
                        inner = inner + row_i[target].conjugate() * coeff
                if inner != (ONE if si == sj else ZERO):
                    raise CircuitConfigError(
                        f"{self.name or 'transform'}: rule columns for {si} and {sj} "
                        f"are not orthonormal (inner product {inner})"
                    )

    def apply(self, state: StatePolynomial) -> StatePolynomial:
        return substitute(state, self)

    def then(self, other: "ModeTransform") -> "ModeTransform":
        """The composite transform: ``self`` first, then ``other``.

        The composite is defined on the chain's external inputs: a source
        of ``other`` that ``self`` already produces as an output is an
        internal mode of the chain (its action is folded into the chained
        rules), not an independent source of the composite.
        """
        consumed = {mode for targets in self.rules.values() for mode, _ in targets}
        rules: dict = {}
        for source in self.rules:
            image = other.apply(self.apply(creation(source)))  # one photon in each term
            rules[source] = _sorted_targets((mode, c) for ((mode, _),), c in image.terms.items())
        for source, targets in other.rules.items():
            if source not in rules and source not in consumed:
                rules[source] = targets
        name = f"{self.name}>{other.name}" if self.name and other.name else ""
        return ModeTransform(rules, name)


def _sorted_targets(targets) -> RuleTargets:
    return tuple(sorted(targets, key=lambda kv: kv[0].sort_key))


def _make_rules(pairs) -> dict:
    rules: dict = {}
    for source, targets in pairs:
        if source in rules:
            raise CircuitConfigError(f"duplicate source mode {source}")
        rules[source] = _sorted_targets(targets)
    return rules


def _carried_polarizations(beam: Beam) -> Tuple[Polarization, ...]:
    return tuple(pol for pol in Polarization if (beam, pol) in MODE_NAMES)


def _output_mode(beam: Beam, pol: Polarization, context: str) -> Mode:
    try:
        return Mode(beam, pol)
    except InvalidModeError:
        raise CircuitConfigError(
            f"{context}: output beam {beam.value!r} cannot carry "
            f"polarization {pol.value!r}"
        ) from None


def beamsplitter_5050(input_beam: Beam, out1_beam: Beam, out2_beam: Beam) -> ModeTransform:
    """Polarization-independent 50/50 splitter: in_X -> (out1_X + out2_X)/sqrt2."""
    if len({input_beam, out1_beam, out2_beam}) != 3:
        raise CircuitConfigError("beamsplitter beams must be three distinct labels")
    pairs = []
    for pol in _carried_polarizations(input_beam):
        targets = [
            (_output_mode(out1_beam, pol, "beamsplitter"), INV_SQRT2),
            (_output_mode(out2_beam, pol, "beamsplitter"), INV_SQRT2),
        ]
        pairs.append((Mode(input_beam, pol), targets))
    return ModeTransform(_make_rules(pairs), name=f"BS({input_beam.value})")


def polarizing_beamsplitter(
    input_beams: Sequence[Beam], transmit_beam: Beam, reflect_beam: Beam
) -> ModeTransform:
    """Polarizing splitter: transmits H, reflects V.

    With two inputs the second enters through the opposite port, so its H
    component is transmitted into ``reflect_beam`` and its V component is
    reflected into ``transmit_beam``.
    """
    inputs = list(input_beams)
    if not 1 <= len(inputs) <= 2:
        raise CircuitConfigError("a polarizing beamsplitter takes one or two inputs")
    if len(set(inputs)) != len(inputs):
        raise CircuitConfigError("duplicate input beams")
    if set(inputs) & {transmit_beam, reflect_beam}:
        raise CircuitConfigError("input beams must be distinct from output beams")
    ports = {
        inputs[0]: {Polarization.H: transmit_beam, Polarization.V: reflect_beam},
    }
    if len(inputs) == 2:
        ports[inputs[1]] = {
            Polarization.H: reflect_beam,
            Polarization.V: transmit_beam,
        }
    pairs = []
    for beam, port_map in ports.items():
        for pol in _carried_polarizations(beam):
            out = _output_mode(port_map[pol], pol, "polarizing beamsplitter")
            pairs.append((Mode(beam, pol), [(out, ONE)]))
    label = "+".join(b.value for b in inputs)
    return ModeTransform(_make_rules(pairs), name=f"PBS({label})")


def half_wave_plate_22_5(input_beam: Beam) -> ModeTransform:
    """Wave plate rotating a V-only arm onto 45° in arm a_45: V -> (H + V)/sqrt2.

    The arm is V-only by construction; a beam that can carry H is rejected
    as a modeling error.
    """
    carried = _carried_polarizations(input_beam)
    if Polarization.H in carried:
        raise CircuitConfigError(
            f"half-wave plate arm {input_beam.value!r} must carry only V polarization"
        )
    if carried != (Polarization.V,):
        raise CircuitConfigError(f"beam {input_beam.value!r} carries no V polarization")
    source = Mode(input_beam, Polarization.V)
    targets = [(Mode(Beam.A_45, pol), INV_SQRT2) for pol in (Polarization.H, Polarization.V)]
    return ModeTransform(_make_rules([(source, targets)]), name=f"WP({input_beam.value})")


class OpticalCircuit(Record):
    """An ordered list of mode transforms, applied left to right."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: Sequence[ModeTransform] = ()) -> None:
        self._set(tuple(elements))

    def apply(self, state: StatePolynomial) -> StatePolynomial:
        for element in self.elements:
            state = element.apply(state)
        return state

    def compose(self) -> ModeTransform:
        """Collapse the element list into one equivalent transform."""
        if not self.elements:
            return ModeTransform({}, name="identity")
        composite = self.elements[0]
        for element in self.elements[1:]:
            composite = composite.then(element)
        return composite


def innsbruck_circuit() -> OpticalCircuit:
    """The full three-station arrangement.

    Composed action on the pump-side modes::

        aH -> a_H                    (trigger arm, pass-through)
        aV -> (h_H + z_V)/sqrt2      (wave plate, then second PBS)
        bH -> (z_H + g_H)/sqrt2      (50/50 splitter, then second PBS)
        bV -> (h_V + g_V)/sqrt2
    """
    pbs1 = polarizing_beamsplitter([Beam.A], transmit_beam=Beam.A_H, reflect_beam=Beam.A_V)
    waveplate = half_wave_plate_22_5(Beam.A_V)
    splitter = beamsplitter_5050(Beam.B, Beam.C, Beam.G)
    pbs2 = polarizing_beamsplitter([Beam.C, Beam.A_45], transmit_beam=Beam.Z, reflect_beam=Beam.H)
    return OpticalCircuit((pbs1, waveplate, splitter, pbs2))


# a transform's rules: each source mode's name -> its [{mode, amplitude}] targets
RULES = mapping_codec(MODE, sequence_codec(tuple_codec(("mode", MODE), ("amplitude", AMPLITUDE))))
TRANSFORM = record_codec(ModeTransform, ("name", "name", TEXT), ("rules", "rules", RULES))
# ``ghzsim dump-circuit``'s payload: the elements and, derived from them, the
# composed rules; a decoded element runs the same isometry check as a built one
CIRCUIT = derived_codec(
    record_codec(OpticalCircuit, ("elements", "elements", sequence_codec(TRANSFORM))),
    "composed", lambda circuit: RULES[0](circuit.compose().rules),
)


def transform_text(transform: ModeTransform) -> str:
    """One rule per line: ``source -> coeff*target + coeff*target``."""
    lines = []
    for source in sorted(transform.rules, key=lambda m: m.sort_key):
        targets = transform.rules[source]
        rhs = " + ".join(
            f"({render_amplitude(coeff)})*{mode.name}" for mode, coeff in targets
        )
        lines.append(f"{source.name} -> {rhs}")
    return "\n".join(lines)


def circuit_text(circuit: OpticalCircuit) -> str:
    """Text dump of each element followed by the composed transform."""
    sections = []
    for element in circuit.elements:
        sections.append(f"# {element.name}\n{transform_text(element)}")
    composed = circuit.compose()
    sections.append(f"# composed\n{transform_text(composed)}")
    return "\n\n".join(sections) + "\n"

