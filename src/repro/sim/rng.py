"""Named random streams and keyed loss lanes.

Every stochastic component of an experiment (topology, tree growth, each
protocol's timers, faults, jitter) draws from its own ``numpy``
Generator derived from a single experiment seed via
``SeedSequence.spawn``-style keyed derivation.  Two consequences we rely
on:

* experiments are exactly reproducible from one integer seed;
* changing how many random numbers one component consumes (say, a
  protocol draws an extra timer) does not perturb any other component,
  so protocol comparisons stay paired on identical topologies and can
  share loss realizations when configured to.

Link loss is not sequential at all.  A :class:`LossLane` is keyed once
from its stream and then answers every loss draw as a pure function of
the traversal's identity — counter-based, in the sense of Salmon et
al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC'11), with
splitmix64 as the mixing function.  A traversal's fate therefore cannot
depend on what else is in flight or on the order the simulator resolves
traversals in, which is what lets the network resolve a whole journey
in numpy at send time and still agree bit for bit with the hop-by-hop
walkers.
"""

from __future__ import annotations

import numpy as np

from repro.sim.packet import Packet, PacketKind


class RngStreams:
    """A family of independently-seeded generators keyed by name."""

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The stream is seeded from ``(experiment seed, stable hash of
        name)`` so the mapping is stable across runs and processes
        (``hash()`` is salted per process, so we roll our own).
        """
        stream = self._streams.get(name)
        if stream is None:
            key = _stable_key(name)
            stream = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            )
            self._streams[name] = stream
        return stream

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.get(name)


def _stable_key(name: str) -> int:
    """FNV-1a over the UTF-8 bytes — stable across processes/platforms."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
#: 53-bit mantissa scale: ``(z >> 11) * _UNIT`` is uniform in [0, 1).
_UNIT = 2.0**-53


def _mix(z: int) -> int:
    """splitmix64: one bijective 64-bit mixing step."""
    z = (z + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix` over a ``uint64`` array (wrapping arithmetic is the
    ``& _MASK`` of the scalar form, so the two agree bit for bit)."""
    z = z + np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    return z ^ (z >> np.uint64(31))


_KIND_CODE = {kind: code for code, kind in enumerate(PacketKind)}


class LossLane:
    """Counter-based uniforms for link-loss draws.

    ``u = f(key, journey, link, direction)``: :meth:`journey` folds the
    lane key, the packet's identity (kind, seq, origin, highest_seq,
    req_id, chain_index — never its trace context), the sender and the
    sender's attempt number for that identity into one 64-bit word;
    :meth:`uniform` (scalar, for the hop-by-hop walkers) and
    :meth:`uniforms` (numpy, for the array path) map a journey and a
    directed link ``frm -> to`` — the word ``frm << 32 | to`` — to a
    uniform in [0, 1).  A traversal is lost iff its uniform is below the
    link's loss probability.

    Tests substitute a subclass to script exact losses.
    """

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key & _MASK

    @classmethod
    def seeded_by(cls, rng: "np.random.Generator | LossLane") -> "LossLane":
        """The lane keyed by one 64-bit draw from ``rng`` (a lane passes
        through unchanged)."""
        if isinstance(rng, LossLane):
            return rng
        return cls(int(rng.integers(0, _MASK, dtype=np.uint64, endpoint=True)))

    def journey(self, packet: Packet, sender: int, attempt: int):
        """The loss key of one send; opaque to callers."""
        # Fields packed 32 bits apiece (chain_index 24): injective for
        # any simulation whose node ids and sequence numbers fit.
        z = _mix(self.key ^ (
            _KIND_CODE[packet.kind]
            | (packet.chain_index & 0xFFFFFF) << 8
            | (packet.seq & 0xFFFFFFFF) << 32
        ))
        z = _mix(z ^ ((packet.origin & 0xFFFFFFFF) | (sender & 0xFFFFFFFF) << 32))
        z = _mix(z ^ (
            (packet.highest_seq & 0xFFFFFFFF)
            | (packet.req_id & 0xFFFFFFFF) << 32
        ))
        return _mix(z ^ attempt)

    def uniform(self, journey, frm: int, to: int) -> float:
        """Uniform of the traversal ``frm -> to`` within ``journey``."""
        return (_mix(journey ^ ((frm << 32) | to)) >> 11) * _UNIT

    def uniforms(self, journey, words: np.ndarray) -> np.ndarray:
        """:meth:`uniform` over a ``uint64`` array of ``frm << 32 | to``
        link words."""
        z = _mix_array(words ^ np.uint64(journey))
        return (z >> np.uint64(11)).astype(np.float64) * _UNIT
