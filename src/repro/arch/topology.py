"""Butterfly network topology and routing (Section III-B/C).

The computational network of width ``C`` (a power of two) consists of
one layer of ``C`` multiplier nodes followed by ``log₂C`` stages of
``C`` multi-mode adder nodes — ``C(log₂C + 1)`` nodes total, matching
the occupancy-vector length of Section IV-B and the 192 nodes of the
C = 32 prototype in Fig. 8.

Stage ``s`` connects lane ``i`` with lane ``i XOR 2^s``; a flow from
input lane ``a`` to output lane ``d`` therefore crosses at stage ``s``
iff bit ``s`` of ``a XOR d`` is set (the XOR control-signal rule of
Fig. 6), and after stage ``s`` it occupies lane

    lane(s) = (a & ~mask) | (d & mask),   mask = 2^(s+1) − 1.

Two flows with the same destination merge at their first shared node
and follow one path afterwards — the property that makes single-
destination reductions (MAC) and single-source broadcasts (column
elimination) always routable.

Node occupancy is represented as a Python int bitmask:
bit ``i`` (``i < C``) = multiplier node of lane ``i``; bit
``C·(s+1) + i`` = adder node ``i`` of stage ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "Butterfly",
    "NodeMode",
    "RoutingConflict",
]


class RoutingConflict(ValueError):
    """Raised when a set of flows cannot share the network in one pass."""


class NodeMode:
    """2-bit adder-node control encodings (Fig. 5a)."""

    IDLE = 0
    PASS_DIRECT = 1
    PASS_CROSS = 2
    PASS_SUM = 3

    NAMES = {0: "idle", 1: "direct", 2: "cross", 3: "sum"}


@lru_cache(maxsize=None)
def _path_masks(c: int) -> tuple[int, ...]:
    """Adder-node mask of every ``src → dst`` path of a width-``c``
    network, indexed ``src * c + dst``.  A network has only C² paths
    and a compile walks them ~10⁵ times, so they are built once."""
    bf = Butterfly(c)
    masks = []
    for src in range(c):
        for dst in range(c):
            mask = 0
            for s, lane in bf.path_nodes(src, dst):
                mask |= bf.adder_bit(s, lane)
            masks.append(mask)
    return tuple(masks)


@dataclass(frozen=True)
class Butterfly:
    """Routing math for a butterfly network of width ``C``."""

    c: int

    def __post_init__(self) -> None:
        if self.c < 2 or self.c & (self.c - 1):
            raise ValueError("network width C must be a power of two >= 2")

    # ------------------------------------------------------------------
    @property
    def stages(self) -> int:
        """Number of adder stages (log₂C)."""
        return self.c.bit_length() - 1

    @property
    def num_nodes(self) -> int:
        """Total node count C(log₂C + 1)."""
        return self.c * (self.stages + 1)

    @property
    def latency(self) -> int:
        """Pipeline depth in cycles: RF read + multiplier + log₂C adder
        stages + RF write."""
        return self.stages + 3

    @property
    def control_bits(self) -> int:
        """Raw control-word width: 2 bits per node over adder stages
        (the paper's 2C·log₂C figure)."""
        return 2 * self.c * self.stages

    # ------------------------------------------------------------------
    # node indexing
    # ------------------------------------------------------------------
    def multiplier_bit(self, lane: int) -> int:
        """Occupancy bit of the multiplier node on ``lane``."""
        self._check_lane(lane)
        return 1 << lane

    def adder_bit(self, stage: int, lane: int) -> int:
        """Occupancy bit of adder node ``lane`` at ``stage``."""
        if not 0 <= stage < self.stages:
            raise ValueError(f"stage {stage} out of range")
        self._check_lane(lane)
        return 1 << (self.c * (stage + 1) + lane)

    def full_mask(self) -> int:
        """Occupancy mask covering every node (used by full-width ops)."""
        return (1 << self.num_nodes) - 1

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.c:
            raise ValueError(f"lane {lane} out of range for C={self.c}")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_lane(self, src: int, dst: int, stage: int) -> int:
        """Lane occupied by the ``src → dst`` flow after ``stage``."""
        mask = (1 << (stage + 1)) - 1
        return (src & ~mask) | (dst & mask)

    def path_nodes(self, src: int, dst: int) -> list[tuple[int, int]]:
        """The ``(stage, lane)`` adder nodes along the ``src → dst`` path."""
        self._check_lane(src)
        self._check_lane(dst)
        return [(s, self.route_lane(src, dst, s)) for s in range(self.stages)]

    def path_mask(self, src: int, dst: int) -> int:
        """Occupancy bits of the adder nodes along the ``src → dst``
        path (:meth:`path_nodes` as a mask, memoised per network)."""
        if not (0 <= src < self.c and 0 <= dst < self.c):
            self._check_lane(src)
            self._check_lane(dst)
        return _path_masks(self.c)[src * self.c + dst]

    def control_word(self, src: int, dst: int) -> int:
        """Per-stage cross/direct selector: bit ``s`` set = cross at
        stage ``s`` (the XOR rule of Fig. 6c)."""
        self._check_lane(src)
        self._check_lane(dst)
        return src ^ dst

    # ------------------------------------------------------------------
    # occupancy of the three routed primitives
    # ------------------------------------------------------------------
    def occupancy_reduce(
        self, sources: list[int], dest: int, *, use_multipliers: bool = True
    ) -> int:
        """Occupancy of a multi-source reduction into ``dest`` (MAC).

        Always routable: flows to a common destination merge (pass-sum)
        at their first shared node.
        """
        if not sources:
            raise ValueError("reduction needs at least one source")
        if len(set(sources)) != len(sources):
            raise RoutingConflict("duplicate source lanes in one reduction")
        mask = 0
        for a in sources:
            if use_multipliers:
                mask |= self.multiplier_bit(a)
            mask |= self.path_mask(a, dest)
        return mask

    def occupancy_broadcast(
        self, source: int, dests: list[int], *, use_multipliers: bool = True
    ) -> int:
        """Occupancy of a single-source broadcast (column elimination).

        The broadcast tree mirrors the reduction tree; per-destination
        coefficients are applied by the multiplier layer on the
        destination side (see DESIGN.md on multiplier placement).
        """
        if not dests:
            raise ValueError("broadcast needs at least one destination")
        if len(set(dests)) != len(dests):
            raise RoutingConflict("duplicate destination lanes in one broadcast")
        mask = 0
        for d in dests:
            if use_multipliers:
                mask |= self.multiplier_bit(d)
            mask |= self.path_mask(source, d)
        return mask

    def occupancy_permute(self, pairs: list[tuple[int, int]]) -> int:
        """Occupancy of a set of point-to-point flows (permutation).

        Raises :class:`RoutingConflict` when two flows need the same
        node — a butterfly is blocking, so arbitrary permutations must
        be decomposed into conflict-free passes by the compiler.
        """
        # Distinct sources, distinct destinations and pairwise disjoint
        # paths: the union of the memoised path masks.  Anything else
        # falls through to the node-by-node walk, which names the
        # colliding flows.
        c = self.c
        paths = _path_masks(c)
        mask = srcs_seen = dsts_seen = 0
        for a, d in pairs:
            if not (0 <= a < c and 0 <= d < c):
                break
            path = paths[a * c + d]
            if (srcs_seen >> a) & 1 or (dsts_seen >> d) & 1 or path & mask:
                break
            srcs_seen |= 1 << a
            dsts_seen |= 1 << d
            mask |= path
        else:
            return mask
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        srcs: set[int] = set()
        dsts: set[int] = set()
        mask = 0
        for a, d in pairs:
            if a in srcs:
                raise RoutingConflict(f"source lane {a} used twice")
            if d in dsts:
                raise RoutingConflict(f"destination lane {d} used twice")
            srcs.add(a)
            dsts.add(d)
            for s, lane in self.path_nodes(a, d):
                if (s, lane) in seen and seen[(s, lane)] != (a, d):
                    raise RoutingConflict(
                        f"flows {seen[(s, lane)]} and {(a, d)} collide at "
                        f"stage {s}, lane {lane}"
                    )
                seen[(s, lane)] = (a, d)
                mask |= self.adder_bit(s, lane)
        return mask

    def permute_routable(self, pairs: list[tuple[int, int]]) -> bool:
        """Whether the flows can share the network in one pass."""
        try:
            self.occupancy_permute(pairs)
        except RoutingConflict:
            return False
        return True

    # ------------------------------------------------------------------
    # full per-node mode words (Fig. 6) — used by tests and the
    # node-level execution path of the simulator
    # ------------------------------------------------------------------
    def modes_for_reduce(self, sources: list[int], dest: int) -> list[list[int]]:
        """Per-node modes (stage-major ``[stage][lane]``) of a reduction.

        A node on one inbound path selects that input; a node where two
        paths converge is set to pass-sum.
        """
        modes = [[NodeMode.IDLE] * self.c for _ in range(self.stages)]
        for a in sources:
            ctrl = self.control_word(a, dest)
            for s, lane in self.path_nodes(a, dest):
                incoming = (
                    NodeMode.PASS_CROSS if (ctrl >> s) & 1 else NodeMode.PASS_DIRECT
                )
                current = modes[s][lane]
                if current == NodeMode.IDLE:
                    modes[s][lane] = incoming
                elif current != incoming:
                    modes[s][lane] = NodeMode.PASS_SUM
        return modes

    def modes_for_broadcast(self, source: int, dests: list[int]) -> list[list[int]]:
        """Per-node modes of a broadcast tree.

        Every node forwards the single live input; convergence cannot
        happen, so pass-sum never appears.
        """
        modes = [[NodeMode.IDLE] * self.c for _ in range(self.stages)]
        for d in dests:
            ctrl = self.control_word(source, d)
            for s, lane in self.path_nodes(source, d):
                incoming = (
                    NodeMode.PASS_CROSS if (ctrl >> s) & 1 else NodeMode.PASS_DIRECT
                )
                current = modes[s][lane]
                if current not in (NodeMode.IDLE, incoming):
                    raise RoutingConflict(
                        "broadcast tree selected two inputs at one node"
                    )
                modes[s][lane] = incoming
        return modes

    def simulate_modes(
        self, inputs: list[float | None], modes: list[list[int]]
    ) -> list[float]:
        """Gate-level reference: push values through configured nodes.

        ``inputs[lane]`` is the post-multiplier value entering stage 0
        (``None`` = lane idle, treated as 0).  Returns the stage-
        ``log₂C`` output of every lane.  Used to cross-check that the
        mode words computed for MAC/broadcast produce the intended
        arithmetic.
        """
        values = [0.0 if v is None else float(v) for v in inputs]
        for s in range(self.stages):
            nxt = [0.0] * self.c
            for lane in range(self.c):
                mode = modes[s][lane]
                direct = values[lane]
                cross = values[lane ^ (1 << s)]
                if mode == NodeMode.IDLE:
                    nxt[lane] = 0.0
                elif mode == NodeMode.PASS_DIRECT:
                    nxt[lane] = direct
                elif mode == NodeMode.PASS_CROSS:
                    nxt[lane] = cross
                elif mode == NodeMode.PASS_SUM:
                    nxt[lane] = direct + cross
                else:  # pragma: no cover - defensive
                    raise ValueError(f"bad mode {mode}")
            values = nxt
        return values
