"""Store-and-forward unicast simulator over random layered DAGs.

The source maps its codeword (a k-subset of constituent indices) to a
packet of k distinct nonzero symbols of F_q, index i to symbol i + 1,
with q prime and larger than the pool.  Composing the pool element
comes after decoding, so a trial reads only the code, F_q and the
topology.  Every intermediate node concatenates its incoming packets in
edge order, keeps the first occurrence of each distinct nonzero symbol
in a single scan, and forwards the first k of them; with fewer than k
distinct symbols the node declares a failure and stays silent.  The
sink does the same, pads missing positions with zeros, inverts the
symbol map (unknown nonzero symbols count as erasures) and hands the
recovered index set to the minimum distance decoder.

An adversary may substitute symbols on edges or erase whole edges:
each model's ``corrupt(edge, packet, q, rng)`` returns the packet that
arrives on an edge, or None when it is erased, and returns the very
packet it was given when it changed nothing.  A trial walks each node's
sorted tuple of predecessors and calls it on every in-edge whose tail
emitted a packet; ``apply_adversary`` is the batch form of the same
rule, over a dict of packets in flight.  Substituting a symbol by one
already present in the packet collapses at the dedup step, which is
exactly how erasures arise in this scheme.

Forwarding invariant: every packet a node emits holds k distinct
nonzero symbols (the source maps k distinct indices injectively, and
dedup emits nothing shorter).  Dedup returns such a packet unchanged
when it comes first, so a node whose first arriving packet is the one
its tail emitted forwards that packet without dedup.

All randomness is seeded; a trial is a pure function of its seeds.
``random_dag`` repairs an in-degree as ``random.Random.sample`` would:
the stdlib's pool branch is drawn inline, consuming exactly its words,
and its set branch is the stdlib's own call, so its DAGs are those a
``sample`` call gives; the tests compare the two on each interpreter
they run on.  The models with a ``seed`` field (random substitution,
edge erasure) draw from a ``random.Random`` seeded per trial; the
others never draw and get None.  ``run_experiment`` checks the pool
size once per run, and the adversary against the layers and q
(``check_adversary``); a single ``run_trial`` still refuses random
substitution over F_2 before its first draw.
"""

from __future__ import annotations

import csv
import enum
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from cwlattice.code import ConstantWeightCode, decode, guaranteed_correctable
from cwlattice.gf import is_prime, next_prime

Edge = tuple[int, int]
Packet = tuple[int, ...]


@dataclass(frozen=True)
class NetworkTopology:
    """Layered DAG with node 0 the source and the last node the sink.

    ``preds[v]`` is the sorted tuple of v's predecessors, the topology's
    one adjacency; a trial walks these tuples by node index, and
    ``edges`` and ``in_edges`` are read off them.  ``random_dag`` builds
    the tuples sorted as it draws; a hand-built topology comes from a
    checked edge list through ``from_edges``.
    """

    layer_sizes: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, layer_sizes: Sequence[int], edges: Iterable[Edge]) -> "NetworkTopology":
        """The topology of distinct edges that each run to a later layer and
        leave no node but the source without a predecessor."""
        edges = tuple(edges)
        if len(set(edges)) != len(edges):
            raise ValueError("edges must be distinct")
        layer_of = [layer for layer, size in enumerate(layer_sizes) for _ in range(size)]
        preds: list[list[int]] = [[] for _ in layer_of]
        for u, v in edges:
            fault = _edge_fault(layer_of, u, v)
            if fault:
                raise ValueError(fault)
            preds[v].append(u)
        for v in range(1, len(preds)):
            if not preds[v]:
                raise ValueError(f"node {v} has in-degree 0, need at least 1")
        return cls(tuple(layer_sizes), tuple(tuple(sorted(p)) for p in preds))

    @property
    def sink(self) -> int:
        return len(self.preds) - 1

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge (u, v), sorted."""
        return tuple(sorted((u, v) for v, pred in enumerate(self.preds) for u in pred))

    def in_edges(self, v: int) -> tuple[Edge, ...]:
        """The edges into node v, sorted.

        Trials read ``preds`` directly; this stays because the benchmark's
        tracer (``bench/tracing.py``) wraps it, until ROADMAP item 8.
        """
        return tuple((u, v) for u in self.preds[v])


def _edge_fault(layer_of: Sequence[int], u: int, v: int) -> str | None:
    """Why (u, v) cannot be an edge when node x lies in layer ``layer_of[x]``; None if it can."""
    if not (0 <= u < len(layer_of) and 0 <= v < len(layer_of)):
        return f"edge ({u}, {v}) names a node outside 0..{len(layer_of) - 1}"
    if layer_of[u] >= layer_of[v]:
        return f"edge ({u}, {v}) does not go to a later layer"
    return None


# random_dag draws one random() per candidate edge: about a second for
# 10**7 of them under CPython 3.11
MAX_CANDIDATE_EDGES = 10 ** 7


def _check_topology(layers: int, width: int, max_indegree: int, edge_density: float) -> None:
    if layers < 2:
        raise ValueError("need at least source and sink layers")
    if width < 1 or max_indegree < 1:
        raise ValueError("width and max_indegree must be positive")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge density must lie in [0, 1]")
    # every pair of nodes in different layers is a candidate edge
    nodes = (layers - 2) * width + 2
    candidates = nodes * (nodes - 1) // 2 - (layers - 2) * (width * (width - 1) // 2)
    if candidates > MAX_CANDIDATE_EDGES:
        raise ValueError(
            f"topology has {candidates} candidate edges, over the limit {MAX_CANDIDATE_EDGES}"
        )


def _layer_sizes(layers: int, width: int) -> tuple[int, ...]:
    """One source, ``layers - 2`` layers of ``width`` nodes, one sink."""
    return (1, *([width] * (layers - 2)), 1)


def _sorted_sample(rng: random.Random, chosen: Sequence[int], m: int) -> tuple[int, ...]:
    """``tuple(sorted(rng.sample(chosen, m)))``, consuming the same words.

    The stdlib's pool branch is drawn inline, each pick by the rejection
    draw of ``_randbelow_with_getrandbits`` (draw ``bit_length`` bits
    until below the bound); its set branch is the stdlib's own call.
    Needs 0 <= m <= len(chosen).
    """
    n = len(chosen)
    setsize = 21
    if m > 5:
        # 4 ** ceil(log(3m, 4)): 3m is never a power of 4, so this is the
        # least power of 4 above 3m
        setsize += 4 ** (((3 * m - 1).bit_length() + 1) // 2)
    if n > setsize:
        return tuple(sorted(rng.sample(chosen, m)))
    # pool branch: pick below the shrinking bound, then move the last
    # unpicked candidate into the vacancy
    pool = list(chosen)
    picks = []
    for bound in range(n, n - m, -1):
        bits = bound.bit_length()
        j = rng.getrandbits(bits)
        while j >= bound:
            j = rng.getrandbits(bits)
        picks.append(pool[j])
        pool[j] = pool[bound - 1]
    picks.sort()
    return tuple(picks)


def random_dag(
    layers: int,
    width: int,
    max_indegree: int,
    edge_density: float = 0.5,
    seed: int = 0,
) -> NetworkTopology:
    """Seeded random layered DAG; identical seeds give identical topologies.

    Layer 0 is the single source, the last layer the single sink, and
    the layers between hold ``width`` nodes each.  Candidate edges run
    from any earlier layer to any later node; after density sampling,
    each non-source node is repaired to in-degree between 1 and
    ``max_indegree``.  Candidates are scanned in ascending order and a
    repair sample is sorted, so each node's predecessor tuple is built
    sorted as it is drawn.  A layout of more than ``MAX_CANDIDATE_EDGES``
    candidates is refused before the first draw.

    Stream contract: one ``random.Random(seed)`` per DAG, one ``random()``
    per candidate edge, ``choice`` for a node that drew no edge, and a
    repair that consumes exactly the words ``random.Random.sample`` would
    (``_sorted_sample``), so a seed gives the same DAG as with ``sample``.
    """
    _check_topology(layers, width, max_indegree, edge_density)
    rng = random.Random(seed)
    draw = rng.random
    layer_sizes = _layer_sizes(layers, width)
    preds: list[tuple[int, ...]] = [()]
    first = 1  # first node of the current layer
    for size in layer_sizes[1:]:
        earlier = range(first)
        for _ in range(size):
            chosen = [u for u in earlier if draw() < edge_density]
            if not chosen:
                preds.append((rng.choice(earlier),))
            elif len(chosen) > max_indegree:
                preds.append(_sorted_sample(rng, chosen, max_indegree))
            else:
                preds.append(tuple(chosen))
        first += size
    return NetworkTopology(layer_sizes, tuple(preds))


@dataclass(frozen=True)
class SymbolMap:
    """The map index i <-> nonzero symbol i + 1 of F_q, for indices 0..n-1.

    Any injective map into the nonzero symbols would only relabel them
    and change no outcome rate, so the map is fixed.
    """

    q: int
    n: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"field size {self.q} is not prime")
        if self.n >= self.q:
            raise ValueError("need q > n to embed the pool in the nonzero symbols")

    @classmethod
    def default(cls, n: int) -> "SymbolMap":
        """The map over the smallest prime exceeding n."""
        return cls(q=next_prime(n), n=n)

    def encode(self, index: int) -> int:
        if not 0 <= index < self.n:
            raise ValueError(f"index {index} outside the map domain")
        return index + 1

    def decode(self, symbol: int) -> int | None:
        """Constituent index of a symbol, or None if not in the image."""
        return symbol - 1 if 0 < symbol <= self.n else None


def source_encode(codeword: Iterable[int], symbol_map: SymbolMap) -> Packet:
    return tuple(symbol_map.encode(i) for i in codeword)


def _first_distinct(incoming: Sequence[Packet], k: int) -> list[int]:
    """Up to k distinct nonzero symbols, first occurrences in scan order."""
    seen: set[int] = set()
    out: list[int] = []
    for packet in incoming:
        for s in packet:
            if s and s not in seen:
                seen.add(s)
                out.append(s)
                if len(out) == k:
                    return out
    return out


def node_process(incoming: Sequence[Packet], k: int) -> Packet | None:
    """First k distinct nonzero symbols in scan order, or None on failure."""
    out = _first_distinct(incoming, k)
    return tuple(out) if len(out) == k else None


@dataclass(frozen=True)
class RecoveredSet:
    """What the sink hands to the decoder."""

    indices: tuple[int, ...]
    invalid_symbols: int
    padded_zeros: int


def sink_recover(incoming: Sequence[Packet], k: int, symbol_map: SymbolMap) -> RecoveredSet:
    """Dedup like an intermediate node, zero-pad to k, invert the map.

    Nonzero symbols outside the map image are discarded and counted;
    they cost the decoder one erasure each.
    """
    symbols = _first_distinct(incoming, k)
    indices = [i for i in map(symbol_map.decode, symbols) if i is not None]
    return RecoveredSet(
        indices=tuple(sorted(indices)),
        invalid_symbols=len(symbols) - len(indices),
        padded_zeros=k - len(symbols),
    )


# ---------------------------------------------------------------------------
# adversary models

def _check_prob(prob: float) -> None:
    if isinstance(prob, bool) or not isinstance(prob, (int, float)) or not 0 <= prob <= 1:
        raise ValueError(f"prob must be a number in [0, 1], got {prob!r}")


@dataclass(frozen=True)
class NoAdversary:
    kind = "none"

    def corrupt(self, edge: Edge, packet: Packet, q: int, rng: random.Random) -> Packet | None:
        return packet


@dataclass(frozen=True)
class RandomSubstitution:
    """Each in-flight symbol is replaced, with the given probability,
    by a uniformly random different nonzero symbol."""

    prob: float
    seed: int = 0
    kind = "random_substitution"

    def __post_init__(self):
        _check_prob(self.prob)

    def corrupt(self, edge: Edge, packet: Packet, q: int, rng: random.Random) -> Packet | None:
        """The packet itself when no draw hit; a hit always changes its symbol."""
        draw = rng.random
        prob = self.prob
        out = None
        for i, s in enumerate(packet):
            if draw() < prob:
                if out is None:
                    out = list(packet)
                # uniform over the q - 2 nonzero symbols other than s
                x = rng.randrange(1, q - 1)
                out[i] = x + (x >= s)
        return packet if out is None else tuple(out)


@dataclass(frozen=True)
class TargetedSubstitution:
    """Rules (edge, old, new): on that edge every old symbol becomes new."""

    rules: tuple[tuple[Edge, int, int], ...]
    kind = "targeted_substitution"

    def __post_init__(self):
        for _, _, new in self.rules:
            if new == 0:
                raise ValueError("substitutions may not forge the zero symbol")

    def corrupt(self, edge: Edge, packet: Packet, q: int, rng: random.Random) -> Packet | None:
        for rule_edge, old, new in self.rules:
            if rule_edge == edge and old in packet:
                packet = tuple(new if s == old else s for s in packet)
        return packet


@dataclass(frozen=True)
class EdgeErasure:
    """Drop whole packets: the listed edges always, others with ``prob``."""

    prob: float = 0.0
    edges: tuple[Edge, ...] = ()
    seed: int = 0
    kind = "edge_erasure"

    def __post_init__(self):
        _check_prob(self.prob)

    def corrupt(self, edge: Edge, packet: Packet, q: int, rng: random.Random) -> Packet | None:
        if edge in self.edges or (self.prob and rng.random() < self.prob):
            return None
        return packet


Adversary = NoAdversary | RandomSubstitution | TargetedSubstitution | EdgeErasure


def apply_adversary(
    flight: dict[Edge, Packet],
    model: Adversary,
    q: int,
    rng: random.Random,
) -> dict[Edge, Packet]:
    """Corrupt the packets in flight in edge order; erased edges vanish from the dict.

    The batch form of what ``run_trial`` does edge by edge.  Trials do
    not call it; it stays because the benchmark's tracer
    (``bench/tracing.py``) wraps it, until ROADMAP item 8.
    """
    out: dict[Edge, Packet] = {}
    for edge in sorted(flight):
        packet = model.corrupt(edge, flight[edge], q, rng)
        if packet is not None:
            out[edge] = packet
    return out


def _adversary_rng(model: Adversary, trial_seed: int) -> random.Random | None:
    """The trial's seeded draws for a model with a ``seed`` field; None for one that never draws."""
    base = getattr(model, "seed", None)
    if base is None:
        return None
    return random.Random(f"adversary:{base}:{trial_seed}")


def _check_substitution_room(model: Adversary, q: int) -> None:
    """Random substitution that may act needs a second nonzero symbol to draw."""
    if isinstance(model, RandomSubstitution) and model.prob and q < 3:
        raise ValueError(f"random substitution needs q >= 3: F_{q} has no other nonzero symbol")


def check_adversary(model: Adversary, layer_sizes: Sequence[int], q: int) -> None:
    """Raise ValueError naming the first rule or listed edge no trial can use.

    Random substitution that may act needs q >= 3.  A rule's old and new
    symbols must be nonzero elements of F_q, and every edge must pass the
    check ``NetworkTopology.from_edges`` gives its edges (``_edge_fault``):
    it names nodes of the topology and runs to a later layer.  A model with no
    rules and no edges returns at once; otherwise the cost is
    O(nodes + rules + edges).
    """
    _check_substitution_room(model, q)
    rules = getattr(model, "rules", ())
    edges = getattr(model, "edges", ())
    if not (rules or edges):
        return
    layer_of = [layer for layer, size in enumerate(layer_sizes) for _ in range(size)]
    for i, (edge, old, new) in enumerate(rules):
        fault = _edge_fault(layer_of, *edge)
        for name, symbol in (("old", old), ("new", new)):
            if fault is None and not 1 <= symbol < q:
                fault = f"{name} symbol {symbol} is not a nonzero element of F_{q}"
        if fault:
            raise ValueError(f"rules[{i}]: {fault}")
    for i, edge in enumerate(edges):
        fault = _edge_fault(layer_of, *edge)
        if fault:
            raise ValueError(f"edges[{i}]: {fault}")


# ---------------------------------------------------------------------------
# trials

class Outcome(enum.Enum):
    SUCCESS = "success"
    DETECTED = "detected"
    WRONG = "wrong"
    NODE_FAILURE = "node_failure"


@dataclass(frozen=True)
class TrialResult:
    transmitted: tuple[int, ...]
    outcome: Outcome
    errors_at_sink: int
    erasures_at_sink: int
    received: tuple[int, ...]
    decoded: tuple[int, ...] | None
    ties: int


def run_trial(
    topology: NetworkTopology,
    code: ConstantWeightCode,
    symbol_map: SymbolMap,
    adversary: Adversary,
    message_index: int,
    trial_seed: int = 0,
) -> TrialResult:
    """One full source -> network -> sink -> decoder pass."""
    if symbol_map.n < code.n:
        # a SymbolMap has q > its own n, so this check also gives q > n
        raise ValueError("symbol map must cover the pool, so that q > n")
    q = symbol_map.q
    _check_substitution_room(adversary, q)
    transmitted = code.codewords[message_index]
    k = code.k
    corrupt = adversary.corrupt
    rng = _adversary_rng(adversary, trial_seed)
    preds = topology.preds
    sink = topology.sink

    # what each node forwards; None for a silent node
    emitted: list[Packet | None] = [None] * len(preds)
    emitted[0] = source_encode(transmitted, symbol_map)
    packets: list[Packet] = []
    intact = False
    # the last node is the sink, so the loop ends holding what reached it;
    # ascending predecessors are the sorted in-edge order of apply_adversary
    for v in range(1, sink + 1):
        packets = []
        for u in preds[v]:
            sent = emitted[u]
            if sent is not None:
                packet = corrupt((u, v), sent, q, rng)
                if packet is not None:
                    if not packets:
                        intact = packet is sent
                    packets.append(packet)
        if packets and v != sink:
            # an emitted packet holds k distinct nonzero symbols, so when the
            # first one arrives untouched, dedup would return it unchanged
            emitted[v] = packets[0] if intact else node_process(packets, k)

    if packets:
        received = sink_recover(packets, k, symbol_map).indices
        result = decode(received, code)
        decoded, ties = result.codeword, len(result.candidates)  # codeword is None on a tie
        if decoded is None:
            outcome = Outcome.DETECTED
        elif decoded == transmitted:
            outcome = Outcome.SUCCESS
        else:
            outcome = Outcome.WRONG
    else:
        received, decoded, ties, outcome = (), None, 0, Outcome.NODE_FAILURE
    return TrialResult(
        transmitted=transmitted, outcome=outcome,
        errors_at_sink=len(set(received) - set(transmitted)),
        # every one of the k positions not received is a padded zero or an invalid symbol
        erasures_at_sink=k - len(received),
        received=received, decoded=decoded, ties=ties,
    )


@dataclass(frozen=True)
class TopologySpec:
    """Parameters for regenerating a fresh random DAG per trial, range-checked."""

    layers: int
    width: int
    max_indegree: int
    edge_density: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _check_topology(self.layers, self.width, self.max_indegree, self.edge_density)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return _layer_sizes(self.layers, self.width)


@dataclass
class ExperimentStats:
    trials: int = 0
    counts: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    # trials within 2*(2t + e) < d_min that did not end in SUCCESS; must stay 0
    guarantee_violations: int = 0

    def rate(self, outcome: Outcome) -> float:
        return self.counts.get(outcome, 0) / self.trials if self.trials else 0.0

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "counts": {o.value: self.counts.get(o, 0) for o in Outcome},
            "rates": {o.value: self.rate(o) for o in Outcome},
            "guarantee_violations": self.guarantee_violations,
        }


def run_experiment(
    code: ConstantWeightCode,
    pool,
    symbol_map: SymbolMap,
    topology: NetworkTopology | TopologySpec,
    adversary: Adversary,
    trials: int,
    seed: int = 0,
    keep_results: bool = True,
) -> ExperimentStats:
    """Seeded batch of independent trials with per-outcome counts.

    Trials never read the pool: a pool other than None is only checked
    to have the code's n.  The adversary is checked once against the
    run's layer sizes and q (``check_adversary``); every DAG of the run
    has the same layers.  A code of one codeword has no minimum distance,
    so no guarantee to check: its ``guarantee_violations`` stays 0.
    """
    if pool is not None and pool.n != code.n:
        raise ValueError("pool size differs from the code's ground set")
    check_adversary(adversary, topology.layer_sizes, symbol_map.q)
    stats = ExperimentStats()
    has_distance = len(code) > 1
    topo, shape = topology, None
    if isinstance(topology, TopologySpec):
        shape = (topology.layers, topology.width, topology.max_indegree, topology.edge_density)
        topo_seed = topology.seed
    for t in range(trials):
        trial_rng = random.Random(f"experiment:{seed}:{t}")
        if shape is not None:
            topo = random_dag(*shape, seed=trial_rng.randrange(2 ** 32) ^ topo_seed)
        message = trial_rng.randrange(len(code))
        result = run_trial(topo, code, symbol_map, adversary, message, trial_seed=t ^ seed)
        stats.trials += 1
        stats.counts[result.outcome] = stats.counts.get(result.outcome, 0) + 1
        if (result.outcome is not Outcome.SUCCESS and has_distance
                and guaranteed_correctable(code, result.errors_at_sink, result.erasures_at_sink)):
            stats.guarantee_violations += 1
        if keep_results:
            stats.results.append(result)
    return stats


def write_csv(stats: ExperimentStats, path: str) -> None:
    """Columns: trial, outcome, t, e, decoded_ok."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "outcome", "t", "e", "decoded_ok"])
        for i, r in enumerate(stats.results):
            ok = int(r.outcome == Outcome.SUCCESS)
            writer.writerow([i, r.outcome.value, r.errors_at_sink, r.erasures_at_sink, ok])
