"""Seeded instance generators for corpus testing and acceptance runs.

Every generator is a pure function of its :class:`GenSpec`; identical specs
yield identical graphs byte for byte (string-seeded ``random.Random``, sorted
iteration everywhere).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph

KINDS = ("erdos_renyi", "planted_packing", "k4_gadgets", "crown_gadgets",
         "splittable_mix")


@dataclass(frozen=True)
class GenSpec:
    kind: str
    seed: int
    n: int = 0          # erdos_renyi: vertex count
    p: float = 0.0      # erdos_renyi: edge probability
    count: int = 1      # number of planted triangles / gadgets
    noise: int = 0      # extra random edges sprinkled on top
    fans: int = 2       # crown_gadgets: free vertices over the spanned edge

    def __post_init__(self) -> None:
        """Refuse, with ``ValueError``, a spec that no generator can draw."""
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        for name in ("seed", "n", "count", "noise", "fans"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} {getattr(self, name)!r} is not an integer")
        if type(self.p) not in (int, float):
            raise ValueError(f"p {self.p!r} is not a number")
        if self.kind == "erdos_renyi":
            if self.n < 0 or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"bad erdos_renyi parameters n={self.n} p={self.p}")
        elif self.count < 0 or self.noise < 0:
            raise ValueError(f"bad parameters count={self.count} noise={self.noise}")
        elif self.kind == "crown_gadgets" and self.fans < 2:
            raise ValueError(f"crown gadget needs fans >= 2, got {self.fans}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "n": self.n,
                "p": self.p, "count": self.count, "noise": self.noise,
                "fans": self.fans}

    @classmethod
    def from_json(cls, data: dict) -> "GenSpec":
        """The spec a JSON object describes; ``ValueError`` if there is none
        or the object holds a key that is not a field."""
        if not isinstance(data, dict) or "kind" not in data or "seed" not in data:
            raise ValueError(f"spec {data!r} is not an object with a kind and a seed")
        for key in data:
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"spec has unknown key {key!r}")
        return cls(**data)


def _rng(spec: GenSpec) -> random.Random:
    return random.Random(f"{spec.kind}:{spec.seed}")


def generate(spec: GenSpec) -> Graph:
    """The graph ``spec`` describes; a :class:`GenSpec` is valid once made."""
    if spec.kind == "erdos_renyi":
        return _erdos_renyi(spec.n, spec.p, _rng(spec))
    if spec.kind == "planted_packing":
        return _planted_packing(spec.count, spec.noise, _rng(spec))
    if spec.kind == "k4_gadgets":
        return _k4_gadgets(spec.count, spec.noise, _rng(spec))
    if spec.kind == "crown_gadgets":
        return _crown_gadgets(spec.count, spec.fans, spec.noise, _rng(spec))
    return _splittable_mix(spec.count, spec.noise, _rng(spec))


def vertex_count(spec: GenSpec) -> int:
    """``generate(spec).n``, without drawing the graph: noise only adds
    edges between vertices that are there already."""
    if spec.kind == "erdos_renyi":
        return spec.n
    if spec.kind == "planted_packing":
        return 3 * spec.count
    if spec.kind == "k4_gadgets":
        return 4 * spec.count
    if spec.kind == "crown_gadgets":
        return (3 + spec.fans) * spec.count
    # splittable_mix: bowties (5 vertices) and 3-fans (7) in turn
    return 6 * spec.count - spec.count % 2


def _erdos_renyi(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    return g


def _add_noise(g: Graph, noise: int, rng: random.Random,
               guard=None) -> None:
    """Sprinkle extra edges; a guard may veto candidate pairs."""
    verts = g.vertices()
    if len(verts) < 2:
        return
    attempts = 0
    added = 0
    while added < noise and attempts < 50 * (noise + 1):
        attempts += 1
        u, v = rng.sample(verts, 2)
        if g.has_edge(u, v):
            continue
        if guard is not None and not guard(u, v):
            continue
        g.add_edge(u, v)
        added += 1


def _planted_packing(count: int, noise: int, rng: random.Random) -> Graph:
    """``count`` vertex-disjoint triangles plus noise; extra edges only add
    triangles, so the packing number stays at least ``count``."""
    g = Graph()
    for i in range(count):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(b, c)
    _add_noise(g, noise, rng)
    return g


def _k4_gadgets(count: int, noise: int, rng: random.Random) -> Graph:
    """Disjoint exclusive K4s; noise edges are only added between vertices
    with no common neighbor, which keeps every K4 edge out of any external
    triangle."""
    g = Graph()
    for i in range(count):
        block = range(4 * i, 4 * i + 4)
        for u, v in combinations(block, 2):
            g.add_edge(u, v)
    _add_noise(g, noise, rng,
               guard=lambda u, v: not g.common_neighbors(u, v))
    return g


def _crown_gadgets(count: int, fans: int, noise: int,
                   rng: random.Random) -> Graph:
    """Per gadget: one triangle plus ``fans`` outside vertices all spanning
    the same triangle edge - the deficiency pattern the crown rule resolves."""
    g = Graph()
    base = 0
    for _ in range(count):
        u, v, w = base, base + 1, base + 2
        g.add_edge(u, v)
        g.add_edge(u, w)
        g.add_edge(v, w)
        for j in range(fans):
            x = base + 3 + j
            g.add_edge(x, u)
            g.add_edge(x, v)
        base += 3 + fans
    _add_noise(g, noise, rng)
    return g


def _splittable_mix(count: int, noise: int, rng: random.Random) -> Graph:
    """Bowties and shared-vertex triangle fans: cut vertices whose incident
    edges separate into triangle-disconnected parts, so splitting fires."""
    g = Graph()
    base = 0
    for i in range(count):
        blades = 2 + (i % 2)  # alternate bowties and 3-fans
        hub = base
        for _ in range(blades):
            a, b = base + 1, base + 2
            g.add_edge(hub, a)
            g.add_edge(hub, b)
            g.add_edge(a, b)
            base += 2
        base += 1
    _add_noise(g, noise, rng)
    return g


def corpus_specs(master_seed: int, size: int, profile: str) -> list[GenSpec]:
    """A deterministic mixed corpus.

    ``small`` keeps every graph at 12 vertices or fewer (oracle scale);
    ``kernel`` spans the full generator mix with Erdos-Renyi sizes 6..40.
    """
    rng = random.Random(f"corpus:{profile}:{master_seed}")
    specs: list[GenSpec] = []
    probabilities = (0.2, 0.35, 0.5, 0.65, 0.8)
    for i in range(size):
        seed = master_seed * 1_000_003 + i
        kind = KINDS[i % len(KINDS)]
        if profile == "small":
            if kind == "erdos_renyi":
                spec = GenSpec(kind, seed, n=rng.randint(4, 12),
                               p=rng.choice(probabilities))
            elif kind == "planted_packing":
                spec = GenSpec(kind, seed, count=rng.randint(1, 4),
                               noise=rng.randint(0, 4))
            elif kind == "k4_gadgets":
                spec = GenSpec(kind, seed, count=rng.randint(1, 3),
                               noise=rng.randint(0, 2))
            elif kind == "crown_gadgets":
                spec = GenSpec(kind, seed, count=1,
                               fans=rng.randint(2, 6), noise=rng.randint(0, 2))
            else:
                spec = GenSpec(kind, seed, count=rng.randint(1, 2),
                               noise=rng.randint(0, 2))
        elif profile == "kernel":
            if kind == "erdos_renyi":
                spec = GenSpec(kind, seed, n=rng.randint(6, 40),
                               p=rng.choice(probabilities))
            elif kind == "planted_packing":
                spec = GenSpec(kind, seed, count=rng.randint(1, 10),
                               noise=rng.randint(0, 12))
            elif kind == "k4_gadgets":
                spec = GenSpec(kind, seed, count=rng.randint(1, 6),
                               noise=rng.randint(0, 6))
            elif kind == "crown_gadgets":
                spec = GenSpec(kind, seed, count=rng.randint(1, 4),
                               fans=rng.randint(2, 6), noise=rng.randint(0, 6))
            else:
                spec = GenSpec(kind, seed, count=rng.randint(1, 5),
                               noise=rng.randint(0, 6))
        else:
            raise ValueError(f"unknown corpus profile {profile!r}")
        specs.append(spec)
    return specs
