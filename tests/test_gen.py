import pytest

from trikernel.gen import GenSpec, corpus_specs, generate, vertex_count
from trikernel.graph import Instance, Variant
from trikernel.oracle import solve_etp_exact
from trikernel.rules import kernelize


class TestDeterminism:
    @pytest.mark.parametrize("kind,params", [
        ("erdos_renyi", {"n": 10, "p": 0.5}),
        ("planted_packing", {"count": 3, "noise": 5}),
        ("k4_gadgets", {"count": 2, "noise": 3}),
        ("crown_gadgets", {"count": 2, "fans": 3, "noise": 2}),
        ("splittable_mix", {"count": 3, "noise": 4}),
    ])
    def test_same_spec_same_graph(self, kind, params):
        spec = GenSpec(kind, seed=7, **params)
        a = generate(spec)
        b = generate(spec)
        assert a.edges() == b.edges()
        assert a.vertex_set() == b.vertex_set()

    def test_different_seeds_differ(self):
        a = generate(GenSpec("erdos_renyi", seed=1, n=12, p=0.5))
        b = generate(GenSpec("erdos_renyi", seed=2, n=12, p=0.5))
        assert a.edges() != b.edges()

    def test_spec_json_roundtrip(self):
        spec = GenSpec("crown_gadgets", seed=9, count=2, fans=4, noise=1)
        assert GenSpec.from_json(spec.to_json()) == spec

    def test_spec_json_with_an_unknown_key_is_refused(self):
        with pytest.raises(ValueError, match="unknown key 'pp'"):
            GenSpec.from_json({"kind": "erdos_renyi", "seed": 1, "n": 8, "pp": 0.5})


class TestGuarantees:
    def test_planted_packing_keeps_its_triangles(self):
        spec = GenSpec("planted_packing", seed=3, count=3, noise=6)
        g = generate(spec)
        assert solve_etp_exact(g, budget=False).optimum >= 3

    def test_crown_gadget_triggers_the_crown_rule(self):
        g = generate(GenSpec("crown_gadgets", seed=1, count=1, fans=2))
        out = kernelize(Instance(g, 2, Variant.ETP))
        assert any(ev.rule == "R9" for ev in out.trace)

    def test_k4_gadget_triggers_the_k4_rule(self):
        g = generate(GenSpec("k4_gadgets", seed=1, count=2, noise=2))
        out = kernelize(Instance(g, 3, Variant.ETP))
        assert any(ev.rule == "R3" for ev in out.trace)

    def test_splittable_mix_triggers_splitting(self):
        g = generate(GenSpec("splittable_mix", seed=1, count=2))
        out = kernelize(Instance(g, 10, Variant.ETP))
        assert any(ev.rule == "R4" for ev in out.trace)

    def test_erdos_renyi_edge_count_scales(self):
        sparse = generate(GenSpec("erdos_renyi", seed=5, n=30, p=0.1))
        dense = generate(GenSpec("erdos_renyi", seed=5, n=30, p=0.8))
        assert sparse.m < dense.m
        assert sparse.n == dense.n == 30


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(GenSpec("barabasi", seed=1))

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            generate(GenSpec("erdos_renyi", seed=1, n=5, p=1.5))

    def test_negative_count(self):
        with pytest.raises(ValueError):
            generate(GenSpec("planted_packing", seed=1, count=-1))

    def test_crown_needs_two_fans(self):
        with pytest.raises(ValueError):
            generate(GenSpec("crown_gadgets", seed=1, count=1, fans=1))


class TestCorpus:
    def test_profiles_are_deterministic(self):
        assert corpus_specs(1, 20, "small") == corpus_specs(1, 20, "small")

    def test_small_profile_stays_small(self):
        for spec in corpus_specs(2, 50, "small"):
            assert generate(spec).n <= 12

    def test_kernel_profile_covers_all_kinds(self):
        kinds = {spec.kind for spec in corpus_specs(3, 25, "kernel")}
        assert len(kinds) == 5

    @pytest.mark.parametrize("profile", ["small", "kernel"])
    def test_vertex_count_is_the_drawn_graphs(self, profile):
        for spec in corpus_specs(3, 200, profile):
            assert vertex_count(spec) == generate(spec).n, spec

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            corpus_specs(1, 5, "huge")
