import json
from itertools import combinations

import pytest

from trikernel.cli import main
from trikernel.graph import load_graph
from trikernel.rules import replay_trace, trace_from_json


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in combinations(range(4), 2)))
    return path


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text("\n".join(f"{u} {v}" for u, v in combinations(range(5), 2)))
    return path


class TestKernelizeCommand:
    def test_k4_etp_yes(self, k4_file, capsys):
        assert main(["kernelize", "--problem", "etp", "--k", "1",
                     str(k4_file)]) == 0
        out = capsys.readouterr().out
        assert "verdict: yes" in out

    def test_k4_etc_yes_at_two(self, k4_file, capsys):
        assert main(["kernelize", "--problem", "etc", "--k", "2",
                     str(k4_file)]) == 0
        assert "verdict: yes" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["kernelize", "--problem", "etp", "--k", "1",
                     str(tmp_path / "nope.txt")]) == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nwat")
        assert main(["kernelize", "--problem", "etp", "--k", "1",
                     str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_output_files(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n0 2\n1 2\n2 3\n")
        out = tmp_path / "run"
        assert main(["kernelize", "--problem", "etc", "--k", "1", "--out",
                     str(out), str(path)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["verdict"] == "reduced"
        assert stats["n_reduced"] == 3
        reduced = load_graph((out / "reduced.edgelist").read_text())
        assert reduced.m == 3
        trace = trace_from_json((out / "trace.json").read_text())
        original = load_graph(path.read_text())
        assert replay_trace(original, trace).edges() == reduced.edges()

    def test_identical_manifest_gives_identical_bytes(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n0 5\n1 5\n")
        out = tmp_path / "run"
        args = ["kernelize", "--problem", "etp", "--k", "3", "--out",
                str(out), str(path)]
        assert main(args) == 0
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(args) == 0
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert first == second

    def test_an_etc_trace_of_every_event_kind_is_the_json_bytes(self, tmp_path,
                                                               capsys):
        # an exclusive K4 (R3), a bowtie (R4) and a triangle spanned by three
        # fans (R9), apart from each other
        edges = [(u, v) for u, v in combinations(range(4), 2)]
        edges += [(10, 11), (10, 12), (11, 12), (10, 13), (10, 14), (13, 14)]
        edges += [(20, 21), (20, 22), (21, 22)]
        edges += [(f, end) for f in (23, 24, 25) for end in (20, 21)]
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{u} {v}" for u, v in edges))
        out = tmp_path / "run"
        args = ["kernelize", "--problem", "etc", "--k", "5", "--out",
                str(out), str(path)]
        assert main(args) == 0
        text = (out / "trace.json").read_text()
        trace = trace_from_json(text)
        assert {"R3", "R4", "R9"} <= {ev.rule for ev in trace}
        assert [ev.k_delta for ev in trace if ev.rule == "R3"] == [-2]
        assert text == json.dumps({"events": [ev.to_json() for ev in trace]},
                                  indent=1)
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        assert main(args) == 0
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first

    def test_oversized_dimacs_header_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.col"
        path.write_text("p edge 1000000000 0\n")
        assert main(["kernelize", "--problem", "etp", "--k", "1",
                     "--format", "dimacs", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_broken_invariant_is_one_line_and_exit_one(self, k5_file, capsys,
                                                        monkeypatch):
        import trikernel.rules as rules_mod

        def broken(g, s, spanners=None):
            return s.sorted_triangles()[0], [(90, 91, 92), (93, 94, 95)]

        monkeypatch.setattr(rules_mod, "find_augment_one", broken)
        assert main(["kernelize", "--problem", "etp", "--k", "4",
                     str(k5_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal invariant failed: ")
        assert err.count("\n") == 1

    def test_dimacs_input(self, tmp_path, capsys):
        path = tmp_path / "tri.col"
        path.write_text("c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert main(["kernelize", "--problem", "etp", "--k", "1",
                     "--format", "dimacs", str(path)]) == 0
        assert "reduced" in capsys.readouterr().out


class TestSolveCommand:
    def test_k5_etp_two_is_yes_with_witness(self, k5_file, capsys):
        assert main(["solve", "--problem", "etp", "--k", "2",
                     str(k5_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("yes")
        assert "2 triangles" in out

    def test_k5_etp_three_is_no(self, k5_file, capsys):
        assert main(["solve", "--problem", "etp", "--k", "3",
                     str(k5_file)]) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_k4_cover_witness(self, k4_file, capsys):
        assert main(["solve", "--problem", "etc", "--k", "2",
                     str(k4_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("yes") and "2 edges" in out

    def test_budget_refusal_exits_three(self, tmp_path):
        lines = []
        for i in range(61):
            a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
            lines += [f"{a} {b}", f"{a} {c}", f"{b} {c}"]
        path = tmp_path / "many.txt"
        path.write_text("\n".join(lines))
        assert main(["solve", "--problem", "etp", "--k", "61",
                     str(path)]) == 3

    def test_kernel_shrinks_before_solving(self, tmp_path, capsys):
        # 40 spanned triangles: far beyond the oracle budget before
        # reduction, trivial after it
        lines = []
        base = 0
        for _ in range(40):
            u, v, w, x = base, base + 1, base + 2, base + 3
            lines += [f"{u} {v}", f"{u} {w}", f"{v} {w}",
                      f"{x} {u}", f"{x} {v}"]
            base += 4
        path = tmp_path / "fans.txt"
        path.write_text("\n".join(lines))
        assert main(["solve", "--problem", "etp", "--k", "40",
                     str(path)]) == 0
        assert capsys.readouterr().out.startswith("yes")


def assert_one_error_line(capsys) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["kernelize", "solve", "audit"])
def test_a_non_utf8_graph_file_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    path.write_bytes("0 1\n1 2\n0 2\n# caf\u00e9\n".encode("latin-1"))
    assert main([command, "--problem", "etp", "--k", "1", str(path)]) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["kernelize", "audit"])
def test_out_naming_a_file_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "tri.txt"
    path.write_text("0 1\n0 2\n1 2\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "--problem", "etp", "--k", "1", "--out", str(taken),
                 str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert taken.read_text() == ""


def test_solve_has_no_out_option(tmp_path, capsys, k4_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "etp", "--k", "1", "--out",
              str(tmp_path / "run"), str(k4_file)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def assert_refused_before_any_instance(capsys, monkeypatch, argv) -> None:
    """``main(argv)`` exits 2 with one ``error:`` line and runs no instance."""
    import trikernel.cli as cli_mod

    def never(payload):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(cli_mod, "_verify_one", never)
    assert main(argv) == 2
    assert_one_error_line(capsys)


class TestVerifyCommand:
    def test_small_corpus_passes(self, capsys):
        assert main(["verify", "--instances", "10", "--seed", "5"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_inline_generator_corpus(self, capsys):
        assert main(["verify", "--kind", "crown_gadgets", "--count", "1",
                     "--fans", "3", "--instances", "4", "--seed", "2"]) == 0
        assert "0 mismatches" in capsys.readouterr().out

    def test_manifest_corpus(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.json"
        manifest.write_text(json.dumps([
            {"kind": "erdos_renyi", "seed": 1, "n": 8, "p": 0.5},
            {"kind": "planted_packing", "seed": 2, "count": 2, "noise": 2},
        ]))
        assert main(["verify", "--manifest", str(manifest)]) == 0

    def test_empty_corpus_warns(self, tmp_path, capsys):
        manifest = tmp_path / "empty.json"
        manifest.write_text("[]")
        assert main(["verify", "--manifest", str(manifest)]) == 0
        assert "empty corpus" in capsys.readouterr().out

    @pytest.mark.parametrize("manifest, flags", [
        ([1], None),
        ({"kind": 1}, None),
        ([{"seed": 1}], None),
        ([{"kind": "nope", "seed": 1}], None),
        ([{"kind": "erdos_renyi", "seed": 1, "n": "8"}], None),
        (None, ["--kind", "nope"]),
        (None, ["--kind", "erdos_renyi", "--n", "-3"]),
        (None, ["--kind", "crown_gadgets", "--fans", "1"]),
        ([{"kind": "erdos_renyi", "seed": 1, "n": 8, "pp": 0.5}], None),
    ])
    def test_bad_spec_is_input_error(self, tmp_path, capsys, monkeypatch,
                                     manifest, flags):
        if flags is None:
            path = tmp_path / "corpus.json"
            path.write_text(json.dumps(manifest))
            flags = ["--manifest", str(path)]
        assert_refused_before_any_instance(capsys, monkeypatch, ["verify", *flags])

    def test_deeply_nested_manifest_is_input_error(self, tmp_path, capsys,
                                                   monkeypatch):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        assert_refused_before_any_instance(
            capsys, monkeypatch, ["verify", "--manifest", str(path)])

    def test_a_spec_beyond_max_n_is_skipped_before_it_is_drawn(
            self, tmp_path, capsys, monkeypatch):
        import trikernel.cli as cli_mod

        def never(spec):
            raise AssertionError(f"{spec} was drawn")

        monkeypatch.setattr(cli_mod, "generate", never)
        path = tmp_path / "big.json"
        path.write_text(json.dumps([
            {"kind": "erdos_renyi", "seed": 0, "n": 6000, "p": 0.9},
            {"kind": "planted_packing", "seed": 0, "count": 3_000_000},
        ]))
        assert main(["verify", "--manifest", str(path)]) == 0
        assert "over 2 instances (2 skipped)" in capsys.readouterr().out

    def test_injected_rule_bug_is_caught(self, capsys, monkeypatch):
        # mutation harness: corrupt the pruning rule so it deletes a vertex
        # that sits inside a triangle; verify must flag mismatches
        import trikernel.rules as rules_mod
        original = rules_mod.find_prunable

        def broken(g):
            for u, v in g.edges():
                common = g.common_neighbors(u, v)
                if common:
                    return [min(common | {u, v})], []
            return original(g)

        monkeypatch.setattr(rules_mod, "find_prunable", broken)
        assert main(["verify", "--instances", "8", "--seed", "4"]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, capsys, monkeypatch, jobs):
        assert_refused_before_any_instance(
            capsys, monkeypatch, ["verify", "--instances", "2", "--jobs", jobs])

    @pytest.mark.parametrize("flags", [["--instances", "-3"],
                                       ["--kind", "erdos_renyi", "--instances", "-2"]])
    def test_negative_instances_is_input_error(self, capsys, monkeypatch, flags):
        assert_refused_before_any_instance(capsys, monkeypatch, ["verify", *flags])

    @pytest.mark.parametrize("flags", [["--max-n", "-1"],
                                       ["--kind", "erdos_renyi", "--max-n", "-5"]])
    def test_negative_max_n_is_input_error(self, capsys, monkeypatch, flags):
        assert_refused_before_any_instance(capsys, monkeypatch, ["verify", *flags])

    @pytest.mark.parametrize("flags", [[], ["--kind", "erdos_renyi"]])
    def test_zero_instances_warns(self, capsys, flags):
        assert main(["verify", "--instances", "0", *flags]) == 0
        assert "empty corpus" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs, instances, cpus, workers", [
        (5000, 2, 4, 2),
        (5000, 6, 4, 4),
        (3, 6, 4, 3),
        (5000, 6, None, None),
        (1, 6, 4, None),
    ])
    def test_workers_are_capped_by_instances_and_cpus(self, capsys, monkeypatch,
                                                      jobs, instances, cpus,
                                                      workers):
        import trikernel.cli as cli_mod
        pools = []

        class SerialPool:  # records its size, starts no process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: cpus)
        flags = ["verify", "--instances", str(instances), "--seed", "9"]
        assert main([*flags, "--jobs", str(jobs)]) == 0
        assert pools == ([] if workers is None else [workers])
        pooled = capsys.readouterr().out
        assert main(flags) == 0
        assert capsys.readouterr().out == pooled

    def test_parallel_jobs_agree_with_serial(self, capsys):
        assert main(["verify", "--instances", "6", "--seed", "9",
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["verify", "--instances", "6", "--seed", "9"]) == 0
        assert capsys.readouterr().out == parallel


class TestAuditCommand:
    def test_single_triangle_passes(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("0 1\n0 2\n1 2\n")
        out = tmp_path / "audit"
        assert main(["audit", "--problem", "etp", "--k", "1", "--out",
                     str(out), str(path)]) == 0
        text = capsys.readouterr().out
        assert "[pass] final_bound" in text
        report = json.loads((out / "audit.json").read_text())
        assert report["passed"] is True

    def test_dissolving_graph_has_nothing_to_audit(self, tmp_path, capsys):
        path = tmp_path / "c5.txt"
        path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
        assert main(["audit", "--problem", "etp", "--k", "2",
                     str(path)]) == 0
        assert "no residual graph" in capsys.readouterr().out

    def test_crown_corpus_audits_pass(self, tmp_path, capsys):
        from trikernel.gen import GenSpec, generate
        from trikernel.graph import dump_edgelist
        for seed in range(3):
            g = generate(GenSpec("crown_gadgets", seed=seed, count=2, fans=3))
            path = tmp_path / f"crown{seed}.txt"
            path.write_text(dump_edgelist(g))
            code = main(["audit", "--problem", "etc", "--k", "2", str(path)])
            assert code == 0
            assert "FAIL" not in capsys.readouterr().out
