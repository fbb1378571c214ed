import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

import starcomp
from starcomp import cli, disjoint_union, eig_multiplicity, make_cocktail, parse_graph6, write_graph6
from starcomp.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main, write_json

from conftest import random_graph

# The benchmark's 2^19-mask int64 scan with the <b, j> test: 5005 candidates.
SCAN_ARGV = ["candidates", "--graph", "split:15,4", "--mu=-4", "--nonmain"]
THEOREM_ARGV = ["theorem", "--s", "6", "--t-max", "5"]
EXPLORE_ARGV = ["explore", "--s", "2..8", "--t", "2..8", "--mu=-10..3"]
EXTEND_ARGV = ["extend", "--graph", "split:10,3", "--mu=-3"]


@pytest.fixture(scope="module")
def schema():
    jsonschema = pytest.importorskip("jsonschema")
    text = (
        resources.files("starcomp") / "schemas" / "report.schema.json"
    ).read_text()
    return jsonschema.Draft7Validator(json.loads(text))


def run_json(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestSpectrum:
    def test_cocktail3(self, capsys, schema):
        code, data = run_json(capsys, "spectrum", "--graph", "cocktail:3")
        assert code == EXIT_OK
        schema.validate(data)
        assert data["roots"] == [
            {"value": "-2", "multiplicity": 2, "main": False},
            {"value": "0", "multiplicity": 3, "main": False},
            {"value": "4", "multiplicity": 1, "main": True},
        ]
        assert data["residual"] is None

    def test_split22_residual(self, capsys, schema):
        code, data = run_json(capsys, "spectrum", "--graph", "split:2,2")
        assert code == EXIT_OK
        schema.validate(data)
        assert [r["value"] for r in data["roots"]] == ["-1", "0"]
        assert all(r["main"] is False for r in data["roots"])
        assert data["residual"] == ["-4", "-1", "1"]

    def test_k1(self, capsys, schema):
        code, data = run_json(capsys, "spectrum", "--graph", "@")
        assert code == EXIT_OK
        schema.validate(data)
        assert data["roots"] == [{"value": "0", "multiplicity": 1, "main": True}]

    def test_large_constant_term(self, capsys, schema):
        # The char poly's constant term is ~10^16 here: rational roots come
        # from a root bound, not from the divisors of the constant term.
        g = disjoint_union(random_graph(60, random.Random(7)), make_cocktail(3))
        code, data = run_json(capsys, "spectrum", "--graph", write_graph6(g))
        assert code == EXIT_OK
        schema.validate(data)
        roots = {Fraction(r["value"]): r["multiplicity"] for r in data["roots"]}
        assert roots[-2] >= 2 and roots[0] >= 3 and roots[4] >= 1
        for value, mult in roots.items():
            assert eig_multiplicity(g, value) == mult
        # Every integer that the float spectrum meets is reported.
        near = {
            round(ev)
            for ev in np.linalg.eigvalsh(g.adj.astype(float))
            if abs(ev - round(ev)) < 1e-6
        }
        assert {x for x in near if eig_multiplicity(g, x)} == set(roots)
        residual_degree = len(data["residual"]) - 1 if data["residual"] else 0
        assert sum(roots.values()) + residual_degree == g.n


class TestStarsets:
    def test_octahedron(self, capsys, schema):
        code, data = run_json(
            capsys, "starsets", "--graph", "cocktail:3", "--mu", "-2"
        )
        assert code == EXIT_OK
        schema.validate(data)
        assert data["count"] == 12
        assert all(c["valid"] for c in data["certificates"])

    def test_text_and_json_carry_same_data(self, capsys):
        _, data = run_json(capsys, "starsets", "--graph", "cocktail:3", "--mu", "-2")
        _, text = run_text(capsys, "starsets", "--graph", "cocktail:3", "--mu", "-2")
        for star in data["star_sets"]:
            assert f"X = {star}" in text


class TestCandidates:
    def test_split_2_3_count_zero(self, capsys, schema):
        code, data = run_json(
            capsys, "candidates", "--graph", "split:2,3", "--mu", "-2", "--nonmain"
        )
        assert code == EXIT_OK
        schema.validate(data)
        assert data["count"] == 0

    def test_split_2_2(self, capsys, schema):
        code, data = run_json(
            capsys, "candidates", "--graph", "split:2,2", "--mu", "-2", "--nonmain"
        )
        assert code == EXIT_OK
        schema.validate(data)
        assert data["candidates"] == [[0, 2, 3], [1, 2, 3]]


class TestExtend:
    def test_octahedron_reproduction(self, capsys, schema):
        code, data = run_json(
            capsys,
            "extend",
            "--graph",
            "split:2,2",
            "--mu",
            "-2",
            "--nonmain",
            "--regular-only",
        )
        assert code == EXIT_OK
        schema.validate(data)
        assert len(data["maximal"]) == 1
        entry = data["maximal"][0]
        assert entry["regular"] == 4
        from starcomp import is_isomorphic

        assert is_isomorphic(parse_graph6(entry["graph6"]), make_cocktail(3))


class TestTheorem:
    def test_pass_lines(self, capsys, schema):
        code, data = run_json(capsys, "theorem", "--s", "3", "--t-max", "4")
        assert code == EXIT_OK
        schema.validate(data)
        assert data["passed"] is True
        assert [b["t"] for b in data["branches"]] == [2, 3, 4]
        assert [b["graphs"] for b in data["branches"]] == [1, 0, 0]

    def test_text_output(self, capsys):
        code, text = run_text(capsys, "theorem", "--s", "2", "--t-max", "3")
        assert code == EXIT_OK
        assert "t=2 mu=-2: PASS" in text
        assert "t=3 mu=-3: PASS" in text
        assert "overall: PASS" in text

    def test_failure_exit_code(self, capsys, monkeypatch):
        from starcomp.multipartite import TheoremBranch, TheoremReport
        from fractions import Fraction

        fake = TheoremReport(
            s=2,
            t_max=2,
            branches=(
                TheoremBranch(
                    t=2,
                    mu=Fraction(-2),
                    candidates=0,
                    graphs_found=0,
                    checks=(("unique-regular-graph", False, "found 0"),),
                    graph6=None,
                ),
            ),
        )
        monkeypatch.setattr(cli, "theorem_check", lambda s, t_max: fake)
        code, text = run_text(capsys, "theorem", "--s", "2", "--t-max", "2")
        assert code == EXIT_VERIFICATION
        assert "FAIL" in text


class TestExplore:
    def test_table(self, capsys, schema):
        code, data = run_json(
            capsys, "explore", "--s", "2..3", "--t", "2..3", "--mu=-3..-2"
        )
        assert code == EXIT_OK
        schema.validate(data)
        rows = {(r["s"], r["t"], r["mu"], r["a"], r["b"]) for r in data["rows"]}
        assert (2, 2, "-2", 1, 2) in rows
        assert (3, 2, "-2", 2, 2) in rows


class TestErrors:
    def test_bad_graph6(self, capsys, schema):
        code, data = run_json(capsys, "spectrum", "--graph", "E   ")
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "graph6-parse"

    def test_bad_mu(self, capsys):
        code, data = run_json(
            capsys, "starsets", "--graph", "cocktail:3", "--mu", "1.5"
        )
        assert code == EXIT_USAGE
        assert data["error"]["kind"] == "usage"

    def test_mu_not_eigenvalue(self, capsys, schema):
        code, data = run_json(
            capsys, "starsets", "--graph", "cocktail:3", "--mu", "7"
        )
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "precondition"

    def test_budget(self, capsys, schema):
        code, data = run_json(
            capsys,
            "starsets",
            "--graph",
            "cocktail:4",
            "--mu",
            "-2",
            "--budget",
            "3",
        )
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "budget"
        assert "C(8,3)" in data["error"]["detail"]

    def test_include_nonmaximal_budget(self, capsys, schema):
        # 180 sub-cliques over a 2^6 subset scan
        argv = ["extend", "--graph", "split:4,2", "--mu=-2", "--include-nonmaximal"]
        code, data = run_json(capsys, *argv, "--budget", "179")
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "budget"
        assert "180 sub-cliques" in data["error"]["detail"]
        code, data = run_json(capsys, *argv, "--budget", "180")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["candidates", "--graph", "split:2,2", "--mu=-2"],
        ["extend", "--graph", "split:2,2", "--mu=-2"],
        ["theorem", "--s", "3", "--t-max", "3"],
        ["starsets", "--graph", "cocktail:3", "--mu=-2"],
    ], ids=["candidates", "extend", "theorem", "starsets"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, capsys, schema, argv, threads):
        code, data = run_json(capsys, *argv, "--threads", threads)
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "usage"
        assert "threads must be at least 1" in data["error"]["detail"]

    def test_engine_restriction(self, capsys):
        code, data = run_json(
            capsys, "candidates", "--graph", "split:2,2", "--mu", "0"
        )
        assert code == EXIT_USAGE
        assert data["error"]["kind"] == "precondition"

    def test_precondition_kind_has_one_owner(self):
        # every precondition class shares one base; other ValueErrors are usage
        from starcomp.extend import EngineRestrictionError, MuIsEigenvalueError
        from starcomp.linalg import NotAnEigenvalueError, SingularResolventError
        from starcomp.multipartite import MuIsSplitEigenvalueError

        for cls in (EngineRestrictionError, MuIsEigenvalueError, MuIsSplitEigenvalueError,
                    NotAnEigenvalueError, SingularResolventError):
            assert cli._error_kind(cls("x")) == "precondition"
        assert cli._error_kind(ValueError("x")) == "usage"

    def test_default_budget_has_one_owner(self):
        from starcomp.starsets import DEFAULT_BUDGET

        args = cli.build_parser().parse_args(["starsets", "--graph", "cocktail:3", "--mu=-2"])
        assert args.budget == DEFAULT_BUDGET

    def test_text_errors_go_to_stderr(self, capsys):
        code = main(["spectrum", "--graph", "not a graph6@@"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize("spec", ["split:3", "split:a,b", "cocktail:x"])
    def test_bad_construction(self, capsys, schema, spec):
        code, data = run_json(capsys, "spectrum", "--graph", spec)
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "usage"
        assert spec in data["error"]["detail"]

    @pytest.mark.parametrize("s_range", ["4..2", "2-4", "a..b"])
    def test_bad_range(self, capsys, schema, s_range):
        code, data = run_json(capsys, "explore", "--s", s_range, "--t", "2..3", "--mu=-3..-2")
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "usage"
        assert s_range in data["error"]["detail"]

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_malformed_inputs_always_exit_2(self, capsys):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=8,
            ),
            st.sampled_from(["zz", "1.5", "--", "1/0", "nan"]),
        )
        def check(graph_text, mu_text):
            try:
                code = main(
                    ["--format", "json", "starsets", "--graph", graph_text, "--mu", mu_text]
                )
            except SystemExit as err:  # argparse rejections
                code = err.code
            capsys.readouterr()
            assert code in (EXIT_OK, EXIT_USAGE)
            # a malformed mu can never reach a successful run
            assert code == EXIT_USAGE

        check()


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, capsys):
        # every command that takes --threads accepts it and ignores it
        for argv in (
            ["candidates", "--graph", "split:5,3", "--mu", "-3", "--nonmain"],
            ["extend", "--graph", "split:3,2", "--mu", "-2", "--nonmain"],
            ["theorem", "--s", "3", "--t-max", "4"],
            ["starsets", "--graph", "cocktail:4", "--mu=-2"],
        ):
            outputs = set()
            for threads in ("1", "2", "8"):
                code = main(["--format", "json", *argv, "--threads", threads])
                assert code == EXIT_OK
                outputs.add(capsys.readouterr().out)
            assert len(outputs) == 1

    # Star-set reports recorded before the search enumerated row-matroid
    # bases, and the Petersen ones at mu = -2 (185 star sets) and mu = 3
    # (10) before the residual ran in int64; they list star sets in
    # combinations order.
    @pytest.mark.parametrize("graph, mu, digest", [
        ("cocktail:6", "-2", "98dbde78548691c5080143be9827a9916e5dc4808fa036f13f38ca4192bca790"),
        ("IheA@GUAo", "1", "ea7352febcf1f59f8e4eb75e6b3870c3e6413a6c4d96df5b57ee5a211f752efb"),
        ("IheA@GUAo", "-2", "51d289c45c1a72d540e512aae7da182e6fd0fa569898fac7b49eed6259716a8f"),
        ("IheA@GUAo", "3", "e8274e02fcd8c38f239e20b109e273a9e706d7a76abb51ee28757ac6cfee9827"),
    ], ids=["cocktail:6", "petersen", "petersen--2", "petersen-3"])
    def test_starsets_bytes_pinned(self, capsys, graph, mu, digest):
        code = main(["--format", "json", "starsets", "--graph", graph, f"--mu={mu}"])
        assert code == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "7717bb7a0d60cecfb3a9c776a85fc45151f67f97abe5803876a159020f8457c0"),
        ("text", "6921957baf66bc18b9632d2784e0f81deb3585133300787e7377cdded1fc64b3"),
    ])
    def test_candidates_bytes_pinned(self, capsys, fmt, digest):
        code = main(["--format", fmt, *SCAN_ARGV])
        assert code == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # The classification at s = 6 (its t = 2 branch carries the degree
    # balance detail) and the explorer grid, each in JSON and text.
    @pytest.mark.parametrize("argv, fmt, digest", [
        (THEOREM_ARGV, "json", "2a9ecc805998e414f720adb490e121e9cfbcfdbc35b47ed5bdac467282fc7ff2"),
        (THEOREM_ARGV, "text", "684fd529b5d5462d0e518a1fb1c03f1b6508377d12b6b981756bb9f485541c6b"),
        (EXPLORE_ARGV, "json", "ae901410a174daa774f926ee338f1d4773674290a4185665e2a6e3b69f113945"),
        (EXPLORE_ARGV, "text", "e3a45d7a50d2c3548409392702cadfaa4354693cd6db80d3e909239d42879967"),
    ], ids=["theorem-json", "theorem-text", "explore-json", "explore-text"])
    def test_theorem_and_explore_bytes_pinned(self, capsys, argv, fmt, digest):
        code = main(["--format", fmt, *argv])
        assert code == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # 420 candidates in main mode: a pair table of 420 x 420 values, each
    # classified in int64, and the graphs assembled from its masks.
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "d350fa7819a29092567a16334f4532ec24054936b5ad8a230afd899cedfafa10"),
        ("text", "2871b301009451dffa3b7495beb0bf14f1ee901cedd0288162c4bc050a2d995a"),
    ])
    def test_extend_bytes_pinned(self, capsys, fmt, digest):
        code = main(["--format", fmt, *EXTEND_ARGV])
        assert code == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    # The benchmark's classify workload (s = 8, t = 2..6) and a larger run
    # (s = 12, t = 2..8): each ends in the 2(s + 1)-vertex cocktail-party
    # graph, canonised twice, so the bytes pin the canonical forms as well.
    @pytest.mark.parametrize("s, t_max, digest", [
        (8, 6, "02a3cbc055ba8c34c9619d638b762bd3789d6db9fad2b65f0523915cc4ed462c"),
        (12, 8, "cfa93fef4b1dddba75d1071f839934b9ea6e53f34ccd67b92df8fa1447af08ee"),
    ], ids=["s8", "s12"])
    def test_classification_bytes_pinned(self, capsys, s, t_max, digest):
        code = main(["--format", "json", "theorem", "--s", str(s), "--t-max", str(t_max)])
        assert code == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestWriteJson:
    """write_json against json.dumps(x, indent=2, sort_keys=True)."""

    @staticmethod
    def reference(obj):
        return json.dumps(obj, indent=2, sort_keys=True)

    def test_matches_json_dumps(self):
        from hypothesis import given, settings, strategies as st

        text = st.text(
            alphabet=st.characters() | st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u2028é€😀')
        )
        ints = st.integers() | st.integers(-(1 << 100), 1 << 100)
        floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
        scalars = st.none() | st.booleans() | ints | floats | text
        int_lists = st.lists(ints | st.booleans(), max_size=6)
        values = st.recursive(
            scalars | int_lists,
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(text, inner, max_size=4),
            max_leaves=20,
        )

        @settings(max_examples=300, deadline=None)
        @given(values)
        def check(obj):
            assert write_json(obj) == self.reference(obj)

        check()

    @pytest.mark.parametrize("obj", [
        [], {}, (), [[]], {"a": {}}, [True, 1], [1, False], [0, None], (1, 2), [(), [()]],
        {"b": 1, "a": [1, 2]}, {1: "a"}, {"x": {2: [1.5, None]}}, {None: [True]},
        {1.5: 0, -2.5: [1]}, {math.nan: 1}, {True: {}, False: []}, 7, -0.0, "é", None,
        [[1, 2], [], (3,)], [[]], [(), [-1 << 70]], [[1], [True]], [[0], [None]], [[1], 2],
    ])
    def test_edge_cases(self, obj):
        assert write_json(obj) == self.reference(obj)

    @pytest.mark.parametrize("obj", [
        object(), {1: 0, "a": 0}, [1, {2, 3}], {"a": b"x"}, {None: 1, "k": 2}, {(1,): 0},
    ])
    def test_errors_are_json_errors(self, obj):
        with pytest.raises(Exception) as want:
            self.reference(obj)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            write_json(obj)

    def test_error_envelope(self, capsys):
        code = main(["--format", "json", "starsets", "--graph", 'bad"é\\', "--mu=1"])
        out = capsys.readouterr().out
        assert code == EXIT_USAGE
        assert out == self.reference(json.loads(out)) + "\n"


class TestBrokenPipe:
    @staticmethod
    def start(*argv):
        # stdout buffered, as it is for a pipe unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(starcomp.__file__))
        return subprocess.Popen(
            [sys.executable, "-m", "starcomp", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    @staticmethod
    def finish(proc):
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert err == b""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_reader_closing_early_exits_141(self, fmt):
        # Both reports are well over a 64 KiB pipe buffer, so the writer is
        # still writing when the reader goes, as in `starcomp ... | head -3`.
        proc = self.start("--format", fmt, *SCAN_ARGV)
        for _ in range(3):
            assert proc.stdout.readline()
        proc.stdout.close()
        self.finish(proc)

    def test_reader_gone_before_output_exits_141(self):
        # A short report sits in stdout's buffer until the flush, which
        # fails; the flush at interpreter exit must not fail again.
        proc = self.start("spectrum", "--graph", "cocktail:3")
        proc.stdout.close()
        self.finish(proc)
