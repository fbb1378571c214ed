import hashlib
import json
import random
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from starcomp import cli, disjoint_union, eig_multiplicity, make_cocktail, parse_graph6, write_graph6
from starcomp.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main

from conftest import random_graph


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
    # bases; they list star sets in combinations order.
    @pytest.mark.parametrize("graph, mu, digest", [
        ("cocktail:6", "-2", "98dbde78548691c5080143be9827a9916e5dc4808fa036f13f38ca4192bca790"),
        ("IheA@GUAo", "1", "ea7352febcf1f59f8e4eb75e6b3870c3e6413a6c4d96df5b57ee5a211f752efb"),
    ], ids=["cocktail:6", "petersen"])
    def test_starsets_bytes_pinned(self, capsys, graph, mu, digest):
        code = main(["--format", "json", "starsets", "--graph", graph, f"--mu={mu}"])
        assert code == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
