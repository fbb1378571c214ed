import contextlib
import hashlib
import io
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
from starcomp import cli
from starcomp.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main, write_json
from starcomp.graphs import make_cocktail, parse_graph6, write_graph6
from starcomp.linalg import eig_multiplicity

from conftest import build_parser, disjoint_union, random_graph

# The benchmark's 2^19-mask int64 scan with the <b, j> test: 5005 candidates.
SCAN_ARGV = ["candidates", "--graph", "split:15,4", "--mu=-4", "--nonmain"]
THEOREM_ARGV = ["theorem", "--s", "6", "--t-max", "5"]
EXPLORE_ARGV = ["explore", "--s", "2..8", "--t", "2..8", "--mu=-10..3"]
EXTEND_ARGV = ["extend", "--graph", "split:10,3", "--mu=-3"]
C14 = "MhCGGC@?G?_@?@_?_"  # the 14-cycle in graph6


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
        from starcomp.graphs import is_isomorphic

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
        fake = {
            "s": 2,
            "t_max": 2,
            "passed": False,
            "branches": [
                {
                    "t": 2,
                    "mu": "-2",
                    "candidates": 0,
                    "graphs": 0,
                    "passed": False,
                    "graph6": None,
                    "checks": [{"name": "unique-regular-graph", "ok": False, "detail": "found 0"}],
                },
            ],
        }
        monkeypatch.setattr(cli, "theorem_check", lambda s, t_max: fake)
        code, text = run_text(capsys, "theorem", "--s", "2", "--t-max", "2")
        assert code == EXIT_VERIFICATION
        assert text.splitlines()[1:] == [
            "  t=2 mu=-2: FAIL (0 candidates, 0 graphs)",
            "    FAILED unique-regular-graph: found 0",
            "overall: FAIL",
        ]


class TestPayloads:
    # theorem_check and solution_explorer return the JSON reports: the CLI
    # adds the schema, the command and the explorer's ranges, nothing else
    def test_theorem_json_is_theorem_check(self, capsys):
        from starcomp.multipartite import theorem_check

        code, data = run_json(capsys, "theorem", "--s", "4", "--t-max", "4")
        assert code == EXIT_OK
        assert data.pop("schema") == cli.SCHEMA_VERSION
        assert data.pop("command") == "theorem"
        assert data == theorem_check(4, 4)

    def test_explore_json_is_solution_explorer(self, capsys):
        from starcomp.multipartite import solution_explorer

        code, data = run_json(capsys, "explore", "--s", "2..4", "--t", "2..4", "--mu=-4..-2")
        assert code == EXIT_OK
        assert data.pop("schema") == cli.SCHEMA_VERSION
        assert data.pop("command") == "explore"
        ranges = [data.pop(key) for key in ("s_range", "t_range", "mu_range")]
        assert ranges == [[2, 4], [2, 4], [-4, -2]]
        assert data == solution_explorer((2, 4), (2, 4), range(-4, -1))

    # maximal_extensions and verify_star_set return the JSON objects too:
    # the extension report as the CLI writes it, and each certificate
    @pytest.mark.parametrize("argv, mu, kwargs", [
        (EXTEND_ARGV, -3, {}),
        (["extend", "--graph", "split:4,2", "--mu=-2", "--include-nonmaximal"], -2,
         {"maximal_only": False}),
    ], ids=["split:10,3", "split:4,2-nonmaximal"])
    def test_extend_json_is_maximal_extensions(self, capsys, argv, mu, kwargs):
        from starcomp.extend import maximal_extensions

        code, data = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert data.pop("schema") == cli.SCHEMA_VERSION
        assert data.pop("command") == "extend"
        h = cli.load_graph(argv[2])
        assert data == maximal_extensions(h, mu, nonmain=False, **kwargs)

    def test_starsets_certificates_are_verify_star_set(self, capsys):
        from starcomp.starsets import find_star_sets, verify_star_set

        code, data = run_json(capsys, "starsets", "--graph", "IheA@GUAo", "--mu=3")
        assert code == EXIT_OK
        g = parse_graph6("IheA@GUAo")
        stars = find_star_sets(g, 3)
        assert data["certificates"] == verify_star_set(g, 3, stars)

    def test_failing_certificate_payload(self, schema):
        # the CLI only ever prints valid certificates; on the Petersen graph
        # at mu = 1 the complement of this 5-set keeps 1 as an eigenvalue
        from starcomp.starsets import verify_star_set

        (cert,) = verify_star_set(parse_graph6("IheA@GUAo"), 1, [(0, 1, 2, 3, 6)])
        assert cert["checks"]["complement_multiplicity"] > 0
        assert cert["valid"] is False
        definitions = schema.schema["definitions"]
        only_certificate = {"$ref": "#/definitions/certificate", "definitions": definitions}
        type(schema)(only_certificate).validate(cert)


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

    def test_non_ascii_graph6(self, capsys, schema):
        # a non-ASCII character is refused where it stands, not read as '?'
        code, data = run_json(capsys, "spectrum", "--graph", "A\u00e9")
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"]["kind"] == "graph6-parse"
        assert data["error"]["detail"].endswith("(byte offset 1)")

    def test_graph6_offset_counts_the_header(self, capsys, schema):
        # the offset is the bad byte's place in the argument, header included
        code, data = run_json(capsys, "spectrum", "--graph", ">>graph6<<E   ")
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"] == {
            "kind": "graph6-parse",
            "detail": "invalid graph6 byte 32 (byte offset 11)",
        }

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

    def test_budget_past_decimal_conversion(self, capsys, schema):
        # 2^20001 has more decimal digits than Python converts by default
        code, data = run_json(capsys, "candidates", "--graph", "split:20000,1", "--mu=1")
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"] == {
            "kind": "budget",
            "detail": "2^20001 subsets exceeds budget 10000000",
        }

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

    @pytest.mark.parametrize("command", ["candidates", "extend"])
    @pytest.mark.parametrize("spec, name, n", [
        ("split:3,2", "make_complete_split", 5),
        ("cocktail:3", "make_cocktail", 6),
    ], ids=["split", "cocktail"])
    def test_construction_refused_before_it_is_built(
        self, capsys, monkeypatch, schema, command, spec, name, n
    ):
        # one subset past the budget: the scan's error, and no graph built
        real = getattr(cli, name)

        def unbuilt(*args):
            raise AssertionError("construction built past the budget")

        monkeypatch.setattr(cli, name, unbuilt)
        argv = [command, "--graph", spec, "--mu=-2", "--budget"]
        code, data = run_json(capsys, *argv, str((1 << n) - 1))
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"] == {
            "kind": "budget",
            "detail": f"2^{n} = {1 << n} subsets exceeds budget {(1 << n) - 1}",
        }
        monkeypatch.setattr(cli, name, real)
        code, data = run_json(capsys, *argv, str(1 << n))
        assert code == EXIT_OK

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

    @pytest.mark.parametrize("argv", [
        ["candidates", "--graph", "split:2,2", "--mu=-2"],
        ["extend", "--graph", "split:2,2", "--mu=-2"],
        ["starsets", "--graph", "cocktail:3", "--mu=-2"],
    ], ids=["candidates", "extend", "starsets"])
    @pytest.mark.parametrize("budget", ["-1", "-100"])
    def test_budget_below_zero(self, capsys, schema, argv, budget):
        # a usage error, not the budget error of a search it never starts
        code, data = run_json(capsys, *argv, "--budget", budget)
        assert code == EXIT_USAGE
        schema.validate(data)
        assert data["error"] == {"kind": "usage", "detail": f"budget must be at least 0, got {budget}"}

    def test_engine_restriction(self, capsys):
        code, data = run_json(
            capsys, "candidates", "--graph", "split:2,2", "--mu", "0"
        )
        assert code == EXIT_USAGE
        assert data["error"]["kind"] == "precondition"

    def test_precondition_kind_has_one_owner(self):
        # the package defines four exception classes, each with one kind;
        # any other ValueError is usage
        import importlib
        import pkgutil

        from starcomp.graphs import Graph6Error
        from starcomp.linalg import PreconditionError, SingularResolventError
        from starcomp.starsets import BudgetExceededError

        modules = [
            importlib.import_module(f"starcomp.{info.name}")
            for info in pkgutil.iter_modules(starcomp.__path__)
            if info.name != "__main__"  # importing it runs the command line
        ]
        defined = {
            obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
        assert defined == {Graph6Error, BudgetExceededError, PreconditionError,
                           SingularResolventError}
        kinds = [
            (Graph6Error("x", 0), "graph6-parse"),
            (BudgetExceededError("x"), "budget"),
            (PreconditionError("x"), "precondition"),
            (SingularResolventError("x"), "precondition"),
            (ValueError("x"), "usage"),
        ]
        assert [cli._error_kind(exc) for exc, _ in kinds] == [kind for _, kind in kinds]

    def test_default_budget_has_one_owner(self):
        from starcomp.starsets import DEFAULT_BUDGET

        args = cli.parse_args(["starsets", "--graph", "cocktail:3", "--mu=-2"])
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

    # The text reports of two of those, recorded before verify_star_set
    # returned its certificate as a JSON payload.
    @pytest.mark.parametrize("graph, mu, digest", [
        ("cocktail:6", "-2", "cb999091db58f491bf674c7578abd50e054c1434e624eda849945542a00f643f"),
        ("IheA@GUAo", "-2", "6c6f8b447292b92d001869d476253a57fc352cde58dbd31a860db4b384b2322d"),
    ], ids=["cocktail:6", "petersen--2"])
    def test_starsets_text_bytes_pinned(self, capsys, graph, mu, digest):
        code = main(["starsets", "--graph", graph, f"--mu={mu}"])
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

    # Every nonempty clique below split:4,2's 12 maximal cliques at mu = -2,
    # one per twin orbit assembled: 18 graphs, recorded while the sub-cliques
    # were still listed through a set of combinations.
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "546b4b7f3eacb23433c36481bb2e063f71a54fbfaa0fd7994a5ef54771e4ae58"),
        ("text", "30a4648774b7059a356e17bcb9a9873ed88961f2f89d431ca655b37a6fdc5e44"),
    ])
    def test_include_nonmaximal_bytes_pinned(self, capsys, fmt, digest):
        argv = ["extend", "--graph", "split:4,2", "--mu=-2", "--include-nonmaximal"]
        code = main(["--format", fmt, *argv])
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

    # The spectrum of the cocktail-party graph CP(10) (three integer roots),
    # of C_14 (roots -2 and 2 and a degree-12 residual factor), of the graphs
    # on no vertex (the constant 1) and on one (only the root 0), and of the
    # Petersen graph (three roots, no residual), each in JSON and text,
    # recorded while char_poly returned Fraction coefficients and the roots
    # were found over Fractions.
    @pytest.mark.parametrize("graph, fmt, digest", [
        ("cocktail:10", "json", "aaed121c880bad2868c6005ec86b016871daf1b3407e1814b11d83dbb4eab240"),
        ("cocktail:10", "text", "524949afe1f6c45eccd45a7b5dbd9d3e1678732af149acfbefec1917496a5f28"),
        (C14, "json", "519fbadd90738ca4d5a1cbba168a380e074886d2ffea2875fa9eb2ec3c4674af"),
        (C14, "text", "e3c0444c122df40ab84a2a09bb4bdc0792b613b4b73fb3bba28b17c58bf5c99c"),
        ("?", "json", "ce3a23d679b660c74cd1a25f93a7ec3b6562c12b1fefe0fbaa411486ae5fa4e8"),
        ("?", "text", "cae3a15e8215bbca16172991c9013b8c0725d54dea6f38528f1e219593b5e63e"),
        ("@", "json", "39bd02b33deddd7b6bbc983b8a4a140684ae9e545f8025f87ea2f837200ab640"),
        ("@", "text", "e5740584a22da791d8fc58260385e67d056eab310ce5311d37f53950b9c6baf9"),
        ("IheA@GUAo", "json", "2e11a5e8ee2ec37427c90b76517f4fb2627a24113d4bb3294494f0cbb4f4d9cb"),
        ("IheA@GUAo", "text", "f96ec723716b878415fb064218c046c009b5d36e06b9b655a91ab8c59dda2dbe"),
    ], ids=["cocktail10-json", "cocktail10-text", "c14-json", "c14-text", "n0-json", "n0-text",
            "n1-json", "n1-text", "petersen-json", "petersen-text"])
    def test_spectrum_bytes_pinned(self, capsys, graph, fmt, digest):
        code = main(["--format", fmt, "spectrum", "--graph", graph])
        assert code == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# argparse 3.13 acts on -h before it refuses a tail after it (-hx, "-h b"); the command line
# keeps the 3.10-3.12 reading, so the tests that draw such arguments run only there.
before_3_13 = pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 reads -hx as -h")


class TestCommandLine:
    """cli.parse_args against the argparse parser it replaced (conftest.build_parser)."""

    OPTIONS = [
        "--graph", "--mu", "--budget", "--threads", "--nonmain", "--regular-only",
        "--include-nonmaximal", "--s", "--t", "--t-max", "--format", "--version", "--help",
        "-h", "-hh", "-hx", "--bogus", "-x",
    ]
    VALUES = [
        "split:3,2", "cocktail:3", "3", "0", "12", " 7", "1_0", "1e3", "-2", "-1.5", "-.5",
        "-5/2", "-3..-2", "2..4", "--", "-", "", "x y", "-x y", "-h b", "--graph", "--bogus",
        "--=x", "json", "text", "xml", "=",
    ]
    COMMANDS = ["spectrum", "starsets", "candidates", "extend", "theorem", "explore"]
    # A value each option accepts, for the arguments that make a valid command.
    GOOD = {"--graph": "split:3,2", "--mu": "-2", "--budget": "5", "--threads": "2",
            "--s": "3", "--t": "2..4", "--t-max": "4"}

    @staticmethod
    def outcome(parse, argv):
        """("ns", namespace dict) or ("exit", code); checks where the text went."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                ns = parse(argv)
        except SystemExit as exc:
            if exc.code == EXIT_USAGE:
                assert out.getvalue() == "" and err.getvalue().startswith("usage: ")
            else:
                assert exc.code == EXIT_OK and out.getvalue() and err.getvalue() == ""
            return "exit", exc.code
        return "ns", vars(ns)

    def check(self, argv):
        want = self.outcome(lambda a: build_parser().parse_args(a), list(argv))
        got = self.outcome(cli.parse_args, list(argv))
        assert got == want, argv
        return got

    @pytest.mark.parametrize("argv, accepted", [
        (["extend", "--graph", "split:3,2", "--mu", "-2"], True),
        (["extend", "--graph", "split:3,2", "--mu", "-5/2"], False),
        (["extend", "--graph", "split:3,2", "--mu=-5/2"], True),
        (["extend", "--graph", "split:3,2", "--mu", "-.5"], True),
        (["extend", "--gr", "split:3,2", "--m=-2", "--reg", "--n"], True),
        (["theorem", "--s", "3", "--t", "4"], False),
        (["theorem", "--s", "3", "--t-", "4"], True),
        (["explore", "--s", "2..4", "--t", "2..3", "--mu=-3..-2"], True),
        (["--format", "json", "theorem", "--s", "3", "--t-max", "4"], True),
        (["--fo=json", "--format", "text", "theorem", "--s=3", "--t-max", "4"], True),
        (["theorem", "--s", "3", "--t-max", "4", "--format", "json"], False),
        (["--format", "xml", "theorem", "--s", "3", "--t-max", "4"], False),
        (["theorem", "--s", "3", "--s", "5", "--t-max", "4"], True),
        (["theorem", "--s", "x", "--s", "5", "--t-max", "4"], False),
        (["candidates", "--graph", "@", "--mu=1", "--nonmain=1"], False),
        (["candidates", "--graph", "@", "--mu=1", "--nonmain", "--"], False),
        (["candidates", "--graph", "@", "--mu", "--", "1"], False),
        (["candidates", "--graph", "@", "--mu", "x y"], True),
        (["candidates", "--graph", "@", "--mu", "-x"], False),
        (["candidates", "--graph", "@"], False),
        (["--", "spectrum", "--graph", "@"], False),
        (["spectrum", "--graph", "@", "--=x"], False),
        (["--bogus", "spectrum", "--graph", "@"], False),
        (["spectrum", "--graph", "@", "stray"], False),
        (["spectrum", "--graph", " 7", "--graph", "@"], True),
        ([], False),
        (["--format", "json"], False),
        (["frobnicate"], False),
        (["-2"], False),
    ])
    def test_rules(self, argv, accepted):
        assert (self.check(argv)[0] == "ns") == accepted

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--he"], ["-hh"], ["extend", "-h"], ["extend", "--graph", "x", "--h"],
        ["--bogus", "theorem", "--help"], ["--version"], ["--vers", "theorem"],
    ])
    def test_help_and_version_exit_0(self, argv):
        assert self.check(argv) == ("exit", EXIT_OK)

    @before_3_13
    @pytest.mark.parametrize("argv", [
        ["-hx"], ["-h="], ["--help=1"], ["--version="], ["extend", "-h", "--=x"],
        ["--format", "xml", "-h"], ["extend", "--graph", "-h"],
    ])
    def test_help_after_or_with_an_error_exits_2(self, argv):
        assert self.check(argv) == ("exit", EXIT_USAGE)

    @staticmethod
    def oracle_commands():
        """The oracle's subcommands: {name: (help line, {option: help})}."""
        import argparse

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        lines = {c.dest: c.help for c in sub._choices_actions}
        return {
            name: (lines[name], {a.option_strings[-1]: a.help for a in p._actions[1:]})
            for name, p in sub.choices.items()
        }

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        out, errtext = capsys.readouterr()
        assert err.value.code == EXIT_OK and errtext == ""
        assert out.startswith("usage: starcomp ")
        commands = self.oracle_commands()
        assert len(commands) == 6
        for name, (line, _) in commands.items():
            assert re.search(rf"^  {name} +{re.escape(line)}$", out, re.M), name

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_lists_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        out, errtext = capsys.readouterr()
        assert err.value.code == EXIT_OK and errtext == ""
        assert out.startswith(f"usage: starcomp {command} ")
        line, options = self.oracle_commands()[command]
        assert line in out
        for name, text in options.items():
            assert re.search(rf"^  {name}( [A-Z_]+)? +{re.escape(text)}$", out, re.M), name

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == EXIT_OK
        assert capsys.readouterr() == (f"starcomp {starcomp.__version__}\n", "")
        assert starcomp.__version__ == "0.1.0"

    def test_valid_command_leaves_parser_modules_unimported(self):
        # In a fresh interpreter, since pytest itself imports argparse.
        script = (
            "import sys; from starcomp import cli; "
            "code = cli.main(['extend', '--graph', 'split:3,2', '--mu=-2']); "
            "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(starcomp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("argv, want", [
        (["spectrum", "--graph=--"], ("ns", {"graph": "--"})),
        (["explore", "--s=--", "--t", "2..3", "--mu=-3..-2"], ("ns", {"s": "--"})),
        (["theorem", "--s", "3", "--t-max=--"], ("exit", EXIT_USAGE)),
        (["--format=--", "theorem", "--s", "3", "--t-max", "3"], ("exit", EXIT_USAGE)),
        (["--fo=--", "--help"], ("exit", EXIT_USAGE)),
    ])
    def test_equals_dash_dash(self, argv, want):
        # The one deliberate difference: argparse drops an explicit "--" and
        # stores [] unconverted, on which every handler crashed; here it is
        # the literal text "--", refused where an int or a format is due.
        oracle = self.outcome(lambda a: build_parser().parse_args(a), argv)
        assert oracle[0] == "exit" or [] in oracle[1].values()
        kind, got = self.outcome(cli.parse_args, argv)
        assert kind == want[0]
        if kind == "ns":
            assert got.items() >= want[1].items()
        else:
            assert got == want[1]

    @before_3_13
    def test_matches_argparse(self):
        from hypothesis import given, settings, strategies as st

        outcomes = set()

        @st.composite
        def token(draw, name, value):
            if name.startswith("--") and draw(st.integers(0, 3)) == 0:
                name = name[: draw(st.integers(3, len(name)))]  # a prefix, maybe ambiguous
            if value is None:
                return [name]
            if value == "--" or draw(st.booleans()):  # --opt=-- is test_equals_dash_dash's
                return [name, value]
            return [f"{name}={value}"]

        @st.composite
        def noise(draw):
            name = draw(st.sampled_from(self.OPTIONS))
            return draw(token(name, draw(st.none() | st.sampled_from(self.VALUES))))

        @st.composite
        def argv(draw):
            fmt = st.sampled_from(["text", "json"])
            front = draw(st.lists(fmt.flatmap(lambda f: token("--format", f)), max_size=2))
            if draw(st.integers(0, 4)) == 0:
                front.append(draw(noise()))
            command = draw(st.sampled_from([*self.COMMANDS, "frobnicate", "--", "-2", None]))
            if command is None:
                return sum(front, [])
            back = draw(st.lists(noise(), max_size=2)) if draw(st.booleans()) else []
            for name, kind, _, _ in cli.COMMANDS.get(command, ("", "", ()))[2]:
                if draw(st.integers(0, 9)):  # a required option may go missing
                    back.append(draw(token(name, None if kind is bool else self.GOOD[name])))
            return sum(front, []) + [command] + sum(draw(st.permutations(back)), [])

        @settings(max_examples=500, deadline=None)
        @given(argv())
        def check(args):
            outcomes.add(self.check(args)[0])

        check()
        # both parsers accepted some argv and refused others
        assert outcomes == {"ns", "exit"}


class Key(str):
    """A str subclass, which json writes as the str it holds."""


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
        [[0], [], [1]], [(5,)], [[-3, 1 << 70]], [[True, 1]], [[1], [2.5]],
        [list(range(k % 7 + 1, k % 7 + 1 + k % 5 + 1)) for k in range(5000)],
        # json's own text nested below the top level, and a str subclass key
        [{"a": [{1: {"b": 2.5}}]}], {"k": [{None: [1.5, {"x": -0.0}]}]},
        {Key("b"): [1], Key("a"): {Key("c"): None}},
    ], ids=lambda obj: None if len(repr(obj)) < 40 else "5000-rows")
    def test_edge_cases(self, obj):
        assert write_json(obj) == self.reference(obj)

    @pytest.mark.parametrize("obj", [
        object(), {1: 0, "a": 0}, [1, {2, 3}], {"a": b"x"}, {None: 1, "k": 2}, {(1,): 0},
        {"a": [{1: 0, "b": 0}]},
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
