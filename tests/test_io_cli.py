"""Module-file parsing/serialization and the command-line interface.

CLI tests run in-process through main(argv) and freeze exact output bytes
for the JSON formats (compact separators, fixed key order), so any
formatting drift fails loudly.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

from shfc.cli import main
from shfc.cohomology import cohomology_table, line_bundle_oracle
from shfc.constructions import omega, tensor
from shfc.moduleio import (
    dump_module,
    load_module,
    parse_module,
    presentation_from_dict,
    presentation_to_dict,
    save_module,
)
from shfc.modules import GradedFreeModule, GradedMap
from shfc.resolutions import Presentation
from shfc.rings import InternalError, ParseError, Ring, parse_polynomial
from shfc.suites import SUITES, VerificationReport, _instance


def write_module(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


O_MINUS1_P2 = {"ring": {"char": 32003, "vars": 3}, "generators": [1], "relations": []}
S_P1 = {"ring": {"char": 0, "vars": 2}, "generators": [0], "relations": []}

# JSON true and false load as bool, which Python counts as an int
BOOLEAN_MODULES = [
    (dict(S_P1, ring={"char": False, "vars": 2}), "ring char and vars must be integers"),
    (dict(S_P1, ring={"char": 0, "vars": True}), "ring char and vars must be integers"),
    (dict(S_P1, generators=[True, False]), "generators must be a list of integers"),
]


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def test_parse_free_module():
    p = parse_module(json.dumps(S_P1))
    assert p.gens.degrees == (0,)
    assert p.rels.source.rank == 0
    assert p.ring.characteristic == 0 and p.ring.num_vars == 2


def test_parse_quotient_module():
    p = presentation_from_dict(
        {
            "ring": {"char": 0, "vars": 2},
            "generators": [0],
            "relations": [["x0"], ["x1"]],
        }
    )
    assert p.rels.source.degrees == (1, 1)
    assert p.rels.matrix[0][0] == parse_polynomial(p.ring, "x0")
    # "0" takes a shortcut past the tokenizer; every spelling of zero must
    # give a zero entry that leaves the column degrees alone
    for z in ("0", " 0 ", "00", "x1 - x1"):
        p = presentation_from_dict(
            {
                "ring": {"char": 0, "vars": 2},
                "generators": [0, 1],
                "relations": [["x0", z], [z, "x1"], [z, z]],
            }
        )
        assert p.rels.source.degrees == (1, 2, 0), z
        assert [p.rels.matrix[i][j].is_zero() for i in range(2) for j in range(3)] == [
            False, True, True, True, False, True
        ], z
        assert p.rels.matrix[0][0] == parse_polynomial(p.ring, "x0")
        assert p.rels.matrix[1][1] == parse_polynomial(p.ring, "x1")


def test_parse_accepts_bytes():
    p = parse_module(json.dumps(S_P1).encode("utf-8"))
    assert p.gens.degrees == (0,)


def test_parse_inhomogeneous_entry():
    with pytest.raises(ParseError, match="inhomogeneous column 0"):
        presentation_from_dict(
            {
                "ring": {"char": 0, "vars": 2},
                "generators": [0],
                "relations": [["x0 + x1^2"]],
            }
        )


def test_parse_inhomogeneous_column_degree_clash():
    with pytest.raises(ParseError, match="inhomogeneous column 0: entry 1"):
        presentation_from_dict(
            {
                "ring": {"char": 0, "vars": 2},
                "generators": [0, 0],
                "relations": [["x0", "x1^2"]],
            }
        )


def test_parse_bad_json_reports_location():
    with pytest.raises(ParseError, match="line 1 column"):
        parse_module("{bad json")


def test_parse_validation_errors():
    with pytest.raises(ParseError, match="missing field"):
        parse_module(json.dumps({"generators": [0]}))
    with pytest.raises(ParseError, match="must be integers"):
        parse_module(
            json.dumps({"ring": {"char": "p", "vars": 2}, "generators": [0]})
        )
    with pytest.raises(ParseError, match="bad ring"):
        parse_module(json.dumps({"ring": {"char": 4, "vars": 2}, "generators": [0]}))
    with pytest.raises(ParseError, match="list of integers"):
        parse_module(
            json.dumps({"ring": {"char": 0, "vars": 2}, "generators": ["a"]})
        )
    with pytest.raises(ParseError, match="one polynomial per generator"):
        parse_module(
            json.dumps(
                {
                    "ring": {"char": 0, "vars": 2},
                    "generators": [0, 0],
                    "relations": [["x0"]],
                }
            )
        )
    with pytest.raises(ParseError, match="must be a string"):
        parse_module(
            json.dumps(
                {
                    "ring": {"char": 0, "vars": 2},
                    "generators": [0],
                    "relations": [[7]],
                }
            )
        )
    with pytest.raises(ParseError, match="module file"):
        parse_module(json.dumps([1, 2]))
    with pytest.raises(ParseError, match="relations must be a list"):
        presentation_from_dict(dict(S_P1, relations=None))
    with pytest.raises(ParseError) as err:
        presentation_from_dict(dict(S_P1, relations=[["x0^"]]))
    assert str(err.value) == "relations[0][0]: expected an exponent after '^' (column 4)"
    for data, message in BOOLEAN_MODULES:
        with pytest.raises(ParseError) as err:
            parse_module(json.dumps(data))
        assert str(err.value) == message


# values of every JSON type, and polynomial strings near the valid ones
ILL_TYPED = st.one_of(
    st.booleans(),
    st.floats(),
    st.none(),
    st.integers(-2, 5),
    st.text(alphabet="x0123^*+-/ ", max_size=6),
    st.sampled_from(["x0", "x1^2", "x0*x1 - x1^2", "2*x0", "1", "0", "x4"]),
    st.lists(st.integers(-2, 3), max_size=2),
    st.lists(st.lists(st.booleans(), max_size=2), max_size=2),
)


def _holds(node, key):
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


@st.composite
def module_dicts(draw):
    """A valid module file on 2 to 4 variables, then up to two of its
    fields (ring, char, vars, generators, a degree, relations, a column, an
    entry) replaced by ILL_TYPED values."""
    nvars = draw(st.integers(2, 4))
    gens = draw(st.lists(st.integers(-2, 2), max_size=3))
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        top = max(gens, default=0) + draw(st.integers(0, 2))
        col = []
        for a in gens:
            if draw(st.booleans()):
                col.append("0")
                continue
            exps = [0] * nvars
            for _ in range(top - a):
                exps[draw(st.integers(0, nvars - 1))] += 1
            factors = [str(draw(st.integers(1, 3)))] + [f"x{k}^{e}" for k, e in enumerate(exps) if e]
            col.append("*".join(factors))
        relations.append(col)
    data = {
        "ring": {"char": draw(st.sampled_from([0, 2, 3, 32003])), "vars": nvars},
        "generators": gens,
        "relations": relations,
    }
    paths = [("ring",), ("ring", "char"), ("ring", "vars"), ("generators",), ("relations",)]
    paths += [("generators", i) for i in range(len(gens))]
    paths += [("relations", j) for j in range(len(relations))]
    paths += [("relations", j, i) for j in range(len(relations)) for i in range(len(gens))]
    for path in draw(st.lists(st.sampled_from(paths), max_size=2, unique=True)):
        parent = data
        for key in path[:-1]:
            parent = parent[key] if _holds(parent, key) else None
        if _holds(parent, path[-1]):
            parent[path[-1]] = draw(ILL_TYPED)
    return data


@settings(max_examples=300, deadline=None)
@given(module_dicts())
@example(BOOLEAN_MODULES[0][0])
@example(BOOLEAN_MODULES[1][0])
@example(BOOLEAN_MODULES[2][0])
def test_parse_module_fuzz_refuses_or_round_trips(data):
    # every module file either is refused with a ParseError or gives a
    # presentation whose dump parses back to the same dict, with integer
    # char, vars and degrees
    try:
        p = parse_module(json.dumps(data))
    except ParseError:
        return
    text = dump_module(p)
    written = json.loads(text)
    assert type(written["ring"]["char"]) is int
    assert type(written["ring"]["vars"]) is int
    assert all(type(a) is int for a in written["generators"])
    assert presentation_to_dict(parse_module(text)) == written


# --------------------------------------------------------------------------
# serialization round trips
# --------------------------------------------------------------------------


def default_window(pres):
    n = pres.ring.dim
    return (-n - 5, n + 5)


def tables_equal(a, b):
    wa = default_window(a)
    return (
        cohomology_table(a, *wa).h == cohomology_table(b, *wa).h
        and a.ring == b.ring
    )


def test_round_trip_preserves_cohomology():
    examples = [
        presentation_from_dict(
            {
                "ring": {"char": 32003, "vars": 3},
                "generators": [0],
                "relations": [["x0*x2 - x1^2"]],
            }
        ),
        omega(Ring(32003, 3), 1),
        Presentation.free(Ring(0, 3), (2, -1)),
    ]
    for p in examples:
        back = parse_module(dump_module(p))
        assert tables_equal(p, back)


def test_round_trip_clears_denominators_char_zero():
    ring = Ring(0, 3)
    gens = GradedFreeModule(ring, (0, 0))
    half_x0 = parse_polynomial(ring, "x0").scale(Fraction(1, 2))
    third_x1 = parse_polynomial(ring, "x1").scale(Fraction(1, 3))
    source = GradedFreeModule(ring, (1,))
    rels = GradedMap.from_columns(source, gens, [{0: half_x0, 1: third_x1}])
    p = Presentation(gens, rels)
    data = presentation_to_dict(p)
    assert data["relations"] == [["3*x0", "2*x1"]]
    back = presentation_from_dict(data)
    assert tables_equal(p, back)


def test_serialize_drops_zero_columns():
    p = presentation_from_dict(
        {
            "ring": {"char": 32003, "vars": 3},
            "generators": [0],
            "relations": [["0"], ["x1"]],
        }
    )
    data = presentation_to_dict(p)
    assert data["relations"] == [["x1"]]


def test_save_and_load(tmp_path):
    p = omega(Ring(32003, 3), 1)
    path = tmp_path / "omega1.json"
    save_module(p, str(path))
    back = load_module(str(path))
    assert back.gens.degrees == (2, 2, 2)
    assert tables_equal(p, back)


# --------------------------------------------------------------------------
# CLI: queries with frozen output bytes
# --------------------------------------------------------------------------


def test_cli_level_frozen_bytes(tmp_path, capsys):
    path = write_module(tmp_path, "o_minus1.json", O_MINUS1_P2)
    code = main(["level", "--module", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"value":1,"witnesses":[{"q":1,"i":1,"h":1}]}\n'


def test_cli_level_runs_without_numpy(tmp_path):
    """The engine has no numpy dependency: a level query in a fresh
    interpreter never imports it."""
    path = write_module(tmp_path, "o_minus1.json", O_MINUS1_P2)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        "from shfc.cli import main\n"
        f"code = main(['level', '--module', {path!r}])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        '{"value":1,"witnesses":[{"q":1,"i":1,"h":1}]}',
        "False",
    ]


def test_cli_cohomology_json_frozen_bytes(tmp_path, capsys):
    path = write_module(tmp_path, "s.json", S_P1)
    code = main(["cohomology", "--module", path, "--twists", "-3:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"n":1,"window":[-3,1],"h":[[0,0,0,1,2],[2,1,0,0,0]]}\n'


def test_cli_cohomology_table_rows(tmp_path, capsys):
    path = write_module(tmp_path, "s.json", S_P1)
    code = main(["cohomology", "--module", path, "--twists", "-3:1", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["d=-3", "d=-2", "d=-1", "d=0", "d=1"]
    assert lines[1].split() == ["h^1", "2", "1", "0", "0", "0"]
    assert lines[2].split() == ["h^0", "0", "0", "0", "1", "2"]


def test_cli_betti(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "r1.json",
        {
            "ring": {"char": 32003, "vars": 3},
            "generators": [1, 1, 1],
            "relations": [["x0", "-x1", "x2"]],
        },
    )
    # that column is not a Koszul kernel; use the CLI constructor instead
    code = main(["construct", "koszulR", "--char", "32003", "--dim", "2", "--m", "1", "--out", path])
    assert code == 0
    code = main(["betti", "--module", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith('{"betti":[[0,1,3],[1,2,1]],"regularity":1}\n')


def test_cli_reg(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "o2.json",
        {"ring": {"char": 32003, "vars": 3}, "generators": [2], "relations": []},
    )
    code = main(["reg", "--module", path])
    assert code == 0
    assert capsys.readouterr().out == '{"regularity":2}\n'


def test_cli_reg_minus_infinity(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "pt.json",
        {
            "ring": {"char": 32003, "vars": 3},
            "generators": [0],
            "relations": [["x1"], ["x2"]],
        },
    )
    code = main(["reg", "--module", path])
    assert code == 0
    assert capsys.readouterr().out == '{"regularity":"-inf"}\n'


def test_cli_phicert_pass(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "o2.json",
        {"ring": {"char": 32003, "vars": 3}, "generators": [-2], "relations": []},
    )
    code = main(["phicert", "--module", path])
    assert code == 0
    assert capsys.readouterr().out == '{"bound":0,"witnesses":[]}\n'


def test_cli_phicert_refusal_exit_1(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "pt2.json",
        {
            "ring": {"char": 2, "vars": 3},
            "generators": [0],
            "relations": [["x1"], ["x2"]],
        },
    )
    code = main(["phicert", "--module", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "refusing to certify" in captured.err


def test_cli_beilinson_json(tmp_path, capsys):
    path = write_module(
        tmp_path,
        "o1.json",
        {"ring": {"char": 32003, "vars": 3}, "generators": [-1], "relations": []},
    )
    code = main(["beilinson", "--module", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"n":2,"a_range":[-2,0],"e":[[1,3,3],[0,0,0],[0,0,0]]}\n'


# --------------------------------------------------------------------------
# CLI: constructions
# --------------------------------------------------------------------------


def test_cli_construct_pipeline(tmp_path, capsys):
    s = write_module(
        tmp_path,
        "o0.json",
        {"ring": {"char": 32003, "vars": 3}, "generators": [0], "relations": []},
    )
    twisted = str(tmp_path / "o3.json")
    assert main(["construct", "twist", "--module", s, "--e", "3", "--out", twisted]) == 0
    assert load_module(twisted).gens.degrees == (-3,)

    summed = str(tmp_path / "sum.json")
    assert main(["construct", "sum", "--module", s, "--other", twisted, "--out", summed]) == 0
    assert load_module(summed).gens.degrees == (0, -3)

    tensored = str(tmp_path / "tensor.json")
    assert main(["construct", "tensor", "--module", twisted, "--other", twisted, "--out", tensored]) == 0
    assert load_module(tensored).gens.degrees == (-6,)

    squared = str(tmp_path / "sym2.json")
    assert main(["construct", "sym", "--module", summed, "--power", "2", "--out", squared]) == 0
    assert sorted(load_module(squared).gens.degrees) == [-6, -3, 0]

    pulled = str(tmp_path / "qpow.json")
    assert main(["construct", "qpow", "--module", twisted, "--q", "2", "--out", pulled]) == 0
    assert load_module(pulled).gens.degrees == (-6,)
    capsys.readouterr()


def test_cli_construct_omega_stdout(capsys):
    code = main(["construct", "omega", "--char", "32003", "--dim", "2", "--p", "1"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [2, 2, 2]
    assert len(data["relations"]) == 1


# --------------------------------------------------------------------------
# CLI: verify suites and exit codes
# --------------------------------------------------------------------------


def test_cli_verify_bott_passes(capsys):
    code = main(["verify", "bott", "--dim", "1"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "bott" and report["all_pass"] is True


def test_cli_verify_reports_are_deterministic(capsys):
    assert main(["verify", "subadditivity", "--dim", "1", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "subadditivity", "--dim", "1", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["seed"] == 7
    assert len(report["instances"]) == 100


def test_cli_verify_failing_instance_exits_1(capsys, monkeypatch):
    def failing_suite(dim, seed, char):
        bad = _instance({"case": "stub"}, "always fails", {"got": 1}, False)
        return VerificationReport.build("bott", seed, [bad])

    monkeypatch.setitem(SUITES, "bott", failing_suite)
    code = main(["verify", "bott"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_cli_verify_key_theorem_dim_gate(capsys):
    code = main(["verify", "key-theorem", "--dim", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "dim 1 or 2" in captured.err


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["level"]) == 2  # missing --module
    assert main(["verify", "nonsense"]) == 2
    path = write_module(tmp_path, "s.json", S_P1)
    assert main(["cohomology", "--module", path, "--twists", "3"]) == 2
    assert main(["level", "--module", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["level", "--module", str(bad)]) == 2
    # a malformed relations field is a parse error, never exit 1 (failed verification)
    for relations in (5, None):
        path = write_module(tmp_path, "rels.json", dict(S_P1, relations=relations))
        assert main(["betti", "--module", path]) == 2
    for data, _ in BOOLEAN_MODULES:
        path = write_module(tmp_path, "bool.json", data)
        assert main(["betti", "--module", path]) == 2
    capsys.readouterr()


def test_cli_deeply_nested_module_exits_2(tmp_path, capsys):
    # json.loads recurses per nesting level; too deep is a parse error
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code = main(["betti", "--module", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("shfc:")
    assert captured.out == ""


def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # exit 1 means "verification failed"; a failed internal check is a bug
    # in shfc and must not be mistaken for it
    def broken(pres):
        raise InternalError("planted inconsistency")

    monkeypatch.setattr("shfc.cli.betti_table", broken)
    path = write_module(tmp_path, "s.json", S_P1)
    assert main(["betti", "--module", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shfc: internal error: planted inconsistency\n"


def test_cli_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(pres):
        raise MemoryError("planted exhaustion")

    monkeypatch.setattr("shfc.cli.betti_table", exhausted)
    path = write_module(tmp_path, "s.json", S_P1)
    assert main(["betti", "--module", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shfc: internal error: MemoryError: planted exhaustion\n"


def test_cli_recursion_error_exits_3(tmp_path, capsys, monkeypatch):
    def too_deep(pres):
        raise RecursionError("planted recursion")

    monkeypatch.setattr("shfc.cli.betti_table", too_deep)
    path = write_module(tmp_path, "s.json", S_P1)
    assert main(["betti", "--module", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "shfc: internal error: RecursionError: planted recursion\n"


def test_cli_wide_ring_answers_without_a_strand(tmp_path, capsys):
    # on 1000 variables a strand basis would recurse past the interpreter's
    # limit in the monomial enumeration; every dual strand here has an empty
    # side, so reg reads the same answer as on 6 variables and builds none
    module = {"ring": {"char": 32003, "vars": 1000}, "generators": [0], "relations": [["x0"], ["x0*x1"]]}
    path = write_module(tmp_path, "wide.json", module)
    assert main(["betti", "--module", path]) == 0
    assert capsys.readouterr().out == '{"betti":[[0,0,1],[1,1,1]],"regularity":0}\n'
    assert main(["reg", "--module", path]) == 0
    assert capsys.readouterr().out == '{"regularity":0}\n'
    path = write_module(tmp_path, "narrow.json", dict(module, ring={"char": 32003, "vars": 6}))
    assert main(["reg", "--module", path]) == 0
    assert capsys.readouterr().out == '{"regularity":0}\n'


def test_cli_level_builds_no_strand_with_an_empty_side(tmp_path, capsys, monkeypatch):
    # psi_1 of O/(x0^3000) on P^2 at e = -2 has 4,498,500 rows and no
    # columns; its rank is 0 from the strand dimensions alone, and every
    # other strand level asks for has an empty side as well
    built = []
    strand_matrix = GradedMap.strand_matrix

    def counting(self, d):
        built.append(d)
        return strand_matrix(self, d)

    monkeypatch.setattr(GradedMap, "strand_matrix", counting)
    module = {"ring": {"char": 32003, "vars": 3}, "generators": [0], "relations": [["x0^3000"]]}
    path = write_module(tmp_path, "hyper.json", module)
    assert main(["level", "--module", path]) == 0
    assert capsys.readouterr().out == '{"value":1,"witnesses":[{"q":1,"i":0,"h":4498500}]}\n'
    assert built == []


def test_cli_level_answers_a_huge_exponent(tmp_path, capsys):
    # O/(x0^N) on P^2 with N = 99999999999: the witness h is binom(N, 2), and
    # the packed terms of the resolution need a 41-bit field for x0^N
    module = {"ring": {"char": 32003, "vars": 3}, "generators": [0], "relations": [["x0^99999999999"]]}
    path = write_module(tmp_path, "huge.json", module)
    assert main(["level", "--module", path]) == 0
    assert capsys.readouterr().out == '{"value":1,"witnesses":[{"q":1,"i":0,"h":4999999999850000000001}]}\n'


def test_cli_wide_ring_cohomology_answers(tmp_path, capsys, monkeypatch):
    # O_H for a hyperplane H = P^998 in P^999: h^998(O_H(d)) is
    # binom(-d - 1, 998) and every other row is 0. The dual strands here have
    # binom(1000 + k, 999)-element sides, and no strand is built
    def refuse(self, d):
        raise AssertionError(f"strand_matrix({d}) built")

    monkeypatch.setattr(GradedMap, "strand_matrix", refuse)
    module = {"ring": {"char": 32003, "vars": 1000}, "generators": [0], "relations": [["x0"]]}
    path = write_module(tmp_path, "wide.json", module)
    assert main(["cohomology", "--module", path, "--twists", "-1001:-999"]) == 0
    rows = [[0, 0, 0] for _ in range(1000)]
    rows[998] = [line_bundle_oracle(998, [0], 998, d) for d in (-1001, -1000, -999)]
    assert rows[998] == [499500, 999, 1]
    expected = {"n": 999, "window": [-1001, -999], "h": rows}
    assert capsys.readouterr().out == json.dumps(expected, separators=(",", ":")) + "\n"


# stdout of each query command, pinned from the strand-rank implementation;
# the answers agree over F_32003 and Q
NO_STRAND_OUTPUTS = {
    "P2_omega1x3": [
        '{"n":2,"window":[-3,3],"h":[[0,0,0,0,0,0,0],[0,0,0,0,0,6,10],[134,90,54,26,6,0,0]]}',
        '{"value":2,"witnesses":[{"q":2,"i":0,"h":54},{"q":1,"i":1,"h":90}]}',
        '{"regularity":6}',
        '{"bound":2,"witnesses":[{"q":2,"i":0,"h":134},{"q":1,"i":1,"h":186}]}',
        '{"n":2,"a_range":[-2,0],"e":[[0,0,0],[0,0,0],[54,72,26]]}',
    ],
    "P3_omega1xomega2": [
        '{"n":3,"window":[-3,3],"h":[[0,0,0,0,0,0,0],[0,0,0,0,0,0,4],[0,0,0,0,4,0,0],[160,74,24,1,0,0,0]]}',
        '{"value":3,"witnesses":[{"q":3,"i":0,"h":24},{"q":2,"i":1,"h":74},{"q":1,"i":2,"h":160}]}',
        '{"regularity":5}',
        '{"bound":3,"witnesses":[{"q":3,"i":0,"h":291},{"q":2,"i":1,"h":476},{"q":1,"i":2,"h":724}]}',
        '{"n":3,"a_range":[-3,0],"e":[[0,0,0,0],[0,0,0,0],[0,0,0,0],[24,22,8,1]]}',
    ],
}


@pytest.mark.parametrize("char", [32003, 0])
def test_cli_queries_build_no_strand(tmp_path, capsys, monkeypatch, char):
    # every h^i with i >= 1 is a binomial sum over Hilbert numerators of
    # Groebner lead ideals; only verify builds strands
    def refuse(self, d):
        raise AssertionError(f"strand_matrix({d}) built")

    monkeypatch.setattr(GradedMap, "strand_matrix", refuse)
    p2, p3 = Ring(char, 3), Ring(char, 4)
    o = omega(p2, 1)
    modules = {
        "P2_omega1x3": tensor(tensor(o, o), o),
        "P3_omega1xomega2": tensor(omega(p3, 1), omega(p3, 2)),
    }
    commands = [["cohomology", "--twists", "-3:3"], ["level"], ["reg"], ["phicert"], ["beilinson"]]
    for name, pres in modules.items():
        path = str(tmp_path / f"{name}.json")
        save_module(pres, path)
        for argv, expected in zip(commands, NO_STRAND_OUTPUTS[name]):
            assert main([argv[0], "--module", path, *argv[1:]]) == 0
            assert capsys.readouterr().out == expected + "\n"


def test_cli_twist_window_with_negative_start(tmp_path, capsys):
    # "--twists -3:1" as two argv tokens must not be read as a flag
    path = write_module(tmp_path, "s.json", S_P1)
    code = main(["cohomology", "--module", path, "--twists", "-3:1", "--format", "json"])
    assert code == 0
    capsys.readouterr()



# --------------------------------------------------------------------------
# CLI: fuzzing main() over its own vocabulary
# --------------------------------------------------------------------------

# tiny module files, by name: valid ones over F_2, F_3 and Q on P^1 and P^2,
# then the malformed kinds the parser refuses; "missing" is never written
FUZZ_MODULES = {
    "f2_unit": {"ring": {"char": 2, "vars": 2}, "generators": [0, 1], "relations": [["x0", "1"]]},
    "f3_ideal": {"ring": {"char": 3, "vars": 3}, "generators": [0], "relations": [["x0*x1"], ["x2^2"]]},
    "qq_omega": {"ring": {"char": 0, "vars": 3}, "generators": [1, 1, 1], "relations": [["x0", "x1", "x2"]]},
    "qq_free": {"ring": {"char": 0, "vars": 2}, "generators": [0, -1], "relations": []},
    "f2_point": {"ring": {"char": 2, "vars": 3}, "generators": [0], "relations": [["x1"], ["x2"]]},
    "boolean": BOOLEAN_MODULES[0][0],
    "no_generators": {"ring": {"char": 3, "vars": 2}, "relations": []},
    "relations_not_list": dict(S_P1, relations=5),
    "inhomogeneous": {"ring": {"char": 0, "vars": 2}, "generators": [0], "relations": [["x0 + x1^2"]]},
}
FUZZ_FILES = sorted(FUZZ_MODULES) + ["bad_json", "missing"]


def mostly(valid, invalid):
    """Three draws in four from the valid tokens, so that most commands run."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(valid if k else invalid))


MODULE_FILES = mostly(["f2_unit", "f3_ideal", "qq_omega", "qq_free", "f2_point"], FUZZ_FILES)

COMMANDS = ["cohomology", "betti", "reg", "level", "phicert", "beilinson", "construct", "verify"]
CONSTRUCTIONS = ["twist", "sum", "tensor", "sym", "qpow", "koszulR", "omega"]
FLAGS = [
    "--module", "--other", "--twists", "--format", "--e", "--power", "--q",
    "--char", "--dim", "--m", "--p", "--out", "--seed", "--help",
]
# each command's own flags, so that most draws get past argparse
OWN_FLAGS = {
    "cohomology": ["--module", "--twists", "--format"],
    "betti": ["--module"],
    "reg": ["--module"],
    "level": ["--module"],
    "phicert": ["--module"],
    "beilinson": ["--module", "--format"],
    "twist": ["--module", "--e", "--out"],
    "sum": ["--module", "--other", "--out"],
    "tensor": ["--module", "--other", "--out"],
    "sym": ["--module", "--power", "--out"],
    "qpow": ["--module", "--q", "--out"],
    "koszulR": ["--char", "--dim", "--m", "--out"],
    "omega": ["--char", "--dim", "--p", "--out"],
    "verify": ["--seed", "--char", "--dim"],
}
INTEGERS = mostly(["0", "1", "2"], ["-1", "-3"])
# at most 2, so that a verify suite stays fast
DIMS = mostly(["1", "2"], ["0", "-1"])
CHARS = mostly(["0", "2", "3", "32003"], ["1", "4", "9", "-2"])
NOT_INTEGERS = st.sampled_from(["", "x", "1.5", "2e1", "--", "-", "0x3"])
WINDOWS = st.one_of(
    st.builds("{}:{}".format, st.integers(-6, 6), st.integers(-6, 6)),
    st.sampled_from(["3", "1:", ":2", "1:2:3", "a:b", "", "1.5:2", "-:-"]),
)
FLAG_VALUES = {
    "--module": MODULE_FILES,
    "--other": MODULE_FILES,
    "--twists": WINDOWS,
    "--format": st.sampled_from(["json", "table", "xml"]),
    "--char": CHARS,
    "--dim": DIMS,
    "--out": mostly(["out_file"], ["out_dir", "out_missing_dir"]),
}


@st.composite
def cli_argvs(draw):
    """argv from the CLI's vocabulary: a command (a construction or suite
    after construct or verify), most of its own flags and at times one or
    two others, in any order, each with a value drawn for its kind or, now
    and then, for another kind, sometimes joined as --flag=value and
    sometimes left off."""
    command = draw(st.sampled_from(COMMANDS))
    head = [command]
    own = OWN_FLAGS.get(command, [])
    if command == "construct" and draw(st.integers(0, 9)):
        head.append(draw(st.sampled_from(CONSTRUCTIONS)))
        own = OWN_FLAGS[head[-1]]
    elif command == "verify" and draw(st.integers(0, 9)):
        head.append(draw(st.sampled_from(sorted(SUITES) + ["nonsense"])))
    flags = [f for f in own if draw(st.integers(0, 9))]
    if not draw(st.integers(0, 3)):
        flags += draw(st.lists(st.sampled_from(FLAGS), min_size=1, max_size=2))
    pairs = []
    for flag in draw(st.permutations(flags)):
        if flag == "--help" or not draw(st.integers(0, 15)):
            pairs.append([flag])
            continue
        values = FLAG_VALUES.get(flag, INTEGERS)
        if not draw(st.integers(0, 7)):
            # no CHARS here: nothing bounds the work of --dim 32003 or --power 32003
            values = st.one_of(NOT_INTEGERS, INTEGERS, WINDOWS, st.sampled_from(FUZZ_FILES))
        value = draw(values)
        pairs.append([f"{flag}={value}"] if not draw(st.integers(0, 5)) else [flag, value])
    return head + [token for pair in pairs for token in pair]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Names the argv strategy draws, mapped to paths in a fresh directory."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, data in FUZZ_MODULES.items():
        paths[name] = write_module(root, f"{name}.json", data)
    bad = root / "bad_json.json"
    bad.write_text("{bad json")
    paths["bad_json"] = str(bad)
    paths["missing"] = str(root / "missing.json")
    paths["out_file"] = str(root / "out.json")
    paths["out_dir"] = str(root)
    paths["out_missing_dir"] = str(root / "no_such_dir" / "out.json")
    return paths


@settings(max_examples=150, deadline=None)
@given(argv=cli_argvs())
@example(argv=["cohomology", "--module", "f3_ideal", "--twists", "-6:6", "--format", "table"])
@example(argv=["construct", "tensor", "--module", "f2_unit", "--other", "qq_omega"])
@example(argv=["construct", "omega", "--char", "4", "--dim", "1", "--p", "1"])
@example(argv=["verify", "key-theorem", "--dim", "0"])
@example(argv=["betti", "--module", "missing"])
@example(argv=["cohomology", "--module", "qq_free", "--twists", "--"])
@example(argv=["construct", "twist", "--module", "qq_free", "--e=--"])
@example(argv=["construct", "sym", "--module", "qq_omega", "--power", "2", "--out", "out_dir"])
def test_cli_fuzz_exits_0_1_or_2(fuzz_paths, argv):
    # every drawn command line answers, fails a verification or is refused
    # with a message; exit 3 (an internal error) is left to the planted tests
    argv = list(argv)
    for k, token in enumerate(argv):
        flag, eq, value = token.rpartition("=")
        argv[k] = flag + eq + fuzz_paths.get(value, value)
    out, err = io.StringIO(), io.StringIO()
    # a window or an integer drawn for --out names a file in the cwd
    cwd = os.getcwd()
    os.chdir(fuzz_paths["out_dir"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
