"""Command-line surface: build dumps, checks with exit codes, verify suite."""

import ast
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

from precats import analysis
from precats import constructions as cn
from precats import dumps
from precats import presheaf as ps
from precats import theta
from precats.cli import main, make_parser

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_WORKLOADS = _ROOT / "perfbench" / "workloads.py"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def levels_of(stdout):
    data = json.loads(stdout)
    return {tuple(lv["object"]): len(lv["cells"]) for lv in data["levels"]}


def test_build_upsilon_counts(capsys):
    code, out, _ = run(["build", "upsilon", "--inputs", "point", "point",
                        "--window", "3"], capsys)
    assert code == 0
    assert levels_of(out)[(1,)] == 6


def test_build_sigma_counts(capsys):
    code, out, _ = run(["build", "sigma", "--k", "1", "--n", "2",
                        "--window", "2"], capsys)
    assert code == 0
    assert levels_of(out)[(1,)] == 2


def test_build_nerve_counts(capsys):
    code, out, _ = run(["build", "nerve", "--category", "I", "--window", "3"],
                       capsys)
    assert code == 0
    assert levels_of(out)[(1,)] == 3


def test_build_unknown_name_is_usage_error(capsys):
    code, _, err = run(["build", "definitely_not_a_thing"], capsys)
    assert code == 2
    assert "unknown construction" in err
    code, out, err = run(["build", "foo"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown construction 'foo'; known: ")
    assert "nerve" in err and "three_point" in err


def test_main_reuses_one_parser(capsys):
    """``main`` builds its parser once a process; a call that fails to
    parse leaves nothing behind for the next."""
    assert make_parser() is make_parser()
    assert run(["check", "segal", "--window", "x"], capsys)[0] == 2
    code, out, _ = run(["build", "nerve", "--category", "Z2", "--n", "1", "--window", "1"], capsys)
    assert code == 0 and json.loads(out)["window"] == {"B": 1}


def test_build_bad_params_is_usage_error(capsys):
    code, _, err = run(["build", "upsilon", "--inputs", "point",
                        "--params", "{not json"], capsys)
    assert code == 2


def test_build_params_not_an_object_is_usage_error(capsys):
    code, out, err = run(["build", "upsilon", "--inputs", "point", "--params", "[1]",
                          "--window", "2"], capsys)
    assert (code, out, err) == (2, "", "error: --params must be a JSON object\n")


@pytest.mark.parametrize("args", [
    ["nerve", "--category", "I", "--n", "0"],
    ["nerve", "--category", "I", "--n", "-3"],
    ["point", "--n", "-1"],
    ["upsilon", "--inputs", "point", "--input-n", "-1"],
], ids=["nerve-0", "nerve-negative", "point-negative", "upsilon-negative-inputs"])
def test_build_bad_dimensions_are_input_errors(args, capsys):
    """A dimension out of range is an input error, never a dump of another
    dimension or one that ``check --in`` rejects."""
    code, out, err = run(["build", *args, "--window", "2"], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "dimension" in err


def test_build_dumps_are_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["build", "nerve", "--category", "Ibar", "--window", "2",
                 "--out", str(p1)]) == 0
    assert main(["build", "nerve", "--category", "Ibar", "--window", "2",
                 "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_check_segal_pass_and_fail(capsys):
    code, out, _ = run(["check", "segal", "nerve", "--category", "Ibar",
                        "--window", "3"], capsys)
    assert code == 0 and "pass" in out
    code, out, _ = run(["check", "segal", "delooping", "--of", "two_point",
                        "--n", "1", "--window", "2"], capsys)
    assert code == 1
    assert "3 cells vs 4" in out


def test_check_connected(capsys):
    code, out, _ = run(["check", "connected", "nerve", "--category", "I",
                        "--k", "0", "--window", "2"], capsys)
    assert code == 1
    code, out, _ = run(["check", "connected", "nerve", "--category", "Ibar",
                        "--k", "0", "--window", "2"], capsys)
    assert code == 0
    # "undefined" only for a stage that is not strict; a truncation level
    # out of range is a usage error, not a verdict
    for k in ("5", "-1"):
        code, out, err = run(["check", "connected", "nerve", "--category", "I",
                              "--k", k], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: truncation level {k} out of range\n"
    code, out, _ = run(["check", "connected", "delooping", "--of", "two_point",
                        "--n", "1", "--k", "1"], capsys)
    assert code == 1 and out.startswith("connected: undefined (")


def test_check_functorial_on_dump(tmp_path, capsys):
    """The verdict names the depth the dump's data was checked at."""
    dump = tmp_path / "u.json"
    assert main(["build", "upsilon", "--inputs", "two_point",
                 "--window", "2", "--out", str(dump)]) == 0
    code, out, _ = run(["check", "functorial", "--in", str(dump),
                        "--window", "2"], capsys)
    assert (code, out) == (0, "functorial: pass (depth 1 of n=1 on window B=2)\n")


@pytest.mark.parametrize("args, depth", [(["sigma", "--k", "1", "--n", "2"], "1 of n=2"),
                                         (["boundary", "--k", "1", "--n", "1"], "0 of n=1")],
                         ids=["sigma", "boundary"])
def test_check_functorial_states_a_depth_below_n(args, depth, tmp_path, capsys):
    """The free 1-generator at n = 2 depends on its first entry only, the
    boundary of a 1-cell (two points) on none."""
    dump = tmp_path / "d.json"
    assert main(["build", *args, "--window", "2", "--out", str(dump)]) == 0
    code, out, _ = run(["check", "functorial", "--in", str(dump), "--window", "2"], capsys)
    assert (code, out) == (0, f"functorial: pass (depth {depth} on window B=2)\n")


def test_check_functorial_fails_at_the_depth_of_a_long_fault(tmp_path, capsys):
    """Two constant cells with one endomorphism of (2,) sending both to
    "b": the data does not factor at depth 0, so the check reads the whole
    window (depth 1 = n) and names the failures."""
    data = json.loads(ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2)))
    entry = next(e for e in data["actions"] if e["morphism"]["source"] == [2]
                 and e["morphism"]["target"] == [2] and e["morphism"]["components"] != [[0, 1, 2]])
    entry["map"] = {"a": "b", "b": "b"}
    dump = tmp_path / "bad.json"
    dump.write_text(json.dumps(data))
    code, out, _ = run(["check", "functorial", "--in", str(dump), "--window", "2"], capsys)
    assert code == 1 and out.startswith("violation: ")
    assert out.splitlines()[-1] == "functorial: fail (depth 1 of n=1 on window B=2)"


@pytest.mark.parametrize("kind, given, named", [
    ("segal", ["nerve"], "construction name"),
    ("segal", ["--category", "Z2"], "--category"),
    ("segal", ["--inputs", "point"], "--inputs"),
    ("functorial", ["--inputs"], "--inputs"),
    ("segal", ["--input-n", "0"], "--input-n"),
    ("functorial", ["--of", "two_point"], "--of"),
    ("segal", ["--n", "1"], "--n"),
    ("functorial", ["--k", "1"], "--k"),
    ("segal", ["--params", '{"legacy": "x"}'], "--params"),
    ("connected", ["--k", "0", "--n", "1"], "--n")],
    ids=["name", "category", "inputs", "inputs-empty", "input-n", "of", "n", "k", "params",
         "connected-n"])
def test_check_in_refuses_the_build_options_it_does_not_read(kind, given, named, tmp_path,
                                                             capsys):
    """A dump check reads its precat from the dump alone: a construction
    name or build option beside ``--in`` is a usage error naming it, where
    it used to be ignored; of them, ``connected`` reads ``--k`` only."""
    dump = tmp_path / "z2.json"
    assert main(["build", "nerve", "--category", "Z2", "--window", "3", "--out", str(dump)]) == 0
    code, out, err = run(["check", kind, *given, "--in", str(dump), "--window", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: check {kind} --in reads no {named}\n"


def test_check_in_reads_the_options_of_its_check(tmp_path, capsys):
    """``connected`` reads ``--k`` beside ``--in``; ``cofibration`` checks
    a named map and reads no dump, so ``--in`` is refused there.  An
    ``--input-n`` not given is ``None``, read as 0 by ``build_precat``."""
    dump = tmp_path / "z2.json"
    assert main(["build", "nerve", "--category", "Z2", "--window", "3", "--out", str(dump)]) == 0
    code, out, _ = run(["check", "connected", "--in", str(dump), "--k", "0"], capsys)
    assert (code, out) == (0, "connected (k=0): pass\n")
    code, out, err = run(["check", "cofibration", "--map", "collapse_two", "--in", str(dump)],
                         capsys)
    assert (code, out, err) == (2, "", "error: check cofibration reads no --in\n")
    assert make_parser().parse_args(["check", "segal", "upsilon"]).input_n is None
    code, out, _ = run(["check", "segal", "upsilon", "--inputs", "point", "--window", "2"],
                       capsys)
    assert code == 0 and out.startswith("segal: pass")


def test_check_cofibration(capsys):
    code, out, _ = run(["check", "cofibration", "--map", "boundary_inclusion",
                        "--k", "2", "--n", "2", "--window", "2"], capsys)
    assert code == 0
    code, out, _ = run(["check", "cofibration", "--map", "collapse_two",
                        "--k", "0", "--n", "1", "--window", "2"], capsys)
    assert code == 1


def test_check_cofibration_needs_k_only_for_boundary_inclusion(capsys):
    code, out, _ = run(["check", "cofibration", "--map", "collapse_two",
                        "--n", "1", "--window", "2"], capsys)
    assert code == 1 and out == "cofibration: fail (collapse_two)\n"
    code, _, err = run(["check", "cofibration", "--map", "boundary_inclusion",
                        "--n", "2", "--window", "2"], capsys)
    assert code == 2 and err == "error: boundary_inclusion needs --k and --n\n"


def test_verify_only_casezero(capsys):
    code, out, _ = run(["verify", "--window", "2", "--only", "casezero"], capsys)
    assert code == 0
    assert "PASS casezero" in out
    for piece in ("m(a^a)=0", "m(a^b)=1", "m(b^a)=1", "m(b^b)=inf"):
        assert piece in out


def test_verify_unknown_identity(capsys):
    code, _, err = run(["verify", "--only", "nope"], capsys)
    assert code == 2
    assert "unknown identity" in err


def test_verify_json_output(capsys):
    code, out, _ = run(["verify", "--window", "2", "--only", "suspension_tower",
                        "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["entries"][0]["name"] == "suspension_tower"
    assert data["entries"][0]["window"] == 2


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_build_legacy_indexing_flag(capsys):
    """The off-by-one edge indexing is reachable only behind the flag and
    changes the level counts it is known to corrupt."""
    code, good, _ = run(["build", "upsilon", "--inputs", "two_point", "point",
                         "--window", "2"], capsys)
    assert code == 0
    code, bad, _ = run(["build", "upsilon", "--inputs", "two_point", "point",
                        "--window", "2", "--params", '{"legacy": true}'], capsys)
    assert code == 0
    assert levels_of(good)[(1,)] == 8
    assert levels_of(bad)[(1,)] == 9
    assert run(["build", "upsilon", "--inputs", "two_point", "point", "--window", "2",
                "--params", '{"legacy": false}'], capsys) == (0, good, "")


@pytest.mark.parametrize("args, params, what", [
    (["upsilon", "--inputs", "point", "point"], '{"legacy": "false"}',
     "--params legacy is 'false', not true or false"),
    (["upsilon", "--inputs", "point", "point"], '{"legacy": 1}',
     "--params legacy is 1, not true or false"),
    (["upsilon", "--inputs", "point", "point"], '{"legcy": true}',
     "--params keys ['legcy'] are not read by upsilon"),
    (["nerve", "--category", "I"], '{"legacy": true}',
     "--params keys ['legacy'] are not read by nerve")])
def test_build_params_are_checked(args, params, what, capsys):
    """``--params`` holds only ``legacy``, a JSON bool read by ``upsilon``:
    any other value, key or use is a usage error."""
    code, out, err = run(["build", *args, "--window", "2", "--params", params], capsys)
    assert (code, out, err) == (2, "", f"error: {what}\n")


def test_dump_schema_keys(capsys):
    code, out, _ = run(["build", "nerve", "--category", "I", "--window", "2"],
                       capsys)
    data = json.loads(out)
    assert set(data) == {"n", "window", "levels", "actions"}
    entry = data["actions"][0]
    assert set(entry) == {"morphism", "map"}
    assert set(entry["morphism"]) == {"source", "target", "components"}


def test_domain_and_io_errors_exit_2(tmp_path, capsys):
    code, _, err = run(["check", "segal", "--in", str(tmp_path / "missing.json")],
                       capsys)
    assert code == 2 and err.startswith("error: ")
    level = '{"object": [1], "cells": ["a"]}'
    # from a W2 dump: a map with more entries than its level has cells, the
    # level () listed as [0] or [-1], and window B=3 with B=2's levels
    dump = ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2))
    too_long = dump.replace('"map":{"a":"a",', '"map":{"zzz":"a","a":"a",', 1)
    zero, negative = (re.sub(r'("(?:object|source|target)":\[)\]', rf"\g<1>{e}]", dump)
                      for e in (0, -1))
    for i, text in enumerate([too_long, zero, negative, dump.replace('"B":2', '"B":3'),
            '[1, 2]', '{"n": 1}', '{"n": 1, "levels": [1]}',
            '{"n": 1.0, "levels": [], "actions": []}',
            '{"n": true, "levels": [], "actions": []}',
            '{"n": -1, "levels": [], "actions": []}',
            '{"n": 1, "levels": [{"object": "1", "cells": ["a"]}], "actions": []}',
            '{"n": 1, "levels": [{"object": [true], "cells": ["a"]}], "actions": []}',
            '{"n": 1, "levels": [{"object": [1], "cells": "01"}], "actions": []}',
            '{"n": 1, "levels": [{"object": [1], "cells": ["a", "a"]}], "actions": []}',
            '{"n": 1, "levels": [{"object": [1], "cells": [0]}], "actions": []}',
            '{"n": 1, "levels": [' + level + '], "actions": [{"morphism": {}, "map": []}]}',
            '{"n": 1, "levels": [' + level + '], "actions": [{"morphism": {}, "map": {"a": 1}}]}']):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        code, _, err = run(["check", "segal", "--in", str(bad)], capsys)
        assert code == 2 and err.startswith("error: malformed dump")
    # a level, or the action of the identity on (), listed a second time
    data = json.loads(ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2)))
    ident = next(e for e in data["actions"]
                 if e["morphism"]["source"] == e["morphism"]["target"] == [])
    for i, twice in enumerate([
            dict(data, levels=data["levels"] + data["levels"][:1]),
            dict(data, actions=data["actions"] + [dict(ident, map={"a": "a", "b": "a"})])]):
        bad = tmp_path / f"twice{i}.json"
        bad.write_text(json.dumps(twice))
        for check in ("segal", "functorial"):
            code, _, err = run(["check", check, "--in", str(bad), "--window", "2"], capsys)
            assert code == 2 and err.startswith("error: malformed dump")
            assert "listed twice" in err


def _faulty_map(entry, fault):
    image = entry["map"]
    if fault == "no image":
        del image["b"]
    elif fault == "stray key":
        image["zz"] = image.pop("b")
    elif fault == "stray image":
        image["a"] = "z"
    else:
        image["a"] = 0 if fault == "int image" else ["a"]


@pytest.mark.parametrize("fault, error, what", [
    ("no image", ps.PresheafError, "gives the cell 'b' no image"),
    ("stray key", ps.PresheafError, "has the key 'zz', no cell of level"),
    ("stray image", ps.ActionDomainError, "has the image 'z', no cell of level"),
    ("int image", ps.PresheafError, "has the image 0, no cell of level"),
    ("list image", ps.PresheafError, r"has the image \['a'\], no cell of level"),
    ("unlisted", ps.PresheafError, "is not listed")])
def test_dump_maps_are_checked_in_full_at_import(fault, error, what, tmp_path, capsys):
    """Each map of a dump lists every cell of its target level once and sends
    it to a cell of its source level, and every window morphism is listed;
    a fault in one non-identity map is found at import, before any check
    reads it, and the command line exits 2 on it."""
    data = json.loads(ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2)))
    entry = next(e for e in data["actions"] if e["morphism"]["target"] == [2]
                 and e["morphism"]["source"] == [1])
    if fault == "unlisted":
        data["actions"].remove(entry)
    else:
        _faulty_map(entry, fault)
    with pytest.raises(ps.PresheafError, match=f"malformed dump: .*{what}") as got:
        ps.precat_from_dump(data)
    assert got.type is error and "(1,)->(2,)" in str(got.value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for check in ("segal", "functorial"):
        code, _, err = run(["check", check, "--in", str(bad), "--window", "2"], capsys)
        assert code == 2 and err.startswith("error: malformed dump")


def test_pointed_input_without_objects_is_usage_error(capsys):
    code, _, err = run(["check", "segal", "delooping", "--of", "empty",
                        "--n", "1"], capsys)
    assert code == 2
    assert err.startswith("error: ") and "'empty'" in err


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(P, window):
        raise RuntimeError("boom")

    monkeypatch.setattr(dumps, "dump_chunks", broken)
    code, _, err = run(["build", "point", "--window", "2"], capsys)
    assert code == 3
    assert err.strip() == "internal error: RuntimeError: boom"


# SHA-256 of each dump as written by the seed version of precats; dumps stay
# byte-identical until the schema is versioned.
@pytest.mark.parametrize("args, sha256", [
    (["nerve", "--category", "Z2", "--n", "1"],
     "55e36af0f108a64d83529cfbd11988f5d77adcb1c7a98e82a03ecf01aa9516a0"),
    (["upsilon", "--inputs", "point", "point"],
     "9fdea480f18fe51002ce327ef96b5752a3b84ddb373299ab397d4593392a2ad6"),
    (["cell", "--k", "1", "--n", "1"],
     "faeb19b58fda45a3ad052a60c1a1490b17f79c746e2a77bb339c4c1c5cf20a82"),
    (["whitehead", "--of", "nerve", "--category", "Ibar", "--k", "1", "--n", "2"],
     "d8249548af3ba748f80d92ec0c4e38dc7e426b9aa7a5b0a59eb999c4c5dbb49f"),
    (["ck", "--k", "1"],
     "231f796355375fb5cc90d851d090e6d75387837cfe596eeb3eb37e715b567e58"),
    (["nerve", "--category", "Ibar", "--n", "2"],
     "340d0dde51659dfe18fa11f93bfdfc5efc3e3da5c24ed2de7c1adde0e88ee370"),
    (["nerve", "--category", "chain3", "--n", "1"],
     "f3f0674762eb63e9815d8ef13cc48353fc52ea2ef81299764f85c1df537de188"),
    (["boundary", "--k", "1", "--n", "1"],
     "dc2aaf4d6a5eee63fe2f32596f6dcec7e9cd5b2d34fef226a595b894b5282e2b"),
    (["delooping", "--of", "two_point", "--n", "1"],
     "f4779643e3f31f5e3df08daebf2a872190c2968d29d39e77781dfa4d901e535c"),
])
def test_window3_dumps_are_byte_identical_to_seed(args, sha256, tmp_path):
    out = tmp_path / "dump.json"
    assert main(["build", *args, "--window", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_build_writes_its_dump_a_chunk_at_a_time(tmp_path):
    """``build`` writes ``dump_chunks``, a bounded number of maps at a time,
    and never the whole text, so the memory it traces at its peak, tables
    included, stays below the size of the dump it writes: here the 4.1 MB
    Ibar n=2 W3 dump, byte-identical to the seed's.  A first build fills
    the site's morphism caches, which outlive it."""
    out = tmp_path / "dump.json"
    argv = ["build", "nerve", "--category", "Ibar", "--n", "2", "--window", "3",
            "--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "340d0dde51659dfe18fa11f93bfdfc5efc3e3da5c24ed2de7c1adde0e88ee370")


def test_dump_import_holds_no_json_tree():
    """``precat_from_dump`` reads a dump's text a member and an action at a
    time and keeps each action as tuples stored once: importing the 4.1 MB
    Ibar n=2 W3 dump peaks at no more than 6 MB traced above the text it
    holds (a whole-tree ``json.loads`` peaked at 20.7 MB), and the imported
    table keeps at most 1 MB."""
    text = ps.dump_json(cn.nerve(cn.FiniteCategory.iso_interval(), 2), ps.Window(3))
    tracemalloc.start()
    try:
        P = ps.precat_from_dump(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000 and kept <= 1_000_000, (peak, kept)
    assert P.size(ps.object_of(2, [3, 3])) == len(P.table.labels(ps.object_of(2, [3, 3])))


def _dump_catalogue():
    """The benchmark's ``DUMP_CATALOG``, read from its source."""
    tree = ast.parse(_WORKLOADS.read_text())
    rows = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "DUMP_CATALOG")
    return [pytest.param(args, B, id=f"{name}@W{B}") for name, args, B, _ in rows]


@pytest.mark.parametrize("args, B", _dump_catalogue())
def test_catalogue_dumps_import_in_any_member_order(args, B, tmp_path):
    """Every dump of the benchmark's catalogue imports from its text, from
    the same dump indented (a newline and a space after each comma, written
    by the C encoder) or with its members in another order (levels, n and
    window before actions, morphism before map), and from its dict; each
    re-dumps to the text byte for byte."""
    out = tmp_path / "dump.json"
    assert main(["build", *args, "--window", str(B), "--out", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    reordered = {key: data[key] for key in ("levels", "n", "window")}
    reordered["actions"] = [{"morphism": e["morphism"], "map": e["map"]}
                            for e in data["actions"]]
    for dump in (text, json.dumps(data, separators=(",\n ", ": ")), json.dumps(reordered), data):
        assert ps.dump_json(ps.precat_from_dump(dump), ps.Window(B)) == text


def test_dump_text_faults_exit_2(tmp_path, capsys):
    """``check --in`` reads its dump as text: a truncated text or one with
    text after the dump is bad JSON, and a value that is no object a
    malformed dump; each exits 2.  An ``actions`` member that is no list is
    malformed, as text or as a dict."""
    text = ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2))
    faults = [(text[:len(text) // 2], "error: "), (text[:text.index(',"levels"')], "error: "),
              (text.rstrip()[:-1], "error: "), (text + "{}", "error: Extra data"),
              (text + " x", "error: Extra data"), ("[1, 2]", "error: malformed dump"),
              ('"dump"', "error: malformed dump"), ("", "error: Expecting value")]
    for i, (bad, error) in enumerate(faults):
        path = tmp_path / f"bad{i}.json"
        path.write_text(bad)
        code, _, err = run(["check", "segal", "--in", str(path), "--window", "2"], capsys)
        assert code == 2 and err.startswith(error), (bad[-20:], err)
        assert error != "error: " or "malformed" not in err
    data = json.loads(text)
    for actions in ({}, 3, "[]", None):
        for dump in (dict(data, actions=actions), json.dumps(dict(data, actions=actions))):
            with pytest.raises(ps.PresheafError, match="malformed dump: actions is"):
                ps.precat_from_dump(dump)


@pytest.mark.parametrize("args, B", _dump_catalogue())
def test_catalogue_dumps_import_a_block_at_a_time(args, B, tmp_path, monkeypatch):
    """Read a few characters at a time (7 or 61 for a W2 dump, 4 Ki for a W3
    one), every dump of the benchmark's catalogue imports from its file; a W2
    dump also from its text broken over lines with its members in another
    order, read through ``io.StringIO``.  Each re-dumps to the file's text
    byte for byte."""
    out = tmp_path / "dump.json"
    assert main(["build", *args, "--window", str(B), "--out", str(out)]) == 0
    text = out.read_text()
    sources = [lambda: open(out, encoding="utf-8")]
    if B == 2:
        data = json.loads(text)
        reordered = {key: data[key] for key in ("levels", "n", "window")}
        reordered["actions"] = [{"morphism": e["morphism"], "map": e["map"]}
                                for e in data["actions"]]
        spread = json.dumps(reordered, separators=(",\n  ", ": "))
        sources.append(lambda: io.StringIO(spread))
    for block in (7, 61) if B == 2 else (4096,):
        monkeypatch.setattr(dumps, "_BLOCK", block)
        for source in sources:
            with source() as fh:
                assert ps.dump_json(ps.precat_from_dump(fh), ps.Window(B)) == text


def _outcome(dump):
    try:
        ps.precat_from_dump(dump)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return "imported"


def test_block_ends_split_no_value(monkeypatch):
    """Read a block at a time, a dump imports, or fails with the type and
    message its whole text gives, wherever the blocks end: a bool in the last
    action, its ``true`` split across two blocks for some sizes, is refused,
    and a number split at a block end (``"B":23``, ``"n":1e+0``) is read
    whole, not as its first digits.  A key with no ``:`` after its
    whitespace is placed where the whole text places it."""
    text = ps.dump_json(ps.point(1), ps.Window(2))
    last = text.rindex("[[2,2,2]]")
    cases = [(text, "imported"), (text[:last] + "[[true,2,2]]" + text[last + 9:], "PresheafError"),
             (text.replace('"B":2}', '"B":23}'), "PresheafError"),
             (text.replace('"n":1', '"n":1e+0'), "PresheafError"),
             (text.replace('"n":1', '"n"  \n    1'), "JSONDecodeError")]
    for dump, kind in cases:
        whole = _outcome(dump)
        assert (whole if kind == "imported" else whole[0]) == kind, whole
        for block in (*range(1, 12), 61, 64, 4096):
            monkeypatch.setattr(dumps, "_BLOCK", block)
            assert _outcome(io.StringIO(dump)) == whole, (block, whole)


def test_text_faults_past_the_first_block_read_as_in_the_text(tmp_path, monkeypatch, capsys):
    """A truncated action (on a second line), trailing text and a bad line
    of an indented dump, each past the first of 64-character blocks:
    importing the file raises what importing the text raises, with its line,
    column and character in the whole text, and ``check --in`` prints it as
    its error line."""
    monkeypatch.setattr(dumps, "_BLOCK", 64)
    text = ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2))
    lines = json.dumps(json.loads(text), indent=1).splitlines()
    k = next(k for k in range(300, len(lines)) if '"' in lines[k])
    lines[k] = lines[k].replace('"', "'", 1)
    path = tmp_path / "bad.json"
    for bad in ("\n" + text[:len(text) * 3 // 4], text + " x", "\n".join(lines)):
        with pytest.raises(json.JSONDecodeError) as whole:
            ps.precat_from_dump(bad)
        err = whole.value
        assert err.pos > 64 and (err.lineno, err.colno) == (
            bad.count("\n", 0, err.pos) + 1, err.pos - bad.rfind("\n", 0, err.pos))
        path.write_text(bad)
        with open(path, encoding="utf-8") as fh:
            assert _outcome(fh) == ("JSONDecodeError", str(err))
        code, _, stderr = run(["check", "segal", "--in", str(path), "--window", "2"], capsys)
        assert (code, stderr) == (2, f"error: {err}\n")


def test_a_fault_early_in_a_large_dump_file_reads_no_further(tmp_path):
    """A stray ``#`` at character 1,000 of the 4.1 MB Ibar n=2 W3 dump is a
    fault that no later block can change: importing the file raises it from
    the first block, tracing a peak under 1 MB (8.6 MB when the rest of the
    file was read first), with the place importing the text gives it."""
    text = ps.dump_json(cn.nerve(cn.FiniteCategory.iso_interval(), 2), ps.Window(3))
    bad = text[:1000] + "#" + text[1001:]
    with pytest.raises(json.JSONDecodeError) as whole:
        ps.precat_from_dump(bad)
    path = tmp_path / "bad.json"
    path.write_text(bad)
    del text, bad
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh, pytest.raises(json.JSONDecodeError) as read:
            ps.precat_from_dump(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert [(e.msg, e.pos, e.lineno, e.colno) for e in (read.value, whole.value)] == [
        ("Expecting ':' delimiter", 1000, 1, 1001)] * 2


def test_check_in_never_holds_its_dump_whole(tmp_path):
    """``check --in`` reads its dump a block at a time: checking the 4.1 MB
    Ibar n=2 W3 dump traces a peak of at most 3 MB, the imported table
    included (8.3 MB when the file was read whole).  A first check fills
    the site's caches, which outlive it."""
    out = tmp_path / "dump.json"
    assert main(["build", "nerve", "--category", "Ibar", "--n", "2", "--window", "3",
                 "--out", str(out)]) == 0
    argv = ["check", "segal", "--in", str(out), "--window", "3"]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000 < out.stat().st_size, peak


def _spy(monkeypatch, name) -> list:
    """Arguments of each call to ``dumps.<name>``, still called through."""
    calls, real = [], getattr(dumps, name)
    monkeypatch.setattr(dumps, name, lambda *a: calls.append(a) or real(*a))
    return calls


def _lists(T):
    """The levels of a dump's table and the position lists of each pair of them."""
    return T._levels, {(s, t): T.acts(s, t) for s in T._levels for t in T._levels}


def _imported(dump):
    """The levels and the position lists of every level pair of an import."""
    return _lists(ps.precat_from_dump(dump).table)


@pytest.mark.parametrize("args, B", _dump_catalogue())
def test_canonical_and_general_steps_import_alike(args, B, tmp_path, monkeypatch):
    """Every dump of the benchmark's catalogue imports to equal levels and
    position lists from its text, whose actions are looked up by the texts
    of their parts, from its file read a block at a time, from its text with
    a space after each separator, whose every action is decoded in full and
    converted by ``dumps._entry``, and from its dict; so all four re-dump as
    the text does, byte for byte.  (The indented text, which the C encoder
    does not write, imports as the text does in
    ``test_catalogue_dumps_import_in_any_member_order``.)"""
    out = tmp_path / "dump.json"
    assert main(["build", *args, "--window", str(B), "--out", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    entries = _spy(monkeypatch, "_entry")
    P = ps.precat_from_dump(text)
    want = _lists(P.table)
    assert entries == [] and ps.dump_json(P, ps.Window(B)) == text
    for block in (7, 61, 4096) if B == 2 else (4096, 3 * 4096 + 5):
        monkeypatch.setattr(dumps, "_BLOCK", block)
        with open(out, encoding="utf-8") as fh:
            assert _imported(fh) == want, block
    monkeypatch.undo()
    entries = _spy(monkeypatch, "_entry")
    assert _imported(json.dumps(data, separators=(", ", ": "))) == want
    assert len(entries) == len(data["actions"])
    assert _imported(data) == want


def test_canonical_parts_are_decoded_once(tmp_path, monkeypatch):
    """Importing the Ibar n=2 W3 dump from its text or its file takes each
    of its 10,282 actions by position: no ``ThetaMorphism(...)`` call, no
    action converted by ``dumps._entry``, and no decode of a components
    text; ``_SCAN`` runs at most once per distinct map (121) and pair of
    ends (169), and 7 more times for the top-level keys and the values of
    levels, n and window (the maps met together are decoded in one
    call)."""
    text = ps.dump_json(cn.nerve(cn.FiniteCategory.iso_interval(), 2), ps.Window(3))
    actions = json.loads(text)["actions"]
    # a canonical dump writes equal values as equal texts
    maps, ends = (len(set(map(part, actions))) for part in (
        lambda e: tuple(e["map"].items()),
        lambda e: (tuple(e["morphism"]["source"]), tuple(e["morphism"]["target"]))))
    assert (len(actions), maps, ends) == (10_282, 121, 169)
    path = tmp_path / "dump.json"
    path.write_text(text)
    forms, real = [], theta._HashConsed.__call__
    monkeypatch.setattr(theta._HashConsed, "__call__",
                        lambda cls, *a: forms.append(cls) or real(cls, *a))
    for source in (lambda: io.StringIO(text), lambda: open(path, encoding="utf-8")):
        scans, entries = _spy(monkeypatch, "_SCAN"), _spy(monkeypatch, "_entry")
        forms.clear()
        with source() as fh:
            ps.precat_from_dump(fh.read() if isinstance(fh, io.StringIO) else fh)
        assert entries == [] and theta.ThetaMorphism not in forms
        assert len(scans) <= maps + ends + 7, len(scans)


_FORMS_MADE = """
import sys
from precats import theta
from precats.cli import main
before = len(theta.ThetaMorphism._forms)
codes = [main(["build", "nerve", "--category", "Ibar", "--n", "2", "--window", "3",
               "--out", sys.argv[1]]),
         main(["check", "segal", "--in", sys.argv[1], "--window", "3"])]
print(*codes, before, len(theta.ThetaMorphism._forms))
"""


def test_dump_path_builds_few_morphism_forms(tmp_path):
    """In a fresh process, ``build`` of the Ibar n=2 W3 dump (10,282 window
    morphisms) and ``check segal --in`` on it build fewer than 1,000
    ``ThetaMorphism`` forms: the writer and the reader take a level pair's
    actions as position lists in morphism order, and forms are built for
    the pairs within the nerve's depth, generators and the Segal maps."""
    done = subprocess.run([sys.executable, "-c", _FORMS_MADE, str(tmp_path / "d.json")],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("segal: pass")
    build, segal, before, after = map(int, done.stdout.splitlines()[-1].split())
    assert (build, segal) == (0, 0) and after - before < 1_000


def test_canonical_import_reads_any_block_size_alike(tmp_path, monkeypatch):
    """A W2 catalogue dump file read at every block size from 1 to 400
    characters, and the Ibar n=2 W3 dump file read in blocks whose first
    ends inside a map, a components text or the ends of an action, import
    to the levels and position lists of their texts with no action
    converted by ``dumps._entry``."""
    for args, B, cuts in ((["nerve", "--category", "Z2", "--n", "1"], 2, range(1, 401)),
                          (["nerve", "--category", "Ibar", "--n", "2"], 3, None)):
        path = tmp_path / f"w{B}.json"
        assert main(["build", *args, "--window", str(B), "--out", str(path)]) == 0
        text = path.read_text()
        want = _imported(text)
        if cuts is None:    # past the first 4 Ki characters, 3 characters into a part
            at = text.rindex('{"map":', 0, text.index('"source":[1,', 5000))
            starts = [text.index(key, at) + len(key) - 1
                      for key in ('{"map":{', '"components":[[', '"source":[')]
            ends = [text.index(close, k) for k, close in zip(starts, ("}", "]]", "]}"))]
            cuts = [k + 3 for k in starts]
            assert all(k < cut < end for k, cut, end in zip(starts, cuts, ends))
        for block in cuts:
            monkeypatch.setattr(dumps, "_BLOCK", block)
            entries = _spy(monkeypatch, "_entry")
            with open(path, encoding="utf-8") as fh:
                assert _imported(fh) == want, block
            assert entries == [], block
            monkeypatch.undo()


@pytest.mark.parametrize("fault", ["components", "ends", "image", "separator", "map"])
def test_faults_late_in_a_large_dump_read_as_in_the_general_step(fault):
    """A fault planted in an action of the 100th run of the Ibar n=2 W3
    dump (a component whose values are out of order, the source of a
    morphism changed to another listed level, an image that is no cell)
    raises the type and message the same fault raises in that dump written
    with a space after each separator, every action of which is decoded in
    full; neither imports.  A ``;`` between two components, the separator
    the reader joins a run's components texts with, and a map image that is
    no JSON value are no JSON: each raises the error ``json.loads`` raises,
    at its place."""
    text = ps.dump_json(cn.nerve(cn.FiniteCategory.iso_interval(), 2), ps.Window(3))
    data = json.loads(text)
    ends = [(e["morphism"]["source"], e["morphism"]["target"]) for e in data["actions"]]
    runs = [k for k in range(1, len(ends)) if ends[k] != ends[k - 1]]
    entry = data["actions"][runs[99] + 2]
    action = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    assert text.count(action) == 1 and len(entry["map"]) > 1
    if fault == "components":
        comps = next(c for c in entry["morphism"]["components"] if c[0] != c[-1])
        faulty = action.replace(json.dumps(comps, separators=(",", ":")),
                                json.dumps(comps[::-1], separators=(",", ":")), 1)
    elif fault == "ends":
        source = json.dumps(entry["morphism"]["source"], separators=(",", ":"))
        faulty = action.replace(f'"source":{source}', '"source":[3,3]')
    elif fault == "image":
        key, image = next(iter(entry["map"].items()))
        faulty = action.replace(json.dumps({key: image})[1:-1].replace(": ", ":"),
                                f'"{key}":"no cell"', 1)
    elif fault == "separator":
        comps = json.dumps(entry["morphism"]["components"], separators=(",", ":"))
        assert "],[" in comps
        faulty = action.replace(comps, comps.replace("],[", "];[", 1))
    else:
        faulty = action.replace('":"', '":*"', 1)
    assert faulty != action
    bad = text.replace(action, faulty)
    got = _fault_outcome(bad)
    if fault in ("separator", "map"):   # placed as json.loads places it by _fault_outcome
        assert got[0] == "JSONDecodeError", got
        return
    spaced = json.dumps(json.loads(bad), separators=(", ", ": "))
    assert got != "imported" and got == _fault_outcome(spaced), got


def test_runs_out_of_order_import_as_in_the_general_step():
    """A run of the Ibar n=2 W3 dump (the actions of one level pair) listed
    in reverse order imports to the table of the dump; the run listed again
    after the next one, one of its actions listed again, or one left out,
    raises what the dump written with a space after each separator raises."""
    text = ps.dump_json(cn.nerve(cn.FiniteCategory.iso_interval(), 2), ps.Window(3))
    actions = json.loads(text)["actions"]
    ends = [(e["morphism"]["source"], e["morphism"]["target"]) for e in actions]
    a, b, c = [k for k in range(1, len(ends)) if ends[k] != ends[k - 1]][50:53]

    def listed(entries):
        return ",".join(json.dumps(e, sort_keys=True, separators=(",", ":")) for e in entries)

    run = listed(actions[a:b])
    assert text.count(run) == 1
    assert _imported(text.replace(run, listed(actions[a:b][::-1]))) == _imported(text)
    for bad in (text.replace(listed(actions[b:c]), listed(actions[b:c] + actions[a:b])),
                text.replace(run, listed(actions[a:b] + actions[a:a + 1])),
                text.replace(run, listed(actions[a:a + 1] + actions[a + 2:b]))):
        got = _fault_outcome(bad)
        assert got != "imported" and got == _fault_outcome(
            json.dumps(json.loads(bad), separators=(", ", ": "))), got


def _form(entry, n):
    """The morphism of a dump entry, built from its JSON."""
    m = entry["morphism"]
    return theta.ThetaMorphism(*[theta.object_of(n, m[end]) for end in ("source", "target")],
                               tuple(map(tuple, m["components"])))


@pytest.mark.parametrize("fault, k, what", [
    ("last cut", -1, "is not listed"), ("run cut", 0, "is not listed"),
    ("run twice", 0, "listed twice"), ("split, last cut", -1, "is not listed")])
def test_each_window_pair_is_listed_in_full_and_once(fault, k, what, tmp_path, capsys,
                                                     monkeypatch):
    """Import reads completeness off each level pair's list: in the chain3
    nerve's W3 dump, a run (the actions of the pair (1,)->(2,)) with its last
    action cut out, or cut out whole, names the first morphism missing; the
    run listed a second time in full names its first morphism listed twice;
    the run split by an action that takes the general step imports as the
    dump does, and with its last action cut out names that one.  The text
    and the file ``check --in`` reads raise the same."""
    text = ps.dump_json(cn.nerve(cn.FiniteCategory.chain(3), 1), ps.Window(3))
    entries = [e for e in json.loads(text)["actions"]
               if (e["morphism"]["source"], e["morphism"]["target"]) == ([1], [2])]
    texts = [json.dumps(e, sort_keys=True, separators=(",", ":")) for e in entries]
    pair = ",".join(texts)
    assert text.count(pair) == 1 and len(texts) > 3
    split, entry = texts[:2] + ["{ " + texts[2][1:]] + texts[3:], _spy(monkeypatch, "_entry")
    assert _imported(text.replace(pair, ",".join(split))) == _imported(text) and len(entry) == 1
    bad = {"last cut": text.replace(pair, ",".join(texts[:-1])),
           "run cut": text.replace("," + pair, ""),
           "run twice": text.replace(pair, pair + "," + pair),
           "split, last cut": text.replace(pair, ",".join(split[:-1]))}[fault]
    message = f"malformed dump: the action of {_form(entries[k], 1)} {what}"
    with pytest.raises(ps.PresheafError) as got:
        ps.precat_from_dump(bad)
    assert str(got.value) == message
    path = tmp_path / "bad.json"
    path.write_text(bad)
    code, _, err = run(["check", "segal", "--in", str(path), "--window", "3"], capsys)
    assert (code, err) == (2, f"error: {message}\n")


def test_brace_labels_import_through_the_general_step(tmp_path, monkeypatch):
    """A truncation of the Ibar nerve labels cells like ``{(u)}``, so no
    map holding such a label matches the canonical grammar: those actions
    are decoded in full and converted by ``dumps._entry``, and the dump
    re-dumps byte for byte from its text and its file."""
    P = analysis.truncate(cn.nerve(cn.FiniteCategory.iso_interval(), 2), 1)
    for B in (2, 3):
        text = ps.dump_json(P, ps.Window(B))
        braced = sum("}" in "".join(e["map"]) + "".join(e["map"].values())
                     for e in json.loads(text)["actions"])
        path = tmp_path / f"w{B}.json"
        path.write_text(text)
        for source in (lambda: io.StringIO(text), lambda: open(path, encoding="utf-8")):
            entries = _spy(monkeypatch, "_entry")
            with source() as fh:
                assert ps.dump_json(ps.precat_from_dump(fh), ps.Window(B)) == text
            assert braced > 0 and len(entries) == braced, (B, braced, len(entries))
            monkeypatch.undo()


def _fault_outcome(dump):
    """What importing ``dump`` raises, with a JSON error by its message
    alone, after checking it is placed where ``json.loads`` places it."""
    try:
        ps.precat_from_dump(dump)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(dump)
        assert str(exc) == str(whole.value)
        return "JSONDecodeError", exc.msg
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return "imported"


@pytest.mark.parametrize("fault", [
    '"components":[[01]]', '"components":[[-1,0]]', '"components":[[true,2,2]]',
    '"map":{"a":"a","b":1.5}', '"map":{}', '"map":{"a":"a","b":"b","a":"z"}'])
def test_faults_in_a_canonical_action_read_as_in_the_general_step(fault):
    """A fault written into one action of a canonical dump raises the type
    and message the same fault raises in that action written with a space
    (``{ "map"``), which the canonical grammar refuses, and in the dump
    indented, where JSON can hold the fault; neither imports."""
    text = ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2))
    action = '{"map":{"a":"a","b":"b"},"morphism":{"components":[[0,0]],"source":[1],"target":[2]}}'
    assert text.count(action) == 1
    key = fault[:fault.index(":")]
    part = re.search(rf'{key}:(\{{[^}}]*\}}|\[\[0,0\]\])', action).group()
    faulty = action.replace(part, fault)
    bad = text.replace(action, faulty)
    got = _fault_outcome(bad)
    assert got != "imported" and got == _fault_outcome(text.replace(action, "{ " + faulty[1:]))
    if "01" not in fault and fault.count('"a"') < 3:   # no leading zero or duplicate key
        assert _fault_outcome(json.dumps(json.loads(bad), indent=1)) == got


def test_canonical_dump_file_imports_with_no_decode_error(tmp_path, monkeypatch):
    """The reader holds a few Ki characters past each step it takes, so no
    value of the Ibar n=2 W3 dump file is cut by a block end and its import
    builds no ``JSONDecodeError`` (13 when each cut action was decoded and
    refused); a fault still builds one."""
    built = []

    class Counted(json.decoder.JSONDecodeError):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(json.decoder, "JSONDecodeError", Counted)
    with pytest.raises(ValueError):
        dumps._SCAN("[01]", 0)
    assert len(built) == 1
    path = tmp_path / "dump.json"
    path.write_text(ps.dump_json(cn.nerve(cn.FiniteCategory.iso_interval(), 2), ps.Window(3)))
    with open(path, encoding="utf-8") as fh:
        P = ps.precat_from_dump(fh)
    assert len(built) == 1 and P.n == 2 and path.stat().st_size > 8 * dumps._BLOCK


def test_python_dash_m_precats_is_the_command_line(tmp_path, capsys):
    """``python -m precats`` runs ``cli.main`` on its arguments and exits
    with its code."""
    path = tmp_path / "dump.json"
    path.write_text(ps.dump_json(ps.discrete(1, ("a", "b")), ps.Window(2)))
    argv = ["check", "segal", "--in", str(path), "--window", "2"]
    done = subprocess.run([sys.executable, "-m", "precats", *argv], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")))
    assert (done.returncode, done.stdout) == run(argv, capsys)[:2]
    assert done.returncode == 0 and done.stdout.startswith("segal: pass")


def test_dump_chunks_hold_at_most_their_cap_of_maps():
    """No chunk of the Ibar n=2 W3 dump holds more than ``_CHUNK_MAPS``
    maps, though one pair of its levels has 1,089; the chunks joined are
    the seed's text."""
    P = cn.nerve(cn.FiniteCategory.iso_interval(), 2)
    chunks = list(dumps.dump_chunks(P, ps.Window(3)))
    counts = [chunk.count('{"map":{') for chunk in chunks]
    assert max(counts) == dumps._CHUNK_MAPS < 1089 and sum(counts) == 10282
    assert hashlib.sha256("".join(chunks).encode()).hexdigest() == (
        "340d0dde51659dfe18fa11f93bfdfc5efc3e3da5c24ed2de7c1adde0e88ee370")


# The window-2 rows of the benchmark's dump catalogue, with the same hashes.
@pytest.mark.parametrize("args, sha256", [
    (["sigma", "--k", "1", "--n", "2"],
     "9299f4dab84c0cecc105072c79116639b35d6119b17773f445af33c0763d6ccd"),
    (["suspension", "--of", "two_point", "--n", "1"],
     "7c91be91a7991d4600bb12c9d5ddf2f3c65cfe0d7ac9a5c738efdb9ab6153666"),
    (["nerve", "--category", "Z2", "--n", "1"],
     "ef3e4d22ee01604deaf9b82212e940d8d6554b2c6a950040fbb9a862a1aa3037"),
    (["nerve", "--category", "chain3", "--n", "1"],
     "3cbe56216cbd5a0988f6db57199d2184b14b2ec0f29095c364297f3a31e1f37d"),
    (["upsilon", "--inputs", "point", "point"],
     "20202952a785b0205da26a308749af5589d9157a1f7c3d8ad7f0425d7e3b7903"),
    (["cell", "--k", "1", "--n", "1"],
     "427f455a6be63ecc1c914674ca931e7784eba6ca2116d2860a9a6c9ddd06c780"),
    (["boundary", "--k", "1", "--n", "1"],
     "222807ec8363af5ea68b3d14ac66f7a00320bf151e8d0de8afc5c4895cbf9a86"),
    (["whitehead", "--of", "nerve", "--category", "Ibar", "--k", "0", "--n", "1"],
     "7470ac1ecccf48f57fe6c8845979c61c1c989bf41c3425a2a175d9a265a59a85"),
])
def test_window2_dumps_are_byte_identical_to_seed(args, sha256, tmp_path):
    out = tmp_path / "dump.json"
    assert main(["build", *args, "--window", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# SHA-256 of the monoidal towers' window-2 dumps as written by the cell-level
# ``ck_monoidal``.  ``build ck --k 2 --window 3`` (320,342,703 bytes,
# dbe04d4c6317f6dc63e413c6dcff22d3769a672a3fccb22338a73d93d09348ae) is too
# large to build here.
@pytest.mark.parametrize("k, sha256", [
    (1, "a739446bb69ea964e0c6f68a2e290c72566bccb25b00e0e8e0fcc16bf81b87b2"),
    (2, "66a2769a0869ed21f95e6e79144f4f98253b9cc25807cff3e7d3449ab5a7e0bb"),
])
def test_window2_ck_dumps_are_byte_identical_to_seed(k, sha256, tmp_path):
    out = tmp_path / "dump.json"
    assert main(["build", "ck", "--k", str(k), "--window", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
