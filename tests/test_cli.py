"""Command-line surface: build dumps, checks with exit codes, verify suite."""

import ast
import hashlib
import json
import pathlib
import re
import tracemalloc

import pytest

from precats import constructions as cn
from precats import presheaf as ps
from precats.cli import main, make_parser

_WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
    dump = tmp_path / "u.json"
    assert main(["build", "upsilon", "--inputs", "two_point",
                 "--window", "2", "--out", str(dump)]) == 0
    code, out, _ = run(["check", "functorial", "--in", str(dump),
                        "--window", "2"], capsys)
    assert code == 0


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
    data = ps.dump_window(ps.discrete(1, ("a", "b")), ps.Window(2))
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
    data = ps.dump_window(ps.discrete(1, ("a", "b")), ps.Window(2))
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

    monkeypatch.setattr(ps, "dump_chunks", broken)
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
    the same dump indented or with its members in another order (levels, n
    and window before actions, morphism before map), and from its dict; each
    re-dumps to the text byte for byte."""
    out = tmp_path / "dump.json"
    assert main(["build", *args, "--window", str(B), "--out", str(out)]) == 0
    text = out.read_text()
    data = json.loads(text)
    reordered = {key: data[key] for key in ("levels", "n", "window")}
    reordered["actions"] = [{"morphism": e["morphism"], "map": e["map"]}
                            for e in data["actions"]]
    for dump in (text, json.dumps(data, indent=1), json.dumps(reordered), data):
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


def test_dump_chunks_hold_at_most_their_cap_of_maps():
    """No chunk of the Ibar n=2 W3 dump holds more than ``_CHUNK_MAPS``
    maps, though one pair of its levels has 1,089; the chunks joined are
    the seed's text."""
    P = cn.nerve(cn.FiniteCategory.iso_interval(), 2)
    chunks = list(ps.dump_chunks(P, ps.Window(3)))
    counts = [chunk.count('{"map":{') for chunk in chunks]
    assert max(counts) == ps._CHUNK_MAPS < 1089 and sum(counts) == 10282
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
