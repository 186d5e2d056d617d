import copy
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from topolinear import cli, fields, serialize
from topolinear.classify_q4 import code_h, standard_semilinear_code
from topolinear.cli import main
from topolinear.codes import (Loop, MdsCode, cyclic_loop, graph_code, make_dihedral, parity_code,
                              twisted_graph_code)
from topolinear.isometry import (Isotopism, TransitivityCertificate, Witnesses,
                                 autotopism_search, is_isotopically_transitive)
from topolinear.constructions import (BUILTIN_LOOPS, CompositionSpec, MalformedInput,
                                      builtin_loop, composition_code, construction_hint,
                                      loop_from_json, parse_r_expression)
from topolinear.serialize import (build_from_spec, certificate_from_json,
                                  certificate_to_json, code_from_json,
                                  code_to_json, dumps_canonical, load_certificate, load_code,
                                  load_loop, loop_to_json, save_certificate, save_code,
                                  save_loop)
import tuple_reference as reference
from test_closure_kernel import CERTIFY_SPECS
from test_isometry import oracle_cases

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# round-trips

def test_code_file_round_trip_is_bit_exact(tmp_path):
    M = twisted_graph_code(3)
    p = tmp_path / "code.json"
    save_code(M, p)
    M2 = load_code(p)
    assert M2.words == M.words and M2.provenance == M.provenance
    p2 = tmp_path / "again.json"
    save_code(M2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_code_json_shape():
    obj = code_to_json(twisted_graph_code(3))
    assert set(obj) == {"q", "n", "structure", "words", "provenance"}
    assert obj["structure"] == "graph"
    assert obj["words"] == sorted(obj["words"])


@pytest.mark.parametrize("mutate", [
    lambda o: o.pop("q"),
    lambda o: o.update(q="six"),
    lambda o: o.update(words=[]),
    lambda o: o["words"][0].append(0),
    lambda o: o["words"][0].__setitem__(0, 9),
    lambda o: o.update(provenance=7),
])
def test_malformed_code_files_are_rejected(mutate):
    obj = code_to_json(twisted_graph_code(3))
    obj["words"] = [list(w) for w in obj["words"]]
    mutate(obj)
    with pytest.raises(MalformedInput):
        code_from_json(obj)


def test_loop_round_trip_and_rejection(tmp_path):
    L = make_dihedral(3)
    p = tmp_path / "loop.json"
    save_loop(L, p)
    from topolinear.serialize import load_loop
    L2 = load_loop(p)
    assert [list(r) for r in L2.table] == [list(r) for r in L.table]
    assert L2.identity == L.identity
    with pytest.raises(MalformedInput):
        loop_from_json({"table": [[0, 0], [1, 1]]})
    with pytest.raises(MalformedInput):
        loop_from_json({"table": [[0, 1], [1, 0], [0, 1]]})
    for table in ([[0.0, 1.9], [True, 0]], [[0, 1], [1, "0"]]):
        with pytest.raises(MalformedInput, match="^table entry must be an integer$"):
            loop_from_json({"table": table})


def test_certificate_round_trip_and_validation():
    M = twisted_graph_code(3)
    cert = is_isotopically_transitive(M, method="explicit").certificate
    obj = certificate_to_json(cert)
    back = certificate_from_json(obj)
    assert back.verify(M) == (True, None)
    bad = json.loads(json.dumps(obj))
    bad["witnesses"][0]["taus"][0][0] = bad["witnesses"][0]["taus"][0][1]
    with pytest.raises(MalformedInput):
        certificate_from_json(bad)


def test_certificate_json_is_the_tuple_built_form():
    # the writer reads each witness's rows; the reference reads its taus
    for name, M in oracle_cases():
        res = is_isotopically_transitive(M)
        if not res:
            continue
        cert = res.certificate
        want = {"mode": cert.mode, "base": list(cert.base), "witnesses": [
            {"word": list(w), "taus": [list(t) for t in g.taus]}
            for w, g in sorted(cert.witnesses.items())]}
        obj = certificate_to_json(cert)
        assert obj == want, name
        assert dumps_canonical(obj) == json.dumps(want, indent=2, sort_keys=True) + "\n", name
        back = certificate_from_json(json.loads(dumps_canonical(obj))).witnesses
        assert back == cert.witnesses, name
        assert all(not g.rows.flags.writeable for g in back.values()), name


def test_a_certificate_whose_witnesses_use_different_alphabets_exits_2(tmp_path, capsys):
    # the loader checks every witness at once, over one alphabet; a single
    # witness over another alphabet was refused only by verify's fit check
    M = twisted_graph_code(3)
    code, path = str(tmp_path / "code.json"), tmp_path / "cert.json"
    save_code(M, code)
    obj = certificate_to_json(is_isotopically_transitive(M).certificate)
    obj["witnesses"][-1]["taus"] = [list(range(7))] * 3
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedInput, match="^each tau must be a permutation of the same 0..q-1$"):
        certificate_from_json(obj)
    for mode in ("transitive", "topolinear"):
        capsys.readouterr()
        assert main(["verify", code, "--mode", mode, "--certificate", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "malformed input: each tau must be a permutation of the same 0..q-1")


# ---------------------------------------------------------------------------
# construction specs

def test_spec_dispatch_covers_all_schemas():
    comp = build_from_spec({"p": 3, "outer": "cp", "inner": [2]})
    assert len(comp) == 36 and comp.provenance["inner"] == [1, 1]
    quad = build_from_spec({"p": 2, "k": 1, "n": 4, "r": "x1x2"})
    assert len(quad) == 64
    iterated = build_from_spec({"construction": "iterated",
                                "loop": {"name": "dihedral", "p": 3}, "n": 3})
    assert len(iterated) == 36
    graph = build_from_spec({"loop": {"name": "cp", "p": 5}})
    assert graph.provenance == {"construction": "graph", "loop": "cp", "p": 5}
    table = build_from_spec({"loop": loop_to_json(builtin_loop("zpz2", 3))})
    assert len(table) == 36


def test_r_expression_parser():
    assert parse_r_expression("x1x2+x3x4", 4, 2) == [
        [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    assert parse_r_expression("0", 3, 2) == [[0] * 3 for _ in range(3)]
    assert parse_r_expression("x2x1", 3, 2)[0][1] == 1
    for bad in ("x1", "x1x1", "x1x2+x1x2", "x1x5", "junk"):
        with pytest.raises(MalformedInput):
            parse_r_expression(bad, 3, 2)


def test_spec_rejections():
    for spec in ({"outer": "cp", "p": 3, "inner": [3]},
                 {"outer": "cp", "p": 3, "inner": []},
                 {"outer": "d6", "p": 3, "inner": [1, 1]},
                 {"construction": "nope"},
                 {"p": 2},
                 42):
        with pytest.raises(MalformedInput):
            build_from_spec(spec)


# ---------------------------------------------------------------------------
# command line

def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_construct_verify_round_trip(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"p": 3, "outer": "cp", "inner": [2]})
    out = str(tmp_path / "code.json")
    cert = str(tmp_path / "cert.json")
    assert main(["construct", spec, out, "--certificate", cert]) == 0
    assert main(["verify", out, "--mode", "mds"]) == 0
    assert main(["verify", out, "--mode", "transitive", "--certificate", cert]) == 0
    capsys.readouterr()
    assert main(["verify", out, "--mode", "transitive", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["mode"] == "transitive"
    assert payload["method"] == "explicit" and payload["searches"] == 0


def test_cli_verify_json_reports_the_pinned_search_count(tmp_path, capsys):
    out = tmp_path / "parity.json"
    save_code(parity_code(4, 3), out)
    assert main(["verify", str(out), "--mode", "transitive", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "pinned"
    assert 0 < payload["searches"] < 16


def _verify_process(path, *flags):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "topolinear", "verify", str(path),
                           *flags], capture_output=True, text=True, env=env, timeout=60)


def test_cli_exhausted_budget_exits_3(tmp_path):
    out = tmp_path / "parity.json"
    save_code(parity_code(4, 3), out)
    # transitive mode has no inconclusive verdict: the budget error itself
    proc = _verify_process(out, "--mode", "transitive", "--budget-states", "5")
    assert proc.returncode == 3
    assert "budget exhausted" in proc.stderr
    # topolinear mode: the pinned searches fit in 20 nodes, the search of the
    # base-word stabilizer does not, so the verdict is inconclusive
    proc = _verify_process(out, "--mode", "topolinear", "--budget-states", "20")
    assert proc.returncode == 3
    assert proc.stdout.startswith("topolinear: None (inconclusive")
    # a budget that stops the pinned searches is inconclusive too
    proc = _verify_process(out, "--mode", "topolinear", "--budget-states", "5")
    assert proc.returncode == 3
    assert proc.stdout.startswith("topolinear: None (inconclusive")


def test_cli_topolinear_certificate_replay(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"loop": {"name": "cp", "p": 5}})
    out = str(tmp_path / "code.json")
    cert = str(tmp_path / "cert.json")
    assert main(["construct", spec, out, "--certificate", cert]) == 0
    assert json.loads(open(cert).read())["mode"] == "topolinear"
    assert main(["verify", out, "--mode", "topolinear", "--certificate", cert]) == 0


def test_cli_topolinear_mode_replays_an_isotopic_certificate_as_a_group(tmp_path, capsys):
    M = twisted_graph_code(3)
    code, cert = str(tmp_path / "code.json"), str(tmp_path / "cert.json")
    save_code(M, code)
    found = is_isotopically_transitive(M).certificate  # the construction group
    base, wits = found.base, dict(found.witnesses)
    save_certificate(TransitivityCertificate("isotopic", base, wits), cert)
    assert main(["verify", code, "--mode", "topolinear", "--certificate", cert]) == 0
    # a witness times a base-word stabilizer element still reaches its word,
    # but the witnesses no longer close within |M| elements
    stabilizer = autotopism_search(M, pins={(i, b): b for i, b in enumerate(base)})
    h = next(g for g in stabilizer if g != Isotopism.identity(M.q, M.n))
    wits[M.words[1]] = wits[M.words[1]].compose(h)
    save_certificate(TransitivityCertificate("isotopic", base, wits), cert)
    assert main(["verify", code, "--mode", "transitive", "--certificate", cert]) == 0
    capsys.readouterr()
    assert main(["verify", code, "--mode", "topolinear", "--certificate", cert]) == 1
    assert capsys.readouterr().out.strip() == (
        "topolinear (certificate replay): False "
        "(witness set is not closed under composition)")


def test_cli_construct_writes_nothing_when_the_certificate_fails(tmp_path, capsys):
    out, cert = tmp_path / "out.json", tmp_path / "cert.json"
    # 122^3 points: the explicit route is refused before any witness is built
    big = write_json(tmp_path / "p61.json", {"construction": "graph",
                                             "loop": {"name": "cp", "p": 61}})
    start = time.perf_counter()
    assert main(["construct", big, str(out), "--certificate", str(cert)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.strip() == (
        "budget exhausted: points limit 7776 (needed 1815848)")
    assert not out.exists() and not cert.exists()
    # the graph of a loop that is no G-loop is not isotopically transitive
    flat = write_json(tmp_path / "non-g.json", {"construction": "graph",
                                                "loop": {"name": "non-g-6"}})
    assert main(["construct", flat, str(out), "--certificate", str(cert)]) == 1
    assert not out.exists() and not cert.exists()
    assert main(["construct", flat, str(out)]) == 0 and out.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "spec.json", "outdir"],
    ["construct", "spec.json", "c.json", "--certificate", "outdir"],
    ["construct", "spec.json", "c.json", "--certificate", "missing/cert.json"]],
    ids=["code-to-a-directory", "certificate-to-a-directory", "certificate-to-a-missing-folder"])
def test_cli_construct_refuses_an_output_path_it_cannot_write_with_exit_2(
        tmp_path, monkeypatch, capsys, argv):
    # a directory exited 4 (IsADirectoryError), and as the certificate path
    # it left c.json written without its certificate
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "spec.json", {"construction": "graph", "loop": {"name": "cp", "p": 3}})
    (tmp_path / "outdir").mkdir()
    bad = argv[-1]
    reason = "Is a directory" if bad == "outdir" else "No such file or directory"
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == f"malformed input: cannot write {bad}: {reason}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "spec.json"]
    assert list((tmp_path / "outdir").iterdir()) == []
    assert main(["construct", "spec.json", "c.json", "--certificate", "cert.json"]) == 0


def test_cli_exit_codes_for_bad_inputs(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"outer": "cp", "p": 3, "inner": [3]})
    out = str(tmp_path / "x.json")
    assert main(["construct", bad, out]) == 2
    notjson = tmp_path / "nj.json"
    notjson.write_text("{oops")
    assert main(["verify", str(notjson)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    length_one = write_json(tmp_path / "n1.json", {"q": 2, "n": 1, "words": [[0]]})
    for mode in ("mds", "transitive"):
        assert main(["verify", length_one, "--mode", mode]) == 2
    assert main(["count", "--partitions", "0"]) == 2
    for forms in ("4,1,2", "2,1,1"):  # no field of order 4^1; length below 2
        assert main(["count", "--forms", forms]) == 2
    # certificates that do not fit the code are malformed input, not a false verdict
    spec = write_json(tmp_path / "spec.json", {"p": 3, "outer": "cp", "inner": [2]})
    cert = str(tmp_path / "cert.json")
    assert main(["construct", spec, out, "--certificate", cert]) == 0
    good = json.loads(open(cert).read())

    def short_tau(c):
        c["witnesses"][0]["taus"][0] = [0, 1, 2, 3, 4]

    def long_word(c):
        c["witnesses"][0]["word"].append(0)

    def short_base(c):
        c["base"].pop()
        for row in c["witnesses"]:
            row["taus"].pop()

    for mutate in (short_tau, long_word, short_base):
        c = json.loads(json.dumps(good))
        mutate(c)
        bad_cert = write_json(tmp_path / f"{mutate.__name__}.json", c)
        for mode in ("transitive", "topolinear"):
            assert main(["verify", out, "--mode", mode, "--certificate", bad_cert]) == 2


@pytest.mark.parametrize("forge", ["float-entries", "bool-entries", "word-twice"])
def test_cli_replay_of_a_certificate_with_non_integer_entries_or_a_word_twice_exits_2(
        forge, tmp_path, capsys):
    # each forgery read as an honest certificate before the loader checked
    # entry types and repeated words
    M = twisted_graph_code(3)
    code, path = str(tmp_path / "code.json"), tmp_path / "cert.json"
    save_code(M, code)
    obj = certificate_to_json(is_isotopically_transitive(M).certificate)
    row = obj["witnesses"][len(M) // 2]
    if forge == "float-entries":
        row["taus"] = [[float(v) for v in t] for t in row["taus"]]
    elif forge == "bool-entries":
        row["taus"] = [[bool(v) if v < 2 else v for v in t] for t in row["taus"]]
    else:  # a bogus first row for a word the certificate names again later
        obj["witnesses"].insert(0, {"word": row["word"], "taus": obj["witnesses"][0]["taus"]})
    path.write_text(json.dumps(obj))
    for mode in ("transitive", "topolinear"):
        capsys.readouterr()
        assert main(["verify", code, "--mode", mode, "--certificate", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        if forge == "word-twice":
            assert err == f"malformed input: two witnesses for {tuple(row['word'])}"
        else:
            assert err == "malformed input: each tau must be a list of integers"


@pytest.mark.parametrize("symbol", [1.0, True, "1"], ids=["float", "bool", "string"])
def test_a_code_file_with_a_non_integer_symbol_is_malformed(symbol):
    obj = code_to_json(parity_code(2, 3))
    obj["words"][1][2] = symbol
    with pytest.raises(MalformedInput, match="^symbol must be an integer$"):
        code_from_json(obj)


@pytest.fixture
def field_tables(monkeypatch):
    """The (p, k) of every field table built while the test runs, cached
    ones included."""
    calls = []

    class Counted(fields.FieldTable):
        def __init__(self, p, k):
            calls.append((p, k))
            super().__init__(p, k)

    fields.field_make.cache_clear()
    monkeypatch.setattr(fields, "FieldTable", Counted)
    yield calls
    fields.field_make.cache_clear()


def test_a_forged_field_size_is_dropped_before_any_field_table(field_tables):
    prov = {"construction": "quadratic", "p": 2, "k": 8, "n": 10**7, "alpha": [[0]]}
    M = MdsCode(6, 3, parity_code(6, 3).words, provenance=prov)
    formula, note = construction_hint(M)
    assert formula is None and note.startswith(
        "provenance hint dropped (quadratic): describes codes of shape")
    assert field_tables == []


def test_cli_count_bounds_the_forms_before_any_field_table(field_tables, capsys):
    assert main(["count", "--partitions", "10", "--forms", "2,8,3", "--json"]) == 0
    forms = json.loads(capsys.readouterr().out)["forms"]
    assert not forms["verified"] and forms["note"].startswith(
        "unverified: points limit 7776")
    assert field_tables == []


@pytest.mark.parametrize("argv,refusal", [
    (["count", "--forms", "2,1,200"], "form count digits limit 4300 (needed 5991)"),
    (["count", "--partitions", "80000"], "partition size limit 10000 (needed 80000)"),
], ids=["forms", "partitions"])
def test_cli_count_refuses_oversized_reports_at_once(argv, refusal, capsys):
    # both went to exit 4: a count too long to print, p(N) past a float
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.strip() == f"budget exhausted: {refusal}"


def test_cli_count_refuses_a_form_sweep_of_too_many_pairs(capsys):
    # 1024 forms fit the points bound; their pairwise sweep would not end
    start = time.perf_counter()
    assert main(["count", "--partitions", "10", "--forms", "2,1,5"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "count unverified: form pairs limit 2016 (needed 523776)")


def test_cli_non_mds_code_is_malformed_input(tmp_path, capsys):
    # flipping the last coordinate swaps the two words, but line completion
    # called the code intransitive: the searches are sound only on MDS codes
    path = write_json(tmp_path / "two.json", {"q": 2, "n": 3, "words": [[0, 0, 0], [0, 0, 1]]})
    for argv in (["verify", path, "--mode", "transitive"],
                 ["verify", path, "--mode", "topolinear"],
                 ["classify", path], ["equivalent", path, path]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.strip() == (
            "malformed input: not an MDS code: size 2 != q^(n-1) = 4"), argv
    assert main(["verify", path, "--mode", "mds"]) == 1


def test_cli_code_with_a_huge_alphabet_is_not_mds_or_malformed(tmp_path, capsys):
    # both exited 4: q^(n-1) was printed into the reason, and an integer of
    # more than 4300 digits failed to parse outside the JSON error handler
    path = write_json(tmp_path / "huge.json", {"q": 10**4000, "n": 3, "words": [[0, 0, 0]]})
    assert main(["verify", path, "--mode", "mds"]) == 1
    assert capsys.readouterr().out.strip() == "mds: False (size 1 < q^(n-1))"
    assert main(["verify", path, "--mode", "transitive"]) == 2
    assert capsys.readouterr().err.strip() == (
        "malformed input: not an MDS code: size 1 < q^(n-1)")
    longer = tmp_path / "longer.json"
    longer.write_text('{"q": 1' + "0" * 5000 + ', "n": 3, "words": [[0, 0, 0]]}')
    assert main(["verify", str(longer), "--mode", "mds"]) == 2
    assert capsys.readouterr().err.startswith("malformed input: not valid JSON: ")


def test_cli_refuses_a_symbol_past_int64(tmp_path, capsys):
    # q = 2^64 admits the symbol 2^63, which int64 cannot hold: the code was
    # called not MDS (exit 1), and its operations overflowed
    path = write_json(tmp_path / "wide.json", {"q": 2**64, "n": 3, "words": [[0, 0, 2**63]]})
    assert main(["verify", path, "--mode", "mds"]) == 2
    assert capsys.readouterr().err.strip() == (
        f"malformed input: symbol {2**63} out of range in (0, 0, {2**63})")


@pytest.mark.parametrize("reading", ["code", "certificate"])
@pytest.mark.parametrize("fault", ["directory", "nested-too-deep", "permission"])
def test_cli_refuses_a_file_it_cannot_read_with_exit_2(tmp_path, monkeypatch, capsys, reading,
                                                       fault):
    # a directory and JSON nested past the recursion limit exited 4
    code, path = str(tmp_path / "code.json"), tmp_path / "bad.json"
    save_code(twisted_graph_code(3), code)
    if fault == "directory":
        path.mkdir()
        message = f"cannot read {path}: Is a directory"
    else:
        path.write_text("[" * 200000 + "]" * 200000)
        message = "not valid JSON: maximum recursion depth exceeded"
    if fault == "permission":  # root reads any file, so the refusal is simulated
        def guarded(file, *args, **kwargs):
            if file == str(path):
                raise PermissionError(13, "Permission denied", file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(serialize, "open", guarded, raising=False)
        message = f"cannot read {path}: Permission denied"
    argv = (["verify", str(path), "--mode", "mds"] if reading == "code" else
            ["verify", code, "--mode", "transitive", "--certificate", str(path)])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"malformed input: {message}")


def unreadable_path(tmp_path, fault) -> str:
    """A path whose opening fails with ENAMETOOLONG, ELOOP or ENOTDIR."""
    if fault == "name-too-long":
        return str(tmp_path / ("x" * 5000 + ".json"))
    if fault == "symlink-loop":
        (tmp_path / "loop.json").symlink_to("loop.json")
        return str(tmp_path / "loop.json")
    (tmp_path / "f.json").write_text("{}")
    return str(tmp_path / "f.json" / "x")


@pytest.mark.parametrize("command", ["verify", "verify-certificate", "construct", "classify",
                                     "equivalent", "gloop"])
@pytest.mark.parametrize("fault", ["name-too-long", "symlink-loop", "not-a-directory"])
def test_cli_refuses_a_path_it_cannot_open_with_exit_2(tmp_path, capsys, command, fault):
    # every OSError on read but a missing file left as an internal error, exit 4
    code, bad = str(tmp_path / "code.json"), unreadable_path(tmp_path, fault)
    save_code(twisted_graph_code(3), code)
    argv = {"verify": ["verify", bad, "--mode", "mds"],
            "verify-certificate": ["verify", code, "--mode", "transitive", "--certificate", bad],
            "construct": ["construct", bad, str(tmp_path / "out.json")],
            "classify": ["classify", bad],
            "equivalent": ["equivalent", code, bad],
            "gloop": ["gloop", bad]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"malformed input: cannot read {bad}: ")


@pytest.fixture(scope="module")
def certify_files(tmp_path_factory):
    """The code file and the saved certificate, as a document, of each
    certify benchmark code."""
    work = tmp_path_factory.mktemp("certify")
    files = []
    for k, spec in enumerate(CERTIFY_SPECS):
        M = build_from_spec(spec)
        code, cert = str(work / f"code{k}.json"), work / f"cert{k}.json"
        save_code(M, code)
        save_certificate(is_isotopically_transitive(M).certificate, str(cert))
        files.append((code, json.loads(cert.read_text())))
    return files


SYMBOLS = {"bool": lambda rng: rng.random() < 0.5, "float": lambda rng: float(rng.randrange(3)),
           "string": lambda rng: str(rng.randrange(3)),
           "past-int64": lambda rng: 2**63 + rng.randrange(3)}
MUTATIONS = ([f"{where}-{name}" for where in ("word", "tau") for name in SYMBOLS]
             + ["row-key-missing", "row-key-extra", "row-key-renamed", "key-missing",
                "key-extra", "key-renamed", "row-not-an-object", "word-twice", "taus-too-few",
                "taus-too-many", "tau-not-a-list", "tau-empty-not-a-list", "tau-other-alphabet",
                "no-witnesses"])
# the only mutants both loaders accept, and what the command line says of
# them: an extra key is read past, a word past int64 does not fit the code's
# alphabet, and a certificate of no witnesses replays as false (exit 1, as
# test_cli_replay_of_a_certificate_without_the_base_words_witness_exits_1 pins)
LOADED = {"row-key-extra": (0, ""), "key-extra": (0, ""),
          "word-past-int64": (2, "malformed input: certificate words are not over the code's"),
          "no-witnesses": (1, "")}


def mutated(doc, kind, rng):
    """doc, a certificate document, with one seeded fault of the given kind."""
    doc = copy.deepcopy(doc)
    rows = doc["witnesses"]
    at = rng.randrange(len(rows))
    row, n = rows[at], len(doc["base"])
    tau = row["taus"][rng.randrange(n)]
    q = len(tau)
    where, _, name = kind.partition("-")
    if name in SYMBOLS:
        target = row["word"] if where == "word" else tau
        target[rng.randrange(len(target))] = SYMBOLS[name](rng)
    elif kind.startswith(("row-key", "key")):
        obj = row if kind.startswith("row") else doc
        key = rng.choice(sorted(obj))
        if kind.endswith("missing"):
            del obj[key]
        elif kind.endswith("extra"):
            obj["note"] = [key]
        else:
            obj[key.upper()] = obj.pop(key)
    elif kind == "row-not-an-object":
        rows[at] = rng.choice([row["word"], None, 7, "row"])
    elif kind == "word-twice":
        row["word"] = list(rows[(at + rng.randrange(1, len(rows))) % len(rows)]["word"])
    elif kind == "taus-too-few":
        row["taus"].remove(tau)
    elif kind == "taus-too-many":
        row["taus"].append(list(range(q)))
    elif kind == "tau-not-a-list":
        row["taus"][row["taus"].index(tau)] = rng.choice([0, "0", {"0": 0}, None])
    elif kind == "tau-empty-not-a-list":  # no entries to refuse: only its type tells
        row["taus"][row["taus"].index(tau)] = rng.choice(["", {}])
    elif kind == "tau-other-alphabet":
        tau.append(q)
    else:
        doc["witnesses"] = []
    return doc


def test_the_certificate_loader_accepts_every_saved_certify_certificate(certify_files):
    for code, doc in certify_files:
        M, cert = load_code(code), certificate_from_json(doc)
        mode, base, taus = reference.certificate_from_json(doc)
        assert (cert.mode, cert.base, {w: g.taus for w, g in cert.witnesses.items()}) == (
            mode, base, taus)
        assert cert.witnesses == is_isotopically_transitive(M).certificate.witnesses


@pytest.mark.parametrize("kind", MUTATIONS)
def test_the_certificate_loader_refuses_each_mutant_as_the_row_walk_did(
        certify_files, tmp_path, capsys, kind):
    path = tmp_path / "cert.json"
    for k, (code, doc) in enumerate(certify_files):
        bad = mutated(doc, kind, random.Random(f"{kind}:{k}"))
        try:
            want = reference.certificate_from_json(bad)
        except reference.Refused as exc:
            assert kind not in LOADED
            with pytest.raises(MalformedInput) as got:
                certificate_from_json(bad)
            assert str(got.value) == str(exc)
            status, err = 2, f"malformed input: {exc}\n"
        else:
            assert kind in LOADED
            cert = certificate_from_json(bad)
            assert (cert.mode, cert.base, {w: g.taus for w, g in cert.witnesses.items()}) == want
            status, err = LOADED[kind]
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        mode = ("transitive", "topolinear")[k % 2]
        assert main(["verify", code, "--mode", mode, "--certificate", str(path)]) == status, k
        out = capsys.readouterr()
        assert out.err.startswith(err) and bool(out.err) == bool(err), (k, out.err)
        if kind == "no-witnesses":
            assert out.out.startswith(f"{mode} (certificate replay): False (no witness for ")


def test_a_certificate_loads_as_word_and_row_arrays_in_word_order(certify_files):
    # the writer's files are in word order already; a shuffled one is sorted on load
    rng = random.Random(26)
    for _, doc in certify_files:
        rows = doc["witnesses"]
        for listed in (rows, rng.sample(rows, len(rows))):
            cert = certificate_from_json(dict(doc, witnesses=listed))
            assert isinstance(cert.witnesses, Witnesses)
            assert list(cert.witnesses) == sorted(tuple(row["word"]) for row in listed)
            assert {w: g.taus for w, g in cert.witnesses.items()} == {
                tuple(row["word"]): tuple(map(tuple, row["taus"])) for row in listed}


@pytest.mark.parametrize("fault", ["word-longer", "word-past-int64"])
def test_words_that_fit_no_int64_array_load_as_the_row_walk_loads_them(
        certify_files, tmp_path, capsys, fault):
    code, doc = certify_files[0]
    bad = copy.deepcopy(doc)
    word = bad["witnesses"][len(bad["witnesses"]) // 2]["word"]
    if fault == "word-longer":
        word.append(0)
    else:
        word[0] = 2 ** 63
    cert = certificate_from_json(bad)
    mode, base, taus = reference.certificate_from_json(bad)
    assert type(cert.witnesses) is dict and list(cert.witnesses) == list(taus)
    assert (cert.mode, cert.base, {w: g.taus for w, g in cert.witnesses.items()}) == (
        mode, base, taus)
    saved = str(tmp_path / "saved.json")  # the writer takes what the loader gave
    save_certificate(cert, saved)
    again = load_certificate(saved)
    assert type(again.witnesses) is dict
    assert (again.mode, again.base, {w: g.taus for w, g in again.witnesses.items()}) == (
        mode, base, taus)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(bad))
    assert main(["verify", code, "--mode", "transitive", "--certificate", str(path)]) == 2
    message = ("certificate words do not have the code's length" if fault == "word-longer"
               else "certificate words are not over the code's")
    assert capsys.readouterr().err.startswith(f"malformed input: {message}")


def test_cli_unexpected_errors_exit_4(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_count", boom)
    assert main(["count"]) == 4
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["internal error: RuntimeError: boom"]


FORGED_PROVENANCE = [
    pytest.param({"construction": "graph", "loop": "cp", "p": 3},
                 ("transitive", "topolinear"), id="graph-cp3"),
    pytest.param({"construction": "graph", "loop": "cp"},
                 ("transitive", "topolinear"), id="graph-no-p"),
    pytest.param({"construction": "iterated", "table": [[0]], "n": 3},
                 ("transitive", "topolinear"), id="iterated-order-1"),
    pytest.param({"construction": "composition", "outer": "cp", "p": 3, "inner": [1]},
                 ("transitive", "topolinear"), id="composition-one-block"),
    pytest.param({"construction": "quadratic", "p": 2, "k": 1, "n": 3, "alpha": "x",
                  "beta": [[0, 0]] * 3}, ("transitive", "topolinear"), id="quadratic-alpha"),
    # refused by the field's size bound before 3**k is computed
    pytest.param({"construction": "quadratic", "p": 3, "k": 10**9, "n": 3, "r": "0"},
                 ("transitive", "topolinear"), id="quadratic-huge-k"),
    # not a construction kind: nothing to read, nothing to drop
    pytest.param({"construction": "product", "a": {"q": 1}}, (), id="product"),
    # a valid loop, but not the code's: its witnesses fail their checks
    pytest.param(dict(construction="graph", **loop_to_json(make_dihedral(3))),
                 ("transitive", "topolinear"), id="graph-other-loop"),
    pytest.param({"construction": "iterated", "table": loop_to_json(make_dihedral(3))["table"],
                  "identity": 7, "n": 3}, ("transitive", "topolinear"), id="identity-range"),
    # sized by forged fields: refused on the code's shape before anything is built
    pytest.param({"construction": "graph", "loop": {"name": "dihedral", "p": 100000}},
                 ("transitive", "topolinear"), id="graph-builtin-huge-p"),
    pytest.param({"construction": "iterated", "loop": {"name": "cp", "p": 100000}, "n": 3},
                 ("transitive", "topolinear"), id="iterated-builtin-huge-p"),
    pytest.param({"construction": "quadratic", "p": 2, "k": 1, "n": 100000, "r": "0"},
                 ("transitive", "topolinear"), id="quadratic-huge-n"),
    pytest.param({"construction": "quadratic", "p": 2, "k": 8, "n": 10**7, "alpha": [[0]]},
                 ("transitive", "topolinear"), id="quadratic-huge-n-no-beta"),
]


@pytest.mark.parametrize("prov,dropped_in", FORGED_PROVENANCE)
def test_forged_provenance_is_a_dropped_hint(tmp_path, capsys, prov, dropped_in):
    M = parity_code(6, 3)
    plain, forged = str(tmp_path / "plain.json"), str(tmp_path / "forged.json")
    save_code(M, plain)
    save_code(MdsCode(M.q, M.n, M.words, provenance=prov), forged)
    for mode in ("transitive", "topolinear"):
        want = main(["verify", plain, "--mode", mode, "--json"])
        expected = json.loads(capsys.readouterr().out)
        got = main(["verify", forged, "--mode", mode, "--json"])
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert (got, payload["ok"]) == (want, expected["ok"])
        assert out.err == ""
        named = f"provenance hint dropped ({prov['construction']})" in payload["reason"]
        assert named == (mode in dropped_in)


@pytest.mark.parametrize("alpha,beta,message", [
    ([[0, 1.9, 0], [0, 0, 0], [0, 0, 0]], None, "alpha entries must be field elements"),
    ([[0, 0, 0], [0, 0, "1"], [0, 0, 0]], None, "alpha entries must be field elements"),
    ([[0] * 3] * 3, [[0, True], [0, 1], [0, 0]], "beta values must be field elements"),
    ([[0, 1.9, 0], [0, 0, "1"], [0, 0, 0]], [[0, True], [0, 1], [0, 0]],
     "alpha entries must be field elements")],
    ids=["float-alpha", "string-alpha", "bool-beta", "all-three"])
def test_cli_quadratic_spec_with_non_integer_entries_exits_2(tmp_path, capsys, alpha, beta,
                                                              message):
    obj = {"construction": "quadratic", "p": 2, "k": 1, "n": 3, "alpha": alpha}
    if beta is not None:
        obj["beta"] = beta
    spec, out = write_json(tmp_path / "spec.json", obj), tmp_path / "out.json"
    assert main(["construct", spec, str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"malformed input: {message}"
    assert not out.exists()


def test_loop_identity_out_of_range_is_malformed(tmp_path):
    table = loop_to_json(make_dihedral(3))["table"]
    for identity in (7, -1):
        with pytest.raises(MalformedInput):
            loop_from_json({"table": table, "identity": identity})
    spec = write_json(tmp_path / "spec.json",
                      {"construction": "iterated", "loop": {"table": table, "identity": 7},
                       "n": 3})
    assert main(["construct", spec, str(tmp_path / "out.json")]) == 2


# Z3 relabelled so that its identity is the last symbol, 2
Z3_IDENTITY_2 = [[(x + y - 2) % 3 for y in range(3)] for x in range(3)]


@pytest.mark.parametrize("identity,message", [
    (-1, "identity -1 out of range"), (3, "identity 3 out of range"),
    (2.0, "identity must be an integer"), (True, "identity must be an integer"),
    (0, "0 is not a two-sided identity")])
def test_a_loop_refuses_an_identity_its_file_could_not_hold(identity, message):
    # identity -1 once read the last row: the loop was accepted, `save_loop`
    # wrote a file `load_loop` refused, and `graph_code` recorded -1
    with pytest.raises(ValueError, match=f"^{message}$"):
        Loop(Z3_IDENTITY_2, identity=identity)
    with pytest.raises(MalformedInput, match=f"^{message}$"):
        loop_from_json({"table": Z3_IDENTITY_2, "identity": identity})


def test_a_saved_loop_loads_back_with_its_identity(tmp_path):
    path = str(tmp_path / "loop.json")
    for loop in (Loop(Z3_IDENTITY_2, identity=np.int64(2)), Loop(Z3_IDENTITY_2)):
        assert type(loop.identity) is int and loop.identity == 2
        save_loop(loop, path)
        back = load_loop(path)
        assert back == loop and back.identity == 2
        assert open(path).read() == dumps_canonical(
            {"q": 3, "table": Z3_IDENTITY_2, "identity": 2})
        assert graph_code(back).provenance["identity"] == 2


def test_cli_oversized_search_exits_3(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"p": 3, "outer": "zpz2", "inner": [2, 3]})
    out = str(tmp_path / "big.json")
    assert main(["construct", spec, out]) == 0
    assert main(["verify", out, "--mode", "transitive"]) == 3


@pytest.mark.parametrize("spec", [
    {"construction": "iterated", "loop": {"name": "dihedral", "p": 2}, "n": 14},
    {"construction": "graph", "loop": {"name": "cp", "p": 3000}},
    {"construction": "iterated", "loop": {"name": "cp", "p": 1000000000}, "n": 3},
], ids=["iterated-4^13-words", "graph-cp-3000", "iterated-cp-order-2e9"])
def test_cli_construct_refuses_an_oversized_spec_before_building(tmp_path, capsys, spec):
    path, out = write_json(tmp_path / "spec.json", spec), tmp_path / "out.json"
    start = time.perf_counter()
    assert main(["construct", path, str(out)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith("budget exhausted: code symbols limit")
    assert not out.exists()


def test_cli_classify(tmp_path, capsys):
    h = str(tmp_path / "h.json")
    save_code(code_h(), h)
    assert main(["classify", h, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"semilinear": False, "degree": None, "transitive": True}
    cubic = str(tmp_path / "r4.json")
    save_code(standard_semilinear_code(4, [(0, 1, 2)]), cubic)
    assert main(["classify", cubic]) == 1
    parity3 = str(tmp_path / "p3.json")
    from topolinear.codes import parity_code
    save_code(parity_code(3, 3), parity3)
    assert main(["classify", parity3]) == 2


def test_cli_equivalent(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    save_code(standard_semilinear_code(4, []), a)
    save_code(standard_semilinear_code(4, [(0, 1), (2, 3)]), b)
    assert main(["equivalent", a, a]) == 0
    assert main(["equivalent", a, b]) == 1


def test_cli_partitions_of_4_are_inequivalent(tmp_path):
    # length 5 over 6 symbols: within the command's default points budget;
    # the intercalate profiles differ, so no isotopism search runs
    a = str(tmp_path / "four.json")
    b = str(tmp_path / "two-two.json")
    save_code(composition_code(CompositionSpec("zpz2", 3, (4,))), a)
    save_code(composition_code(CompositionSpec("zpz2", 3, (2, 2))), b)
    start = time.perf_counter()
    assert main(["equivalent", a, b]) == 1
    assert time.perf_counter() - start < 30


def test_cli_count_json(capsys):
    assert main(["count", "--partitions", "10,100", "--forms", "2,1,3",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["forms"]["count"] == 8 and payload["forms"]["verified"]
    assert [len(c) for c in payload["forms"]["classes"]] == [4, 4]
    ratios = [row["ratio"] for row in payload["partitions"]]
    assert abs(1 - ratios[1]) < abs(1 - ratios[0])


def test_cli_gloop(tmp_path):
    assert main(["gloop", "cp", "--p", "3"]) == 0
    assert main(["gloop", "dihedral", "--p", "3"]) == 0
    assert main(["gloop", "non-g-6"]) == 1
    assert main(["gloop", "zpz2", "--p", "7"]) == 3
    assert main(["gloop", "cp", "--p", "1"]) == 2
    loopfile = str(tmp_path / "loop.json")
    save_loop(make_dihedral(5), loopfile)
    assert main(["gloop", loopfile]) == 0


def test_cli_gloop_admits_the_graph_of_a_loop_within_the_bound(tmp_path):
    # the graph of order 20 has 8000 points, over the default points bound
    loopfile = str(tmp_path / "c20.json")
    save_loop(cyclic_loop(20), loopfile)
    assert main(["gloop", loopfile, "--bound", "30"]) == 0
    assert main(["gloop", loopfile]) == 3


def test_cli_gloop_checks_the_bound_before_building(monkeypatch):
    def unbuilt(p):
        raise AssertionError("loop built before the bound check")

    monkeypatch.setitem(BUILTIN_LOOPS, "cp", unbuilt)
    assert main(["gloop", "cp", "--p", "2000"]) == 3


def test_cli_construct_is_deterministic(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"p": 2, "k": 1, "n": 3, "r": "x1x2"})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["construct", spec, str(a)]) == 0
    assert main(["construct", spec, str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
