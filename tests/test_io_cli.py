import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import permutation_p
from zbrace import fileio
from zbrace.braces import (
    BoundExceededError,
    cyclic_unit_brace,
    odd_matrix_brace,
    product_brace,
    radical_even_brace,
    trivial_skew_brace,
)
from zbrace.cli import main
from zbrace.fileio import (
    SchemaError,
    brace_from_dict,
    brace_to_dict,
    canonical_json,
    matrix_coo_text,
    parse_brace,
    write_brace,
    write_matrix,
)
from zbrace.groups import NotClosedError, cyclic_group, symmetric_group, validate_group
from zbrace.reporting import (
    build_report,
    config_int,
    entry_ms,
    report_failed,
    select_shifts,
    serialize_report,
)
from zbrace.solutions import build_solution, dedup_solutions
from zbrace.tensor import TwistBundle


@pytest.fixture()
def cyclic3_file(tmp_path):
    path = tmp_path / "cyclic3.brace"
    write_brace(cyclic_unit_brace(3), path)
    return path


def test_brace_roundtrip_is_identity(tmp_path, cyclic3_file):
    b = cyclic_unit_brace(3)
    parsed = parse_brace(cyclic3_file)
    assert parsed.name == b.name and parsed.labels == b.labels
    assert np.array_equal(parsed.add.table, b.add.table)
    assert np.array_equal(parsed.mul.table, b.mul.table)
    again = tmp_path / "again.brace"
    write_brace(parsed, again)
    assert again.read_text() == cyclic3_file.read_text()


def _reference_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_brace_files_are_the_indented_json_of_every_family(tmp_path):
    braces = [cyclic_unit_brace(n) for n in (2, 3, 5, 8)]
    braces += [odd_matrix_brace(), radical_even_brace(8), radical_even_brace(16)]
    braces += [trivial_skew_brace(symmetric_group(3), name="trivial-s3"), trivial_skew_brace(cyclic_group(6))]
    braces.append(product_brace(cyclic_unit_brace(2), trivial_skew_brace(symmetric_group(3))))
    for b in braces:
        doc = brace_to_dict(b)
        assert all(type(v) is int for v in doc["add"] + doc["mul"]), b.name
        path = tmp_path / "b.brace"
        write_brace(b, path)
        assert path.read_bytes() == _reference_json(doc).encode("utf-8"), b.name
        assert brace_to_dict(parse_brace(path)) == doc, b.name  # distinct labels, so every family parses back


def test_brace_file_escapes_name_and_labels_like_json():
    odd = ['"q"', "back\\slash", "caf\u00e9 \u2203\U0001d53d", "line\nbreak\ttab", ",\n    ", "[\n  ]", '": "', ""]
    b = brace_from_dict({**brace_to_dict(cyclic_unit_brace(4)), "name": 'n"a\\me\n\u00e9', "labels": odd})
    doc = brace_to_dict(b)
    assert doc["labels"] == odd
    assert canonical_json(doc) == _reference_json(doc)
    assert json.loads(canonical_json(doc)) == doc
    others = [
        {},
        {"z": [], "a": [[1, 2], {"b": [3]}], "m": [True, False, None], "n": [1.5, 2], "s": "x"},
        {"t": [0, -1, 2**70, "7"], "e": {}, "k": {"y": 1, "x": [4]}},
    ]
    for doc in others:
        assert canonical_json(doc) == _reference_json(doc)


def test_order2_file_parses(tmp_path):
    path = tmp_path / "c2.brace"
    write_brace(cyclic_unit_brace(2), path)
    assert parse_brace(path).order == 2


def test_schema_errors_carry_paths():
    good = brace_to_dict(cyclic_unit_brace(2))
    with pytest.raises(SchemaError, match=r"\$\.add"):
        brace_from_dict({**good, "add": [0, 1, 1]})
    with pytest.raises(SchemaError, match=r"\$\.labels"):
        brace_from_dict({**good, "labels": ["1"]})
    with pytest.raises(SchemaError, match=r"\$\.format"):
        brace_from_dict({**good, "format": "something/9"})
    with pytest.raises(SchemaError, match=r"\$\.order"):
        brace_from_dict({k: v for k, v in good.items() if k != "order"})
    with pytest.raises(SchemaError, match=r"\$\.mul\[0\]"):
        brace_from_dict({**good, "mul": [True, 1, 1, 0]})
    with pytest.raises(SchemaError):
        brace_from_dict(["not", "an", "object"])


def test_brace_file_refuses_duplicate_labels(tmp_path, capsys):
    good = brace_to_dict(cyclic_unit_brace(3))
    # labels compare after str(): the int 1 and the string "1" name one element
    for labels in (["1", "1", "5", "7"], ["1", 1, "5", "7"]):
        with pytest.raises(SchemaError, match=r"^\$\.labels\[1\]: duplicate label '1'$"):
            brace_from_dict({**good, "labels": labels})
    bad = tmp_path / "dup.brace"
    bad.write_text(json.dumps({**good, "labels": ["1", "1", "5", "7"]}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"file": str(bad)}, "level": "maps"}))
    for argv in (["validate", str(bad)], ["verify", str(bad), "--z", "1"], ["report", "--config", str(cfg)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: $.labels[1]: duplicate label '1'\n", argv


def test_non_brace_table_file_is_rejected(tmp_path):
    doc = brace_to_dict(cyclic_unit_brace(2))
    doc["mul"] = [1, 0, 0, 1]  # a valid group, but its identity sits at index 1
    path = tmp_path / "broken.brace"
    path.write_text(json.dumps(doc))
    from zbrace.braces import BraceError

    with pytest.raises(BraceError):
        parse_brace(path)


def test_matrix_export_golden_flip_operator():
    text = matrix_coo_text(permutation_p(2))
    assert text == "4 4 4\n0 0 1\n1 2 1\n2 1 1\n3 3 1\n"


def test_matrix_export_writes_row_blocks(tmp_path, monkeypatch):
    tb = TwistBundle(build_solution(cyclic_unit_brace(3), 1))
    for name in ("rcheck", "F123"):
        m = tb.matrix(name)
        want = matrix_coo_text(m)
        # 5 rows per block: the last block of 16 or 64 rows is partial
        with monkeypatch.context() as mp:
            mp.setattr(fileio, "COO_BLOCK_ROWS", 5)
            write_matrix(m, tmp_path / "m.coo")
        assert (tmp_path / "m.coo").read_text(encoding="utf-8") == want
        assert want == "".join([f"{m.size} {m.size} {m.size}\n", *(f"{i} {j} 1\n" for i, j in enumerate(m.perm))])


def test_matrix_export_one_element_brace():
    one = trivial_skew_brace(cyclic_group(1), name="one")
    tb = TwistBundle(build_solution(one, 0))
    assert matrix_coo_text(tb.matrix("rcheck")) == "1 1 1\n0 0 1\n"


def test_matrix_export_rcheck_is_doubly_stochastic_pattern(tmp_path):
    tb = TwistBundle(build_solution(cyclic_unit_brace(3), 1))
    path = tmp_path / "rcheck.coo"
    write_matrix(tb.matrix("rcheck"), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "16 16 16"
    rows = [int(l.split()[0]) for l in lines[1:]]
    cols = [int(l.split()[1]) for l in lines[1:]]
    vals = [int(l.split()[2]) for l in lines[1:]]
    assert rows == list(range(16))  # ascending row-major
    assert sorted(cols) == list(range(16))  # one entry per column
    assert set(vals) == {1}


def test_report_is_byte_stable():
    b = cyclic_unit_brace(3)
    zs = select_shifts(b, "all", seed=0)
    r1 = build_report(b, zs, level="all", family="cyclic2n", seed=0)
    r2 = build_report(b, zs, level="all", family="cyclic2n", seed=0)
    assert serialize_report(r1) == serialize_report(r2)
    assert not report_failed(r1)


def test_report_carries_dedup_discrepancy_note():
    b = cyclic_unit_brace(3)
    report = build_report(b, select_shifts(b, "all", seed=0), level="maps", family="cyclic2n")
    assert report["dedup"]["class_labels"] == [["1", "5"], ["3", "7"]]
    assert any("known-discrepancy" in note for note in report["dedup"]["notes"])


def test_select_shifts_modes():
    b = cyclic_unit_brace(3)
    assert select_shifts(b, "all", seed=0) == [0, 1, 2, 3]
    assert select_shifts(b, [3, 1, 3], seed=0) == [1, 3]
    sampled = select_shifts(b, {"sample": 2}, seed=0)
    assert len(sampled) == 2 and sampled == select_shifts(b, {"sample": 2}, seed=0)
    from zbrace.solutions import InadmissibleZError

    with pytest.raises(InadmissibleZError):
        select_shifts(b, [9], seed=0)


def test_cli_make_validate_socle_solve(tmp_path, capsys):
    out = tmp_path / "c3.brace"
    assert main(["make", "--family", "cyclic2n", "--n", "3", "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert main(["socle", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "socle labels:  1 5" in captured
    assert main(["solve", str(out), "--z", "all", "--dedup"]) == 0
    captured = capsys.readouterr().out
    assert "class {1,5}" in captured and "class {3,7}" in captured


def test_cli_solve_cyclic2_prints_single_class(tmp_path, capsys):
    out = tmp_path / "c2.brace"
    main(["make", "--family", "cyclic2n", "--n", "2", "-o", str(out)])
    assert main(["solve", str(out), "--z", "all", "--dedup"]) == 0
    assert "class {1,3}" in capsys.readouterr().out


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "c3.brace"
    main(["make", "--family", "cyclic2n", "--n", "3", "-o", str(out)])
    assert main(["verify", str(out), "--z", "3", "--level", "all"]) == 0
    capsys.readouterr()
    missing = main(["verify", str(tmp_path / "nope.brace"), "--z", "all"])
    assert missing == 2


def test_cli_verify_rejects_corrupted_brace(tmp_path, capsys):
    doc = brace_to_dict(cyclic_unit_brace(2))
    doc["mul"] = [1, 0, 0, 1]
    bad = tmp_path / "bad.brace"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad), "--z", "all"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_z_tokens_resolve_labels_then_indices(tmp_path, capsys):
    out = tmp_path / "s3.brace"
    main(["make", "--family", "trivial", "--group", "s3", "-o", str(out)])
    capsys.readouterr()
    # "012" is a label; "3" is not a label of S3, so it is an index
    assert main(["solve", str(out), "--z", "012,3"]) == 0
    printed = capsys.readouterr().out
    assert "z=0" in printed and "z=3" in printed


@pytest.fixture(scope="module")
def cyclic5_brace(tmp_path_factory):
    out = tmp_path_factory.mktemp("cyclic5") / "c5.brace"
    write_brace(cyclic_unit_brace(5), out)
    return out


def _z_command(command, brace, token, tmp_path):
    extra = {"export": ["--object", "P", "-o", str(tmp_path / "P.coo")], "twist": ["--check", "cocycle"]}
    return [command, str(brace), f"--z={token}", *extra.get(command, [])]


@pytest.mark.parametrize("command", ["verify", "solve", "twist", "export"])
@pytest.mark.parametrize("token", ["1_0", "\u0661", "+3", "-1"])
def test_cli_z_index_is_ascii_digits_only(cyclic5_brace, tmp_path, capsys, command, token):
    # int() reads "1_0" as 10, the Arabic-Indic one as 1 and "+3" as 3;
    # none of them is a label of cyclic2n n=5 (whose labels are 1, 3, ..., 31)
    assert main(_z_command(command, cyclic5_brace, token, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {token!r} is neither a label nor an index\n"


@pytest.mark.parametrize("command", ["verify", "solve", "twist", "export"])
def test_cli_z_digits_and_labels_resolve(cyclic5_brace, tmp_path, capsys, command):
    # "10" is no label, so it is index 10 (label 21); "3" is the label of index 1
    for token, z in (("10", 10), ("3", 1)):
        assert main(_z_command(command, cyclic5_brace, token, tmp_path)) == 0
        printed = capsys.readouterr().out
        if command == "export":
            assert printed == f"wrote P (256x256) to {tmp_path / 'P.coo'}\n"
        else:
            assert set(re.findall(r"\bz=(\d+)", printed)) == {str(z)}


def test_cli_trivial_s3_report_fails_on_gv_conjugation(tmp_path, capsys):
    # honest failure: the substitution identity does not hold for nonabelian
    # addition, so a full S3 verification exits 1 with that check failed
    out = tmp_path / "s3.brace"
    main(["make", "--family", "trivial", "--group", "s3", "-o", str(out)])
    code = main(["verify", str(out), "--z", "all", "--level", "maps"])
    printed = capsys.readouterr().out
    assert code == 1
    assert "[   fail] gv:gv-conjugation-identity" in printed
    assert "gv:gv-inverse-relation" in printed


def test_cli_export_and_twist(tmp_path, capsys):
    brace = tmp_path / "c3.brace"
    coo = tmp_path / "P.coo"
    main(["make", "--family", "cyclic2n", "--n", "2", "-o", str(brace)])
    assert main(["export", str(brace), "--z", "1", "--object", "P", "-o", str(coo)]) == 0
    assert coo.read_text() == "4 4 4\n0 0 1\n1 2 1\n2 1 1\n3 3 1\n"
    capsys.readouterr()
    assert main(["export", str(brace), "--z", "1", "--object", "bogus", "-o", str(coo)]) == 2
    assert capsys.readouterr().err == "error: unknown object 'bogus'\n"
    assert main(["twist", str(brace), "--z", "all", "--check", "cocycle,grouplike"]) == 0


def test_cli_report_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.json"
    rep = tmp_path / "report.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}, "z": "all", "level": "maps"}))
    assert main(["report", "--config", str(cfg), "-o", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["summary"]["all_passed"] is True
    assert doc["brace"]["order"] == 4
    rep2 = tmp_path / "report2.json"
    assert main(["report", "--config", str(cfg), "-o", str(rep2)]) == 0
    assert rep.read_text() == rep2.read_text()


def test_cli_report_from_file_and_product(tmp_path):
    left = tmp_path / "c2.brace"
    right = tmp_path / "s3.brace"
    prod = tmp_path / "p.brace"
    main(["make", "--family", "cyclic2n", "--n", "2", "-o", str(left)])
    main(["make", "--family", "trivial", "--group", "s3", "-o", str(right)])
    assert main(["make", "--family", "product", "--left", str(left), "--right", str(right), "-o", str(prod)]) == 0
    assert parse_brace(prod).order == 12


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing file argument
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["make", "--family", "not-a-family", "-o", "x"])
    assert exc.value.code == 2


def test_cli_malformed_report_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"z": "all"}))
    assert main(["report", "--config", str(cfg)]) == 2
    cfg.write_text("not json {")
    assert main(["report", "--config", str(cfg)]) == 2


def test_budget_flag_switches_matrix_checks_to_sampled(tmp_path, capsys):
    # the coassociativity probes follow from no braid constraint, so the
    # budget sends them to the sample; the braid relation is proved at
    # every point whatever the budget
    out = tmp_path / "c3.brace"
    main(["make", "--family", "cyclic2n", "--n", "3", "-o", str(out)])
    capsys.readouterr()
    code = main(["verify", str(out), "--z", "3", "--level", "matrices", "--budget", "1"])
    printed = capsys.readouterr().out
    assert code == 0
    assert "[sampled] tensor:coassociativity:V-iterated-coproduct:eta=0" in printed
    assert "[   pass] tensor:matrix-braid z=1 (64 points)" in printed


def test_verify_output_does_not_depend_on_the_environment(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c3.brace"
    main(["make", "--family", "cyclic2n", "--n", "3", "-o", str(out)])
    capsys.readouterr()
    argv = ["verify", str(out), "--level", "all"]
    assert main(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("ZBRACE_BUDGET", "1")
    monkeypatch.setenv("ZBRACE_THREADS", "2")
    assert main(argv) == 0
    assert capsys.readouterr().out == unset
    assert "[sampled]" not in unset


def test_report_config_without_settings_uses_library_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    rep = tmp_path / "report.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}}))
    assert main(["report", "--config", str(cfg), "-o", str(rep)]) == 0
    b = cyclic_unit_brace(3)
    expected = build_report(b, select_shifts(b, "all", seed=0), family="cyclic2n", params={"n": 3})
    assert rep.read_text() == serialize_report(expected)
    config = json.loads(rep.read_text())["config"]
    assert config["budget"] == 4194304 and config["sample_points"] == 100000
    assert config["timings"] is False


def test_report_streams_the_serialized_bytes_to_the_file_and_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    rep = tmp_path / "report.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 6}}))
    b = cyclic_unit_brace(6)
    expected = serialize_report(build_report(b, select_shifts(b, "all", seed=0), family="cyclic2n", params={"n": 6}))
    assert main(["report", "--config", str(cfg), "-o", str(rep)]) == 0
    assert capsys.readouterr().out == f"wrote report to {rep}\n"
    assert rep.read_bytes() == expected.encode("utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == expected


def test_cli_solve_dedup_builds_one_solution_per_distinct_map(tmp_path, capsys, monkeypatch):
    import zbrace.cli
    import zbrace.reporting
    import zbrace.solutions

    out = tmp_path / "c4.brace"
    main(["make", "--family", "cyclic2n", "--n", "4", "-o", str(out)])
    calls = []

    def counted(b, z):
        calls.append(z)
        return build_solution(b, z)

    for module in (zbrace.cli, zbrace.reporting, zbrace.solutions):
        monkeypatch.setattr(module, "build_solution", counted)
    assert main(["solve", str(out), "--z", "all", "--dedup"]) == 0
    assert sorted(calls) == [0, 1, 2, 3]  # the first member of each class {1,9}, {3,11}, ...
    assert "class {1,9}" in capsys.readouterr().out


def test_cli_solve_cross_checks_every_member_of_a_class(tmp_path, capsys, monkeypatch):
    from zbrace.braces import SkewBrace
    from zbrace.solutions import CriterionMismatchError

    out = tmp_path / "c3.brace"
    main(["make", "--family", "cyclic2n", "--n", "3", "-o", str(out)])
    capsys.readouterr()
    # a socle without label 5, which shares its map with label 1: only the
    # cross-check of shift 2 itself, not its class's build, can see it
    monkeypatch.setattr(SkewBrace, "socle_members", frozenset({0}))
    with pytest.raises(CriterionMismatchError, match="z=2"):
        main(["solve", str(out), "--z", "all"])
    assert capsys.readouterr().out == "z=0 (label 1): involutive=True\nz=1 (label 3): involutive=False\n"


def test_report_builds_and_verifies_each_class_once_plus_the_identity(monkeypatch):
    import zbrace.cli
    import zbrace.reporting
    import zbrace.solutions

    calls = {"build_solution": [], "solution_suite": [], "tensor_suite": []}

    def counted(name, fn, z_of):
        def wrapper(*args, **kwargs):
            calls[name].append(z_of(*args))
            return fn(*args, **kwargs)

        return wrapper

    for module in (zbrace.cli, zbrace.reporting, zbrace.solutions):
        monkeypatch.setattr(module, "build_solution", counted("build_solution", build_solution, lambda b, z: z))
    for name, z_of in (("solution_suite", lambda s, *_: s.z), ("tensor_suite", lambda bundle, *_: bundle.solution.z)):
        monkeypatch.setattr(zbrace.reporting, name, counted(name, getattr(zbrace.reporting, name), z_of))
    b = cyclic_unit_brace(6)
    zs = select_shifts(b, "all", seed=0)
    representatives = [cls[0] for cls in dedup_solutions(b, zs).classes]
    assert (len(zs), len(representatives)) == (32, 16)
    report = build_report(b, zs, level="all", family="cyclic2n")
    assert not report_failed(report)
    # one suite run per class, not per shift, and every shift still has its entries
    assert sorted(calls["build_solution"]) == sorted(representatives + [b.identity])
    assert calls["solution_suite"] == calls["tensor_suite"] == representatives
    assert sorted({c["z"] for c in report["checks"] if c["z"] is not None}) == zs


def test_report_scans_the_socle_once_and_each_shift_involutivity_once(monkeypatch):
    # r o r = id is tested once per class; every shift cross-checks that
    # verdict against its own socle criterion once in the map-level suite
    import zbrace.braces
    import zbrace.solutions

    calls = {"socle": [], "is_involutive": [], "cross_check_involutive": []}
    for module, name in (
        (zbrace.braces, "socle"),
        (zbrace.solutions, "is_involutive"),
        (zbrace.solutions, "cross_check_involutive"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    zs = select_shifts(cyclic_unit_brace(4), "all", seed=0)
    representatives = [cls[0] for cls in dedup_solutions(cyclic_unit_brace(4), zs).classes]
    assert len(representatives) < len(zs)
    for level, tensor_checked in (("maps", []), ("all", representatives)):
        b = cyclic_unit_brace(4)  # a brace of its own, whose socle is not yet scanned
        for record in calls.values():
            record.clear()
        report = build_report(b, zs, level=level, family="cyclic2n")
        assert not report_failed(report)
        assert len(calls["socle"]) == 1
        # the twisted closed forms read each representative's cached verdict
        assert sorted(s.z for s, in calls["is_involutive"]) == tensor_checked
        assert sorted(z for _, z, _ in calls["cross_check_involutive"]) == sorted(zs + tensor_checked)


def test_report_tensor_entries_time_their_own_check_only_with_timings():
    b = cyclic_unit_brace(3)
    zs = select_shifts(b, "all", seed=0)
    for timings in (True, False):
        report = build_report(b, zs, level="matrices", family="cyclic2n", seed=0, timings=timings)
        times = [c["elapsed_ms"] for c in report["checks"] if c["section"] == "tensor"]
        assert len(times) == 4 * 23 + 2 * 2  # two socle shifts add the involutive-collapse pair
        if timings:
            assert all(t > 0 for t in times)
        else:
            assert all(t == 0.0 for t in times)


def test_report_map_entries_time_their_own_check_only_with_timings():
    b = cyclic_unit_brace(3)
    zs = select_shifts(b, "all", seed=0)
    for timings in (True, False):
        report = build_report(b, zs, level="maps", family="cyclic2n", seed=0, timings=timings)
        times = [c["elapsed_ms"] for c in report["checks"]]
        assert [c["section"] for c in report["checks"]] == ["brace"] + ["solution"] * 11 * len(zs) + ["gv"] * 3
        if timings:
            assert all(t > 0 for t in times)
        else:
            assert all(t == 0.0 for t in times)


def test_report_counts_dedup_and_gv_in_the_maps_section_time(monkeypatch):
    import time

    from zbrace import reporting

    def slowed(fn):
        def slow(*args, **kwargs):
            time.sleep(0.2)
            return fn(*args, **kwargs)

        return slow

    for name in ("dedup_section", "gv_section"):
        monkeypatch.setattr(reporting, name, slowed(getattr(reporting, name)))
    b = cyclic_unit_brace(3)
    zs = select_shifts(b, "all", seed=0)
    timed = build_report(b, zs, level="maps", family="cyclic2n", timings=True)["elapsed_ms"]
    assert timed["maps"] >= 400
    assert timed["total"] >= timed["maps"]
    untimed = build_report(b, zs, level="maps", family="cyclic2n")["elapsed_ms"]
    assert untimed == {"maps": 0.0, "matrices": 0.0, "total": 0.0}


def test_report_section_times_add_up_within_the_total():
    # the sections run one after the other, so their times never exceed
    # the total (allowing for rounding each to 3 decimals), and a section
    # that does not run reads 0.0
    b = cyclic_unit_brace(6)
    zs = select_shifts(b, "all", seed=0)
    for level in ("maps", "matrices", "all"):
        elapsed = build_report(b, zs, level=level, family="cyclic2n", timings=True)["elapsed_ms"]
        assert elapsed["maps"] + elapsed["matrices"] <= elapsed["total"] + 0.002, (level, elapsed)
        if level == "maps":
            assert elapsed["matrices"] == 0.0
        if level == "matrices":
            assert elapsed["maps"] == 0.0


def test_entry_times_round_up_to_the_microsecond():
    assert entry_ms(0.0, True) == 0.001
    assert entry_ms(0.0004, True) == 0.001
    assert entry_ms(1.2341, True) == 1.235
    assert entry_ms(1.2341, False) == 0.0


def test_report_decides_each_shift_braid_constraints_once(monkeypatch):
    import zbrace.solutions

    calls = []

    def counted(s, _fn=zbrace.solutions.verify_braid_constraints):
        calls.append(s.z)
        return _fn(s)

    monkeypatch.setattr(zbrace.solutions, "verify_braid_constraints", counted)
    b = cyclic_unit_brace(4)
    zs = select_shifts(b, "all", seed=0)
    representatives = [cls[0] for cls in dedup_solutions(b, zs).classes]
    for level in ("all", "matrices"):
        calls.clear()
        report = build_report(b, zs, level=level, family="cyclic2n")
        assert not report_failed(report)
        # once per class: the other shifts of a class restate its verdicts
        assert sorted(calls) == representatives


def test_cli_pair_criterion_follows_table_content_not_name(tmp_path, capsys):
    renamed = tmp_path / "renamed.brace"
    doc = brace_to_dict(cyclic_unit_brace(6))
    doc["name"] = "oddmatrix-x"
    renamed.write_text(json.dumps(doc))
    assert main(["solve", str(renamed), "--z", "all", "--dedup"]) == 0
    printed = capsys.readouterr().out
    assert "class {1,33}" in printed
    assert "pair criterion" not in printed
    b = parse_brace(renamed)
    assert "criterion_pairs" not in build_report(b, select_shifts(b, "all", seed=0), level="maps")["dedup"]

    genuine = tmp_path / "om.brace"
    assert main(["make", "--family", "oddmatrix", "-o", str(genuine)]) == 0
    capsys.readouterr()
    assert main(["solve", str(genuine), "--z", "0,64,128,192", "--dedup"]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("pair criterion agrees with table equality: True\n")
    assert printed.count("class {") == 2


def test_cli_empty_group_name_is_an_input_error(tmp_path, capsys):
    assert main(["make", "--family", "trivial", "--group", "", "-o", str(tmp_path / "t.brace")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown group ''")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "trivial", "group": ""}}))
    assert main(["report", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown group ''") and err.count("\n") == 1


@pytest.mark.parametrize("group", ["z\u0661\u0660", "s\u00b2", "Z\u0661", "c\u00b2"])
def test_cli_group_order_is_ascii_digits_only(tmp_path, capsys, group):
    out = tmp_path / "t.brace"
    assert main(["make", "--family", "trivial", "--group", group, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown group {group!r} (use sN or zN)\n"
    assert not out.exists()


def test_cli_group_names_with_ascii_digits_resolve(tmp_path):
    for group, order in (("z10", 10), ("C4", 4), ("s3", 6)):
        out = tmp_path / f"{group}.brace"
        assert main(["make", "--family", "trivial", "--group", group, "-o", str(out)]) == 0
        assert parse_brace(out).order == order


def test_cyclic3_note_follows_table_content_not_name(tmp_path, capsys):
    renamed = tmp_path / "renamed.brace"
    doc = brace_to_dict(cyclic_unit_brace(3))
    doc["name"] = "unit-mod-8"
    renamed.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"file": str(renamed)}, "level": "maps"}))
    assert main(["report", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["brace"]["family"] is None
    assert report["dedup"]["class_labels"] == [["1", "5"], ["3", "7"]]
    assert any("known-discrepancy" in note for note in report["dedup"]["notes"])


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_report_product_without_factors_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "product"}}))
    assert main(["report", "--config", str(cfg)]) == 2
    assert "'left' and 'right'" in _assert_one_error_line(capsys)


def test_make_product_without_factors_is_an_input_error(tmp_path, capsys):
    assert main(["make", "--family", "product", "-o", str(tmp_path / "x.brace")]) == 2
    assert "'left' and 'right'" in _assert_one_error_line(capsys)
    assert not (tmp_path / "x.brace").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "--config", "{cfg_list}"], "error: shift selection is empty\n"),
        (["report", "--config", "{cfg_sample}"], "error: z.sample must be >= 1, got 0\n"),
        (["verify", "{brace}", "--z", ""], "error: shift selection is empty\n"),
        (["twist", "{brace}", "--z", ""], "error: shift selection is empty\n"),
        (["twist", "{brace}", "--check", ","], "error: no twist check selected (choose from "),
    ],
    ids=["report-empty-list", "report-sample-0", "verify-empty-z", "twist-empty-z", "twist-empty-check"],
)
def test_empty_selection_is_an_input_error(tmp_path, capsys, monkeypatch, argv, message):
    import zbrace.cli

    paths = {"brace": tmp_path / "c3.brace", "cfg_list": tmp_path / "list.json", "cfg_sample": tmp_path / "sample.json"}
    write_brace(cyclic_unit_brace(3), paths["brace"])
    paths["cfg_list"].write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}, "z": []}))
    paths["cfg_sample"].write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}, "z": {"sample": 0}}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an empty selection")

    monkeypatch.setattr(zbrace.cli, "build_report", no_work)
    monkeypatch.setattr(zbrace.cli, "build_solution", no_work)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_report_scalar_shift_selection_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}, "z": 5}))
    assert main(["report", "--config", str(cfg)]) == 2
    assert "shift selection" in _assert_one_error_line(capsys)
    with pytest.raises(ValueError, match="shift selection"):
        select_shifts(cyclic_unit_brace(3), "13", seed=0)


@pytest.mark.parametrize("points", [0, -3])
def test_report_sample_points_below_one_is_an_input_error(tmp_path, capsys, points):
    b = cyclic_unit_brace(3)
    with pytest.raises(ValueError, match="^sample_points must be >= 1$"):
        build_report(b, [3], sample_points=points)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}, "budget": 1, "sample_points": points}))
    assert main(["report", "--config", str(cfg)]) == 2
    assert _assert_one_error_line(capsys) == "error: sample_points must be >= 1\n"


@pytest.mark.parametrize("value", ["false", 0, None], ids=["string", "int", "null"])
def test_report_timings_must_be_a_json_boolean(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}, "timings": value}))
    assert main(["report", "--config", str(cfg)]) == 2
    assert _assert_one_error_line(capsys).startswith("error: timings must be true or false")


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"brace": {"family": "cyclic2n", "n": [3]}}, "n"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "seed": [1]}, "seed"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "z": [[1]]}, "z[0]"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "z": {"sample": [2]}}, "z.sample"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "budget": True}, "budget"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "sample_points": True}, "sample_points"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "seed": True}, "seed"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "z": [3, True]}, "z[1]"),
        ({"brace": {"family": "cyclic2n", "n": 3.7}}, "n"),
        ({"brace": {"family": "cyclic2n", "n": 3.0}}, "n"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "z": [2.9]}, "z[0]"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "z": {"sample": 2.0}}, "z.sample"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "budget": 63.9}, "budget"),
        ({"brace": {"family": "cyclic2n", "n": 3}, "z": ["1"]}, "z[0]"),
        ({"brace": {"family": "cyclic2n", "n": "3"}}, "n"),
    ],
    ids=[
        "brace-n-list", "seed-list", "z-nested-list", "z-sample-list",
        "budget-bool", "sample-points-bool", "seed-bool", "z-entry-bool",
        "brace-n-float", "brace-n-integral-float", "z-entry-float", "z-sample-float", "budget-float",
        "z-entry-string", "brace-n-string",
    ],
)
def test_report_non_integer_numeric_field_is_an_input_error(tmp_path, capsys, cfg, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["report", "--config", str(path)]) == 2
    assert _assert_one_error_line(capsys).startswith(f"error: {field} must be an integer")


@pytest.mark.parametrize("bad, index", [(True, 3), (1.0, 2)], ids=["bool", "float"])
def test_table_entry_that_is_not_an_integer_names_its_index(bad, index):
    good = brace_to_dict(cyclic_unit_brace(3))
    mul = list(good["mul"])
    mul[index] = bad
    with pytest.raises(SchemaError, match=rf"^\$\.mul\[{index}\]: entries must be integers$"):
        brace_from_dict({**good, "mul": mul})


@pytest.mark.parametrize("bad", [10**20, -(10**20), 2**63], ids=["1e20", "-1e20", "2^63"])
def test_table_entry_out_of_int64_range_is_an_input_error(tmp_path, capsys, bad):
    doc = brace_to_dict(cyclic_unit_brace(2))
    doc["add"][1] = bad
    with pytest.raises(SchemaError, match=r"^\$\.add\[1\]: entries must fit in a signed 64-bit integer$"):
        brace_from_dict(doc)
    path = tmp_path / "big.brace"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert _assert_one_error_line(capsys) == (
        "error: $.add[1]: entries must fit in a signed 64-bit integer\n"
    )


# add[1][4] = 5 in the odd-matrix brace; each bad value is 5 modulo 2^16, so an entry
# narrowed to int16 before its range check would read 5 and the file would validate
@pytest.mark.parametrize("bad", [65541, -65531, 2**32 + 5], ids=["2^16+5", "-2^16+5", "2^32+5"])
def test_table_entry_that_wraps_to_an_index_is_refused(tmp_path, capsys, bad):
    doc = brace_to_dict(odd_matrix_brace())
    assert doc["add"][1 * 256 + 4] == 5
    doc["add"][1 * 256 + 4] = bad
    message = f"entry table[1][4] = {bad} is not an index in [0, 256)"
    with pytest.raises(NotClosedError, match=rf"^{re.escape(message)}$") as err:
        validate_group(np.array(doc["add"], dtype=np.int64).reshape(256, 256))
    assert err.value.witness == (1, 4)
    path = tmp_path / "wrapped.brace"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert _assert_one_error_line(capsys) == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, builder",
    [
        (["--family", "radical", "--modulus", "8194"], "zbrace.braces.even_residue_ring_tables"),
        (["--family", "trivial", "--group", "z4097"], "zbrace.cli.cyclic_group"),
    ],
    ids=["radical", "trivial-cyclic"],
)
def test_make_above_the_carrier_cap_is_an_input_error(tmp_path, capsys, monkeypatch, args, builder):
    def no_tables(*args):
        raise AssertionError("tables built before the cap was checked")

    monkeypatch.setattr(builder, no_tables)
    assert main(["make", *args, "-o", str(tmp_path / "x.brace")]) == 2
    assert _assert_one_error_line(capsys) == "error: carrier size 4097 exceeds cap 4096\n"
    assert not (tmp_path / "x.brace").exists()


def test_brace_file_above_the_carrier_cap_is_rejected_before_table_work(monkeypatch):
    import zbrace.fileio

    def no_work(*args, **kwargs):
        raise AssertionError("table work started before the cap was checked")

    monkeypatch.setattr(zbrace.fileio, "_table_from_flat", no_work)
    monkeypatch.setattr(zbrace.fileio, "validate_group", no_work)
    doc = {**brace_to_dict(cyclic_unit_brace(2)), "order": 4097, "labels": [str(i) for i in range(4097)]}
    with pytest.raises(BoundExceededError, match="^carrier size 4097 exceeds cap 4096$"):
        brace_from_dict(doc)


@pytest.mark.parametrize(
    "argv",
    [["validate", "{path}"], ["make", "--family", "cyclic2n", "--n", "3", "-o", "{path}"]],
    ids=["validate", "make"],
)
def test_path_through_a_file_is_an_input_error(tmp_path, capsys, argv):
    plain = tmp_path / "plain.txt"
    plain.write_text("not a directory\n")
    assert main([arg.format(path=plain / "x") for arg in argv]) == 2
    assert "Not a directory" in _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{brace}", "--seed", "-1", "--level", "all"],
        ["twist", "{brace}", "--seed", "-1"],
        ["report", "--config", "{cfg}"],
    ],
    ids=["verify", "twist", "report"],
)
def test_negative_seed_is_rejected_before_any_check(tmp_path, capsys, monkeypatch, argv):
    import zbrace.cli

    paths = {"brace": tmp_path / "c3.brace", "cfg": tmp_path / "cfg.json"}
    write_brace(cyclic_unit_brace(3), paths["brace"])
    paths["cfg"].write_text(json.dumps({"brace": {"file": str(paths["brace"])}, "seed": -1, "z": {"sample": 2}}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    for name in ("parse_brace", "_make_brace", "build_report", "build_solution"):
        monkeypatch.setattr(zbrace.cli, name, no_work)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert _assert_one_error_line(capsys) == "error: seed must be >= 0, got -1\n"
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        config_int(-1, "seed", minimum=0)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{brace}", "--seed", str(2**64), "--level", "all"],
        ["twist", "{brace}", "--seed", str(2**64)],
        ["report", "--config", "{cfg}"],
    ],
    ids=["verify", "twist", "report"],
)
def test_seed_past_64_bits_is_rejected_before_any_check(tmp_path, capsys, monkeypatch, argv):
    import zbrace.cli

    paths = {"brace": tmp_path / "c3.brace", "cfg": tmp_path / "cfg.json"}
    write_brace(cyclic_unit_brace(3), paths["brace"])
    paths["cfg"].write_text(json.dumps({"brace": {"file": str(paths["brace"])}, "seed": 2**64, "z": {"sample": 2}}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    for name in ("parse_brace", "_make_brace", "build_report", "build_solution"):
        monkeypatch.setattr(zbrace.cli, name, no_work)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert _assert_one_error_line(capsys) == f"error: seed must be <= {2**64 - 1}, got {2**64}\n"
    with pytest.raises(ValueError, match=f"^seed must be <= {2**64 - 1}, got {2**64}$"):
        build_report(cyclic_unit_brace(3), [3], seed=2**64)


def test_largest_seed_is_accepted(tmp_path, capsys, cyclic3_file):
    seed = str(2**64 - 1)
    assert main(["verify", str(cyclic3_file), "--level", "matrices", "--budget", "0", "--seed", seed]) == 0
    assert "[sampled]" in capsys.readouterr().out
    assert main(["twist", str(cyclic3_file), "--z", "3", "--budget", "0", "--seed", seed]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 3}, "z": {"sample": 2}, "seed": 2**64 - 1}))
    assert main(["report", "--config", str(cfg)]) == 0


def test_solve_still_accepts_a_negative_seed(tmp_path, capsys):
    path = tmp_path / "c3.brace"
    write_brace(cyclic_unit_brace(3), path)
    assert main(["solve", str(path), "--seed", "-1"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{brace}", "--budget", "-1", "--level", "matrices"],
        ["twist", "{brace}", "--budget", "-1"],
        ["report", "--config", "{cfg}"],
    ],
    ids=["verify", "twist", "report"],
)
def test_negative_budget_is_rejected_before_any_check(tmp_path, capsys, monkeypatch, argv):
    import zbrace.cli

    paths = {"brace": tmp_path / "c3.brace", "cfg": tmp_path / "cfg.json"}
    write_brace(cyclic_unit_brace(3), paths["brace"])
    paths["cfg"].write_text(json.dumps({"brace": {"file": str(paths["brace"])}, "budget": -1, "level": "matrices"}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget was checked")

    for name in ("parse_brace", "_make_brace", "build_report", "build_solution"):
        monkeypatch.setattr(zbrace.cli, name, no_work)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert _assert_one_error_line(capsys) == "error: budget must be >= 0, got -1\n"


_KNOWN_KEYS = "(known keys: brace, z, level, seed, budget, sample_points, timings)"


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"sample_points": 0}, "sample_points must be >= 1"),
        ({"threads": 2}, f"unknown config key 'threads' {_KNOWN_KEYS}"),
        ({"sample_point": 10}, f"unknown config key 'sample_point' {_KNOWN_KEYS}"),
    ],
    ids=["report-sample-points", "report-threads", "report-misspelt-key"],
)
def test_report_settings_are_rejected_before_any_check(tmp_path, capsys, monkeypatch, setting, message):
    import zbrace.cli

    brace = tmp_path / "c3.brace"
    write_brace(cyclic_unit_brace(3), brace)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"file": str(brace)}, **setting}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the setting was checked")

    for name in ("parse_brace", "_make_brace", "build_report", "build_solution"):
        monkeypatch.setattr(zbrace.cli, name, no_work)
    assert main(["report", "--config", str(cfg)]) == 2
    assert _assert_one_error_line(capsys) == f"error: {message}\n"


_BRACE_KEYS = "(known keys: file, family, n, modulus, group, left, right)"


@pytest.mark.parametrize(
    "brace, message",
    [
        ({"family": "cyclic2n", "N": 5}, f"unknown brace key 'N' {_BRACE_KEYS}"),
        ({"file": "c3.brace", "threads": 2, "seed": 1}, f"unknown brace key 'threads', 'seed' {_BRACE_KEYS}"),
    ],
    ids=["family-misspelt-n", "file-with-extra-keys"],
)
def test_report_unknown_brace_keys_are_rejected_before_the_brace_is_read(
    tmp_path, capsys, monkeypatch, brace, message
):
    import zbrace.cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": brace}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the brace keys were checked")

    for name in ("parse_brace", "_make_brace", "build_report", "build_solution"):
        monkeypatch.setattr(zbrace.cli, name, no_work)
    assert main(["report", "--config", str(cfg)]) == 2
    assert _assert_one_error_line(capsys) == f"error: {message}\n"


def test_verify_has_no_threads_option(capsys, cyclic3_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(cyclic3_file), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"timings": "yes"}, "timings must be true or false, got 'yes'"),
        ({"level": "everything"}, "unknown level 'everything'"),
    ],
    ids=["timings", "level"],
)
@pytest.mark.parametrize("source", ["file", "family"])
def test_report_timings_and_level_are_rejected_before_the_brace_is_read(
    tmp_path, capsys, monkeypatch, setting, message, source
):
    import zbrace.cli

    brace = {"file": str(tmp_path / "missing.brace")} if source == "file" else {"family": "oddmatrix"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": brace, **setting}))

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the setting was checked")

    for name in ("parse_brace", "_make_brace", "build_report", "build_solution"):
        monkeypatch.setattr(zbrace.cli, name, no_work)
    assert main(["report", "--config", str(cfg)]) == 2
    assert _assert_one_error_line(capsys) == f"error: {message}\n"


def _python_values_only(obj) -> bool:
    if type(obj) is dict:
        return all(type(k) is str and _python_values_only(v) for k, v in obj.items())
    if type(obj) is list:
        return all(_python_values_only(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


def test_report_holds_only_python_values():
    # a report is serialized as built: no NumPy scalar, array or tuple may reach it
    b = cyclic_unit_brace(3)
    report = build_report(b, select_shifts(b, "all", seed=0), family="cyclic2n", params={"n": 3}, timings=True)
    assert _python_values_only(report)
    odd = odd_matrix_brace()
    report = build_report(odd, [37, 106, 168], level="maps", family="oddmatrix", budget=10, sample_points=5)
    assert report["dedup"]["criterion_pairs"]
    assert _python_values_only(report)


def test_budget_zero_is_accepted(tmp_path, capsys, cyclic3_file):
    # zero is the smallest budget: every arity-3 check the braid constraints do not prove is sampled
    assert main(["verify", str(cyclic3_file), "--z", "3", "--level", "matrices", "--budget", "0"]) == 0
    assert "sampled=" in capsys.readouterr().out


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_1_without_an_error_line(tmp_path, unbuffered):
    # buffered, the broken pipe shows at the final flush; unbuffered, at the first print
    import zbrace

    path = tmp_path / "c3.brace"
    write_brace(cyclic_unit_brace(3), path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(zbrace.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zbrace.cli", "twist", str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_report_into_a_stdout_pipe_closed_mid_stream_exits_1_without_a_traceback(tmp_path, unbuffered):
    # the report leaves in chunks, so the reader can go while most of it is still unwritten
    import zbrace

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 6}}))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(zbrace.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "zbrace.cli", "report", "--config", str(cfg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        head = proc.stdout.read(4096)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head.startswith(b"{\n")
    assert proc.returncode == 1
    assert stderr == b""


def test_sampled_report_loads_no_numpy_random(tmp_path):
    # budget 256 < 8^3 sends the coassociativity probes of cyclic2n n=4 down
    # the sampled path, which draws from zbrace's own splitmix64 stream
    import zbrace

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"brace": {"family": "cyclic2n", "n": 4}, "level": "all", "budget": 256}))
    out = tmp_path / "report.json"
    code = (
        "import sys; from zbrace.cli import main; "
        f"code = main(['report', '--config', {str(cfg)!r}, '-o', {str(out)!r}]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(zbrace.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
    assert json.loads(out.read_text())["summary"]["sampled"] > 0


def test_source_holds_no_numpy_generator():
    import zbrace

    for path in sorted(Path(zbrace.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "np.random" not in text and "numpy.random" not in text, path.name
