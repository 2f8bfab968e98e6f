"""Byte contract: SHA-256 of fixed outputs, pinned when the values were first recorded.

A change that alters one of these bytes on purpose announces the format
change and records the new digest here.
"""

import hashlib
import json

import pytest

from zbrace.braces import cyclic_unit_brace, odd_matrix_brace, trivial_skew_brace
from zbrace.cli import main
from zbrace.fileio import brace_to_dict, canonical_json, write_brace
from zbrace.groups import symmetric_group
from zbrace.reporting import build_report, select_shifts, serialize_report
from zbrace.tensor import PermMatrix, TwistBundle

CYCLIC3_REPORT = "7a13681e28f950ca32263ba8be574663c5545c5ca3961b1cfe0aa318247d9607"
TRIVIAL_S3_REPORT = "f50aa8e40cb78941e3b61da838676b9b863c2609901a27ee12056ac3b0324350"
CYCLIC4_SOLVE_DEDUP = "c58809211a92eb0e46f449ebdcd2550cddb6dbf3704dc86a44b134c8be91c138"
# `solve --z all --dedup` on the odd-matrix brace: 256 involutive= lines,
# 16 classes and the pair-criterion line
ODDMATRIX_SOLVE_DEDUP = "0125976c5e8fe3c7bbef6a792bf78cba2c8faa825b4c260de930dfb983eb0a8a"
# `solve --z all` on trivial-S3, whose six shifts give six distinct maps,
# none of them involutive
TRIVIAL_S3_SOLVE = "ea54752e40b85432446063b9865140e8121be1fba774de55a556ad35fd300af4"
# budget 256 < 8^3 sends every arity-3 check of cyclic2n n=4 that no braid
# constraint proves (the coassociativity probes) down the sampled path
CYCLIC4_SAMPLED_REPORT = "59bb231146c0384e41d6de93a5ba2fbb789a9483ddc49f20c40a9519ef76ab67"
# `twist --z all` with every check family, stdout only
CYCLIC4_TWIST = "c3070d3c61288ed5958b51cedf9ccd19c61f2ebd311afb476f5063175457259e"
TRIVIAL_S3_TWIST = "13b6363cdb3c5e159c2554a967fc8c376af8ac0507d16b12ef62256077b9de0a"
# level "maps" on shifts 128 and 237: pins c1-c3 on the n = 256 path
ODDMATRIX_MAPS_REPORT = "3619ef6aa785ea2845d6185ec1685fb0602d7f51599165adab3372717abc73a6"
# level "all" on shifts 168 (in the socle) and 106 (outside it), default
# budget: pins the tensor layer at n = 256, where x * n overflows int16
ODDMATRIX_ALL_REPORT = "ee51418d18f7688f241f5b0e01f15910a11ec47a80743a7923552ba2b62d3f9f"
# level "all" on all 32 shifts of cyclic2n n=6, default budget: every
# arity-3 check exhaustive, 2 involutive shifts; recorded while the
# twisted closed forms were still compared on materialized matrices
CYCLIC6_REPORT = "ac6fa534559ab065d080ba6ca0c65300bb9455c6c02fff2a8cb71485444878b8"
# `export` coordinate text of each object: cyclic2n n=4 at z=3 and
# trivial-S3 at z=4
EXPORTS = {
    ("cyclic2n-4", "3"): {
        "rcheck": "e5f8f2a5faac83ad5f848f1631614d4d647aba6879016473b5f710df2b026e2c",
        "r": "fb1793c64681bacc9e6f8d739155a892fd84335c8957624a4f67fae2f69f771c",
        "P": "0cc3ff8c929efd253e4ee68c72a35b1f4aed70e2b7b2567accf4e0a6f6efba57",
        "F": "c0626ccb5e7a5232f70041a23321180a0f1bb082505fa7d7f32d896688f75ca0",
        "Fhat": "1f06ad541351beaafea3dba6e874485e3944c7139734211f6fbbd6e698e69a77",
        "rF": "cc82ee144de1d51464a740c8c0f4b14773e52f25232d160fd95341cdadb56fc8",
        "rFhat": "bf978e91f2ac1b6726b8cf9f1a8f110909fc1ffd4104e9de671f59ee27025f07",
        "F123": "8f1b705dfcd0dc44b7d05341cabede9c6747df980a1e463804b688c13c773004",
        "Fhat123": "3ed858f9e14a489e5e944daa4fb8c3a44d7032defef5ff7f6c5c476ac0420a10",
        "V:1": "d1283fbbb96204beaa1f48af9264c94550dc62e1e3e1f3b8d88509b7dda9f612",
        "W:2": "9c8b8cb0f29face01dae30b3a8a4e46c098a06e0da386e3f16a102c03966e042",
        "DeltaV:1": "9635f8e0201403d6268980280496fc219e2a60ecbb27a4145b50cce4b4820d2c",
        "DeltaW:2": "3521af780d2bd76b534c79551f51d4b4993d1dfaed6346560ded929ecce13ae3",
    },
    ("trivial-S3", "4"): {
        "rcheck": "ed3c159012bdee32656540b1937966f7ea048ac7557c2fede7a7e1cce3f63963",
        "r": "11507e010564c5a6066111d882b159aa6657a6bcd6eb2c3f1908d2c1ba2c3900",
        "P": "a94f4400b000ae0592747872c12653e5fc320927562318c8e4c66a40ec4c9f4b",
        "F": "ff242438b9ebb9bbc219e9d5c67172424f717b212157bd337e86c8d0d395b788",
        "Fhat": "b83c04db6086b607fa9b8ad69916055f155f0b08e5e98b2ddc2d5471dfca23b2",
        "rF": "8f37ae921c9ddd38ba49a6a33e31f4aa0e01c48f6b5c4ebc32285c13dcf4b150",
        "rFhat": "8c80be9e5e2430a0a2e75765459ead312e219c7b2b54f5a4e59c14a6fa675005",
        "F123": "df4809f8c112da575e0de0275404169660c608167803766f498f65ffceb84e39",
        "Fhat123": "f93dbe405151f7f96b52333155d608f036326b51bc3fa1a6a496dcfae1cb3f8f",
        "V:1": "650d2fffe98bfeaa7c1958d4d53fa065523117dfeaf52aac36d545d0b4551ebf",
        "W:2": "0c75a1650c7d70e54f40057176225ff4eb78700da8c064e076beeaf5a340b209",
        "DeltaV:1": "a6e8ebae44accdd6f7aceadf2a44765f80ae438039461a1268d759bcc8bbf379",
        "DeltaW:2": "f26aa78535c73ef5e3901f706fd6ecc717f1e0651ba7be2d682fc076dc2008d0",
    },
}
# `validate` stderr on corrupted cyclic2n n=4 files, with exit code 2
VALIDATE_ERRORS = {
    "non-associative-add": "0cead6413ab3f224fc3c4a8d68f8a00aefae9d3c1cb424148d609bee797679fd",
    "broken-left-brace-law": "4cb49de3c215cf229409ac17634ff343b5c9b0a442613ac8eb03cdc92e98c3f3",
    "non-group-mul": "83c7e0604a8ff2c00c4263165cca6a40680eb7678d9ecde2008ffef023f85915",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digest(b, family):
    zs = select_shifts(b, "all", seed=0)
    return _sha(serialize_report(build_report(b, zs, level="all", family=family, seed=0)))


def test_cyclic3_report_bytes():
    assert _report_digest(cyclic_unit_brace(3), "cyclic2n") == CYCLIC3_REPORT


def test_trivial_s3_report_bytes():
    b = trivial_skew_brace(symmetric_group(3), name="trivial-S3")
    assert _report_digest(b, "trivial") == TRIVIAL_S3_REPORT


def test_cyclic4_sampled_report_bytes():
    b = cyclic_unit_brace(4)
    zs = select_shifts(b, "all", seed=0)
    report = build_report(b, zs, level="all", family="cyclic2n", seed=0, budget=256, sample_points=300)
    assert report["summary"]["sampled"] == 8
    assert _sha(serialize_report(report)) == CYCLIC4_SAMPLED_REPORT


def test_cyclic4_solve_dedup_stdout(tmp_path, capsys):
    path = tmp_path / "c4.brace"
    write_brace(cyclic_unit_brace(4), path)
    assert main(["solve", str(path), "--z", "all", "--dedup"]) == 0
    assert _sha(capsys.readouterr().out) == CYCLIC4_SOLVE_DEDUP


def test_oddmatrix_solve_dedup_stdout(tmp_path, capsys):
    path = tmp_path / "om.brace"
    write_brace(odd_matrix_brace(), path)
    assert main(["solve", str(path), "--z", "all", "--dedup"]) == 0
    assert _sha(capsys.readouterr().out) == ODDMATRIX_SOLVE_DEDUP


def test_trivial_s3_solve_stdout(tmp_path, capsys):
    path = tmp_path / "s3.brace"
    write_brace(trivial_skew_brace(symmetric_group(3), name="trivial-S3"), path)
    assert main(["solve", str(path), "--z", "all"]) == 0
    assert _sha(capsys.readouterr().out) == TRIVIAL_S3_SOLVE


def test_twist_stdout_and_exit_codes(tmp_path, capsys):
    cases = [
        (cyclic_unit_brace(4), CYCLIC4_TWIST),
        (trivial_skew_brace(symmetric_group(3), name="trivial-S3"), TRIVIAL_S3_TWIST),
    ]
    for b, digest in cases:
        path = tmp_path / f"{b.name}.brace"
        write_brace(b, path)
        assert main(["twist", str(path), "--z", "all"]) == 0
        assert _sha(capsys.readouterr().out) == digest


def test_export_coo_bytes(tmp_path):
    braces = {b.name: b for b in (cyclic_unit_brace(4), trivial_skew_brace(symmetric_group(3), name="trivial-S3"))}
    for (name, z), digests in EXPORTS.items():
        path = tmp_path / f"{name}.brace"
        write_brace(braces[name], path)
        for obj, digest in digests.items():
            out = tmp_path / "object.coo"
            assert main(["export", str(path), "--z", z, "--object", obj, "-o", str(out)]) == 0
            assert _sha(out.read_text(encoding="utf-8")) == digest, (name, obj)


def test_oddmatrix_maps_report_bytes():
    b = odd_matrix_brace()
    zs = select_shifts(b, [128, 237], seed=0)
    report = build_report(b, zs, level="maps", family="oddmatrix", seed=0)
    assert _sha(serialize_report(report)) == ODDMATRIX_MAPS_REPORT


def test_oddmatrix_all_report_bytes():
    b = odd_matrix_brace()
    zs = select_shifts(b, [168, 106], seed=0)
    report = build_report(b, zs, level="all", family="oddmatrix", seed=0)
    assert report["summary"] == {"pass": 70, "fail": 0, "sampled": 4, "all_passed": True}
    assert _sha(serialize_report(report)) == ODDMATRIX_ALL_REPORT


def test_all_level_reports_materialize_no_operator(monkeypatch):
    # on a shift whose bundle builds, only export and the per-element
    # fallbacks, which no real shift reaches, build an operator matrix
    def refuse(*args, **kwargs):
        raise AssertionError("an operator matrix was built")

    monkeypatch.setattr(TwistBundle, "matrix", refuse)
    monkeypatch.setattr(PermMatrix, "inverse", refuse)
    assert _report_digest(cyclic_unit_brace(6), "cyclic2n") == CYCLIC6_REPORT
    b = odd_matrix_brace()
    report = build_report(b, select_shifts(b, [168, 106], seed=0), level="all", family="oddmatrix", seed=0)
    assert _sha(serialize_report(report)) == ODDMATRIX_ALL_REPORT


def _corrupted_cyclic4(kind: str) -> dict:
    """The cyclic2n n=4 brace document with one table broken in a fixed way."""
    doc = json.loads(json.dumps(brace_to_dict(cyclic_unit_brace(4))))
    n = doc["order"]
    if kind == "non-associative-add":
        add = doc["add"]  # swap two entries off the identity row and column
        add[3 * n + 4], add[3 * n + 5] = add[3 * n + 5], add[3 * n + 4]
    elif kind == "broken-left-brace-law":
        p = list(range(n))  # relabel (B, o) by a transposition fixing the identity
        p[2], p[5] = p[5], p[2]
        mul = doc["mul"]
        relabelled = [0] * (n * n)
        for x in range(n):
            for y in range(n):
                relabelled[p[x] * n + p[y]] = p[mul[x * n + y]]
        doc["mul"] = relabelled
    else:
        doc["mul"][5 * n + 6] = doc["mul"][5 * n + 7]
    return doc


@pytest.mark.parametrize("kind", sorted(VALIDATE_ERRORS))
def test_validate_error_stderr(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.brace"
    path.write_text(canonical_json(_corrupted_cyclic4(kind)), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _sha(captured.err) == VALIDATE_ERRORS[kind]
