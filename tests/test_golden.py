"""Byte-for-byte pins of the characterization commands' output.

The digests were recorded from the flat-elimination implementation that the
block solver replaced; stdout and --out must both still match them.
"""

import hashlib

import pytest

from gamow.cli import EXIT_OK, main

GOLDEN = [
    ("exp-check --r 1 --format json", "f5f1fe5ce183359bf294648eb39bd7fa9898542b41f87ae0c869887ab81180b3"),
    ("exp-check --r 1 --format csv", "f5f1fe5ce183359bf294648eb39bd7fa9898542b41f87ae0c869887ab81180b3"),
    ("exp-check --r 2 --format json", "7c10d38d945c70859547747b826ccbc610ec55525226d60e5c0d5bff0342fe4f"),
    ("exp-check --r 2 --format csv", "7c10d38d945c70859547747b826ccbc610ec55525226d60e5c0d5bff0342fe4f"),
    ("exp-check --r 3 --format json", "151e532e4c65b7e9cfa08ea290e48e92d3dad364c993d4e290359a1983638618"),
    ("exp-check --r 3 --format csv", "151e532e4c65b7e9cfa08ea290e48e92d3dad364c993d4e290359a1983638618"),
    ("exp-check --r 4 --format json", "f841865dba60f8d706301ebea211c0f089e727a1fdd2b399b6dd8da22fe3a266"),
    ("exp-check --r 4 --format csv", "f841865dba60f8d706301ebea211c0f089e727a1fdd2b399b6dd8da22fe3a266"),
    ("exp-check --r 5 --format json", "71f5b58430d91e74827a1c36ea06e79f3da99250426a9fda93809aa749e9e40d"),
    ("exp-check --r 5 --format csv", "71f5b58430d91e74827a1c36ea06e79f3da99250426a9fda93809aa749e9e40d"),
    ("exp-check --j 0 --format json", "58b88f32c37c0e83e3728df6fcc9cb8067d6a37c333d2fa755adf16acdcb1c11"),
    ("exp-check --j 0 --format csv", "58b88f32c37c0e83e3728df6fcc9cb8067d6a37c333d2fa755adf16acdcb1c11"),
    ("exp-check --j 1 --format json", "ef6e57ce2937db26e242bd3f92625feb409b00311fa6ae5743f077207cdf7460"),
    ("exp-check --j 1 --format csv", "ef6e57ce2937db26e242bd3f92625feb409b00311fa6ae5743f077207cdf7460"),
    ("exp-check --j 2 --format json", "654f72cbaed05efe265d93a4d24219abff45ff3298db0b043ea6ddfaa327a2b9"),
    ("exp-check --j 2 --format csv", "654f72cbaed05efe265d93a4d24219abff45ff3298db0b043ea6ddfaa327a2b9"),
    ("exp-check --j 3 --format json", "666e33cdc5174a4e40883964163dee2e407401520cb26b9904251c580048ebd1"),
    ("exp-check --j 3 --format csv", "666e33cdc5174a4e40883964163dee2e407401520cb26b9904251c580048ebd1"),
    ("exp-check --j 4 --format json", "41e377fba74e57a34d2354e5f1310618d9f841b848d52e1f65db5eae669578fd"),
    ("exp-check --j 4 --format csv", "41e377fba74e57a34d2354e5f1310618d9f841b848d52e1f65db5eae669578fd"),
    ("exp-check --j 5 --format json", "9f8d8bc8171401f2dc1510b3716fa4be1d5d508c9ed51588f30165151111b6af"),
    ("exp-check --j 5 --format csv", "9f8d8bc8171401f2dc1510b3716fa4be1d5d508c9ed51588f30165151111b6af"),
    ("exp-check --j 6 --format json", "4e19c30f42841094f4635a4f9336d847ca38adcb45537c82328f00db6e250623"),
    ("exp-check --j 6 --format csv", "4e19c30f42841094f4635a4f9336d847ca38adcb45537c82328f00db6e250623"),
    ("exp-check --j 7 --format json", "c103b2f656b2862bf91dfb63bdab2d3553814c2fa6ed82aba8a6b0e0d411a968"),
    ("exp-check --j 7 --format csv", "c103b2f656b2862bf91dfb63bdab2d3553814c2fa6ed82aba8a6b0e0d411a968"),
    ("exp-check --j 8 --format json", "4c072b98ddc8ff189331140c949217b4adcd142a3eb3012f2cc23b5a16488261"),
    ("exp-check --j 8 --format csv", "4c072b98ddc8ff189331140c949217b4adcd142a3eb3012f2cc23b5a16488261"),
    ("basis --r 2 --format json", "5020f162c045e91cd28c63237ac266fb566bb9c374ccf4c811edfe07ab3892f6"),
    ("basis --r 2 --format csv", "4ba7f52fd6f13bbae3af400d5bf3be3b872c68067dedcbbab10bdd198351e526"),
    ("basis --r 3 --format json", "0dbd72d3d66fb5a805a8f44640ea8057b6d822f2937c063d08cd723521c5d14c"),
    ("basis --r 3 --format csv", "9f273a30ba6ad46ea70b7cd5c91fc4e17d9387a96fa6c79f62afe2ce1120c0c0"),
    ("basis --r 4 --format json", "f07cdab8a9466cf47297480ce3421cb3328189e24d956e4a1a76b6a99a3aeeb9"),
    ("basis --r 4 --format csv", "874fb316598639226161395e203a1d182afc841a5adc855bcf477cd268aa3c31"),
    ("basis --r 5 --format json", "9dc2be566944b4300480e52f954fdb8539b5418dc8c52f91e7b865c2c3fe2500"),
    ("basis --r 5 --format csv", "046b501083711bdbaee065e67598f6892cdf5239f29de593d62c839aae10f4e6"),
    ("basis --r 6 --format json", "edc241047e0966e82bdec0d0ebf193117978c0bb90649f16025cdceb6ed4e742"),
    ("basis --r 6 --format csv", "f205b9d853f98dfe84a6b1b3acd10db31aba305cf5586485db5ff82c110ca4ff"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_output_bytes_are_pinned(argv, digest, tmp_path, capsys):
    assert main(argv.split()) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    out = tmp_path / "out"
    assert main(argv.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
