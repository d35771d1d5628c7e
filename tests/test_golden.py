"""Byte-for-byte pins of the command-line output.

The exp-check and basis digests were recorded from the flat-elimination
implementation that the block solver replaced; stdout and --out must both
still match them (exp-check writes JSON only and takes no --format).  The
evolve digests and the residue value were recorded from the hand-written
value classes that the dataclasses replaced.  The r = 12 digests were
recorded before the coefficient tables were reduced to the one dyad layout.
The r = 16 and j = 20 digests were recorded from the block solver that the
structural certificate replaced.  The whole-report residue digests were
re-recorded when the contour legs moved from scipy's compiled QUADPACK to
the one-pass complex Gauss-Kronrod quadrature, which moves `direct`,
`background`, `discrepancy` and `quadrature_error` in their last digits;
the exact `residue` field and `passed` are pinned separately and did not
move.
"""

import hashlib
import json
from importlib.resources import files

import pytest

from gamow.cli import EXIT_OK, main

GOLDEN = [
    ("exp-check --r 1", "f5f1fe5ce183359bf294648eb39bd7fa9898542b41f87ae0c869887ab81180b3"),
    ("exp-check --r 2", "7c10d38d945c70859547747b826ccbc610ec55525226d60e5c0d5bff0342fe4f"),
    ("exp-check --r 3", "151e532e4c65b7e9cfa08ea290e48e92d3dad364c993d4e290359a1983638618"),
    ("exp-check --r 4", "f841865dba60f8d706301ebea211c0f089e727a1fdd2b399b6dd8da22fe3a266"),
    ("exp-check --r 5", "71f5b58430d91e74827a1c36ea06e79f3da99250426a9fda93809aa749e9e40d"),
    ("exp-check --r 12", "7bf851426e0046fcda9a5114a027c62b4d86af45771a5ebf8688d4e77b550aeb"),
    ("exp-check --r 16", "d9a5c225868254a07ab6ea28e5b72b9ab5cd461625c1b0e979e2f19e40fd3ac5"),
    ("exp-check --j 0", "58b88f32c37c0e83e3728df6fcc9cb8067d6a37c333d2fa755adf16acdcb1c11"),
    ("exp-check --j 1", "ef6e57ce2937db26e242bd3f92625feb409b00311fa6ae5743f077207cdf7460"),
    ("exp-check --j 2", "654f72cbaed05efe265d93a4d24219abff45ff3298db0b043ea6ddfaa327a2b9"),
    ("exp-check --j 3", "666e33cdc5174a4e40883964163dee2e407401520cb26b9904251c580048ebd1"),
    ("exp-check --j 4", "41e377fba74e57a34d2354e5f1310618d9f841b848d52e1f65db5eae669578fd"),
    ("exp-check --j 5", "9f8d8bc8171401f2dc1510b3716fa4be1d5d508c9ed51588f30165151111b6af"),
    ("exp-check --j 6", "4e19c30f42841094f4635a4f9336d847ca38adcb45537c82328f00db6e250623"),
    ("exp-check --j 7", "c103b2f656b2862bf91dfb63bdab2d3553814c2fa6ed82aba8a6b0e0d411a968"),
    ("exp-check --j 8", "4c072b98ddc8ff189331140c949217b4adcd142a3eb3012f2cc23b5a16488261"),
    ("exp-check --j 20", "27c66deee7e4368ec88033acf4df01b2358b16c7277a255cb9dd35cc1395c863"),
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
    ("basis --r 12 --format json", "0bcddef5553cf8ca753dc8cfa13b3f151d303f95d68556a9ce0d52b57699fbbd"),
    ("basis --r 12 --format csv", "aea54a08476c6e9f369b23994a550aa264dccdf8754222c3d771366685fdca8c"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_output_bytes_are_pinned(argv, digest, tmp_path, capsys):
    assert main(argv.split()) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    out = tmp_path / "out"
    assert main(argv.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


EVOLVE_CONFIGS = {
    "binomial-r2-n1": {
        "E_R": 2.0, "Gamma": 1.0, "r": 2,
        "operator": {"kind": "binomial", "n": 1},
        "grid": {"t_end": 5.0, "steps": 11},
    },
    "binomial-r4-n3-bare": {
        "E_R": 0.5, "Gamma": 0.75, "r": 4,
        "operator": {"kind": "binomial", "n": 3, "include_prefactor": False},
        "grid": {"t_end": 3.0, "steps": 7},
    },
    "dyad-r3": {
        "E_R": 0.0, "Gamma": 2.0, "r": 3,
        "operator": {"kind": "dyad", "ket": 2, "bra": 1, "coeff": [0.5, -1.5]},
        "grid": {"t_end": 2.0, "steps": 11},
    },
    "dyad-r4-top": {
        "E_R": 1.0, "Gamma": 0.5, "r": 4,
        "operator": {"kind": "dyad", "ket": 3, "bra": 3},
        "grid": {"t_end": 40.0, "steps": 9},
    },
    "coefficients-r4": {
        "E_R": -1.0, "Gamma": 1.5, "r": 4,
        "operator": {"kind": "coefficients", "entries": [
            {"ket": 0, "bra": 3, "coeff": 1},
            {"ket": 1, "bra": 2, "coeff": [0, 3]},
            {"ket": 2, "bra": 1, "coeff": -0.25},
            {"ket": 3, "bra": 0, "coeff": [2, -1]},
            {"ket": 1, "bra": 1, "coeff": 0.1},
        ]},
        "grid": {"t_end": 4.0, "steps": 11},
    },
}

EVOLVE_GOLDEN = [
    ("binomial-r2-n1", "csv", "2626c1e739015081a313ae5cc2d926bcfa6233c24fb0a395171fa8421cf9f730"),
    ("binomial-r2-n1", "json", "8d93659db3f1e8414e5ed158a26f18ff0bc1bfd166205f12d541730ad498fa71"),
    ("binomial-r4-n3-bare", "csv", "b23c2f4fcb03fef6112d499b206b1437e7021d5eb24cbfde3d6e0c6acacc28e7"),
    ("binomial-r4-n3-bare", "json", "638939f31cff2c92f6c51bab5a56ff84da076a5dc18bc670b4b58bb2a9dd9e3a"),
    ("dyad-r3", "csv", "515e0b76a7695e0e18075a806e8fafc4dc70817c040b3684e0fcc73d2d0cefe2"),
    ("dyad-r3", "json", "e7254d4d486ea9a078c6aff26994a9ffe2c4c2fddc7965b7b5d055570843084d"),
    ("dyad-r4-top", "csv", "5d1e0a2fd2ba165955f6440ed4313f73b8055455bcd0489cbca70d1f4f2d8017"),
    ("dyad-r4-top", "json", "e1f5974ae3ab84f61f9bc061f401c289bb7daddda3c9ad462827fd72bf04af19"),
    ("coefficients-r4", "csv", "e11a11cbaae40fb0d1990925aa6257f0bcd2315fce25efdb765606ab37de021a"),
    ("coefficients-r4", "json", "b75da6c36bdf9e064320df3cf01879246800e834e3b139a73f018a6bb1eadcaf"),
]


@pytest.mark.parametrize(
    "name, fmt, digest", EVOLVE_GOLDEN, ids=[f"{name}-{fmt}" for name, fmt, _ in EVOLVE_GOLDEN]
)
def test_evolve_bytes_are_pinned(name, fmt, digest, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(EVOLVE_CONFIGS[name]))
    assert main(["evolve", "--config", str(config), "--format", fmt]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_residue_of_bundled_example_is_pinned(capsys):
    example = files("gamow") / "data" / "residue_example.json"
    assert main(["residue", "--config", str(example)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["residue"] == [0.17178108047330082, 0.06600191646006057]


# Bench-shaped residue models: a slot's pole and denominator roots with
# dyadic coefficients, in the three shapes whose quadrature and exact
# residue cost the most.
RESIDUE_MODELS = {
    "order1-background": {
        "E_R": 2.0, "Gamma": 1.5, "r": 1, "laurent": [[0.5, -1.0]],
        "background": {"num": [[0.75, -1.75]], "den": [[1.0, -0.75], [1.0, 0.0]]},
        "test_functions": [
            {"role": "ket", "num": [[1.0, -1.75]],
             "den": [[-4.125, 1.875], [-0.5, -2.25], [1.0, 0.0]]},
            {"role": "bra", "num": [[-1.5, -1.25]], "den": [[2.0, -0.5], [1.0, 0.0]]},
        ],
    },
    "order4": {
        "E_R": 1.5, "Gamma": 1.25, "r": 4,
        "laurent": [[0.5, -1.0], [1.0, -1.75], [-1.5, -1.25], [0.75, -1.75]],
        "test_functions": [
            {"role": "ket", "num": [[2.0, -0.5]], "den": [[-0.75, 1.0], [-2.0, -2.0], [1.0, 0.0]]},
            {"role": "bra", "num": [[-1.75, -1.5]], "den": [[1.0, -0.5], [1.0, 0.0]]},
        ],
    },
    "order6": {
        "E_R": 0.75, "Gamma": 0.5, "r": 6,
        "laurent": [[0.5, -1.0], [1.0, -1.75], [-1.5, -1.25], [0.75, -1.75], [2.0, -0.5],
                    [-1.75, -1.5]],
        "test_functions": [
            {"role": "ket", "num": [[1.25, 1.25]], "den": [[-0.75, 1.5], [-2.0, -1.75], [1.0, 0.0]]},
            {"role": "bra", "num": [[-1.5, -0.25]], "den": [[2.5, -2.0], [1.0, 0.0]]},
        ],
    },
}

RESIDUE_GOLDEN = [
    ("bundled-example", "7259dc172b4b0b191564c7ec68e89896342a42bbeedb71fb75b268eaec414ff8"),
    ("order1-background", "6920c529edef894aa2bd925acb586009f8e6e150b9404482d9ce10476be0fa90"),
    ("order4", "3e0f2c418254ae76035516251ca35bf3f7147b027f19bdf138b06a1e2f21a015"),
    ("order6", "ea1c3d32b4320e0189cc3ed9ef891a3d10c60802b1406363d763d588c19cd7ae"),
]

# The exact residue of each model, as the report writes it; it does not
# depend on the quadrature.
RESIDUE_VALUES = {
    "bundled-example": [0.17178108047330082, 0.06600191646006057],
    "order1-background": [-0.8783936703319226, 0.5879277591285805],
    "order4": [-6.484150503124499, 0.30833368357369345],
    "order6": [2.323314740462119, -6.517986104079506],
}


@pytest.mark.parametrize("name, digest", RESIDUE_GOLDEN, ids=[name for name, _ in RESIDUE_GOLDEN])
def test_residue_report_bytes_are_pinned(name, digest, tmp_path, capsys):
    if name in RESIDUE_MODELS:
        config = tmp_path / "model.json"
        config.write_text(json.dumps(RESIDUE_MODELS[name]))
    else:
        config = files("gamow") / "data" / "residue_example.json"
    argv = ["residue", "--config", str(config)]
    assert main(argv) == EXIT_OK
    report = capsys.readouterr().out
    assert json.loads(report)["residue"] == RESIDUE_VALUES[name]
    assert json.loads(report)["passed"] is True
    assert hashlib.sha256(report.encode()).hexdigest() == digest
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
