"""The command line interface, driven through main()."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxtwist
from coxtwist.cli import main

F4_DOC = {"name": "F4 swap", "type": "F4", "theta": [[1, 4], [2, 3]], "cap": 2000}


@pytest.fixture()
def f4_json(tmp_path):
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(F4_DOC))
    return str(path)


@pytest.fixture()
def a2_json(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"type": "A2", "theta": [[1, 2]]}))
    return str(path)


def test_cosets_table(f4_json, capsys):
    assert main(["cosets", f4_json]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "group order: 1152  subgroup order: 16  cosets: 72"
    assert lines[1].split() == ["rep", "size", "min", "min_length"]
    assert len(lines) == 1 + 1 + 72 + 1  # header, columns, rows, distribution
    assert lines[2].startswith("e")
    assert lines[-1] == (
        "min-size distribution: 1:5  2:25  3:18  4:9  5:6  6:4  8:4  16:1"
    )


def test_min_graph_stdout(f4_json, capsys):
    assert main(["min-graph", f4_json, "4 2 3 1 2 3 4 2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph min_graph {\n")
    assert '"12143213" -- "12143234" [label="x"];' in out
    assert '"12143213" -- "12432132" [label="y"];' in out
    assert out.endswith("}\n")


def test_min_graph_output_file(f4_json, tmp_path, capsys):
    target = tmp_path / "graph.dot"
    assert main(["min-graph", f4_json, "4 2 3 1 2 3 4 2", "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["min-graph", f4_json, "4 2 3 1 2 3 4 2"]) == 0
    assert target.read_text() == capsys.readouterr().out


def test_min_graph_identity_element(f4_json, capsys):
    assert main(["min-graph", f4_json, "e"]) == 0
    assert capsys.readouterr().out == 'graph min_graph {\n  "e";\n}\n'
    assert main(["min-graph", f4_json, "  "]) == 0
    assert capsys.readouterr().out == 'graph min_graph {\n  "e";\n}\n'


def test_dominate_already_minimal(f4_json, capsys):
    assert main(["dominate", f4_json, "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "element: 1  length: 1",
        "already minimal",
        "dominated minimal: 1",
    ]


def test_dominate_walks_to_a_witness(f4_json, capsys):
    word = "3 2 1 3 2 3 4 3 2 1 3 2 4 3 2 1"  # a top-length coset member
    assert main(["dominate", f4_json, word]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"element: {word}  length: 16"
    assert out[1] == "base minimal element: 1 2 1 4 3 2 1 3"
    assert out[2] == "step 1: y (equal)  prefix 1 2 4 3 2 1 3 2  witness -> witness * generator"
    assert out[4] == "step 3: y (bruhat-up)  prefix 1 3 4 3 2 1 3 2 4 3  witness kept"
    assert all(line.startswith("step ") for line in out[2:-1])
    assert len(out) == 10
    assert out[-1] == "dominated minimal: 1 2 4 3 2 1 3 2  length: 8"


# sha256 of stdout, taken while bruhat_leq still lifted through left
# descents and inverses came from a table: stdout must not depend on how
# the answers are computed.
PINNED_ELEMENTS = [
    "3 2 1 3 2 4 3 2 1 3 2 3 4 3 2 1 3 2 3 4",
    "1 3 2 4 3 2 1 3 2 3 4 3 2 1 3 2 3 4",
    "2 3 4 3 2 1 3 2 3 4 3 2 1 3 2",
    "2 3 2 3 4 3 2 1 3 2 4 3 2 1",
    "3 2 4 3 2 1 3 2 4 3 2 1",
    "3 2 1 3 2 3 4 3 2 1 3 2 4 3 2 1",
]
STDOUT_DIGESTS = {
    'cosets': '1896195496c22873681129275044c2b63310e0579f733dbf6dbefa80a38436f8',
    'min-graph 3 2 1 3 2 4 3 2 1 3 2 3 4 3 2 1 3 2 3 4': 'a0a879c59f41076f5641d1c3f2e40dd7ef17747d0150eb49a0c1fe1205c0ee94',
    'min-graph 1 3 2 4 3 2 1 3 2 3 4 3 2 1 3 2 3 4': '4d80d9b03213e1fa8ff17e5d336d7c150756aac51c27e5c29b225e93a94d2662',
    'min-graph 2 3 4 3 2 1 3 2 3 4 3 2 1 3 2': '070c25a992412da9313564053989cba875306c7d7cf9c72e00e2f3a37128379f',
    'min-graph 2 3 2 3 4 3 2 1 3 2 4 3 2 1': '42c823d2517c0d99cc738a288b83b59d3977fa9554f5db29fd4051baf5313326',
    'min-graph 3 2 4 3 2 1 3 2 4 3 2 1': '9cd9697ff0ffcb0fb46008bfacab2b9462d392043c89a9125561ccda1cde3282',
    'min-graph 3 2 1 3 2 3 4 3 2 1 3 2 4 3 2 1': '9a3db120ccce7d5241a84a2bb4d8fcd5290a94b886a721f0d9164b99d6ea428f',
    'dominate 3 2 1 3 2 4 3 2 1 3 2 3 4 3 2 1 3 2 3 4': 'ece79479bb99cfa5ea9e386d671c4a083522f3304047b29762facfce2c74d692',
    'dominate 1 3 2 4 3 2 1 3 2 3 4 3 2 1 3 2 3 4': 'c1a3642342af2687efdfda93822c843cfd84dbd0d181e4e90a9d984127cabab2',
    'dominate 2 3 4 3 2 1 3 2 3 4 3 2 1 3 2': 'd2c1188367272a071992a6b09fa539f5e8b60b3ec2443361e7c7c5850d5616a5',
    'dominate 2 3 2 3 4 3 2 1 3 2 4 3 2 1': '07212b1ff66e4da848b4876a11fd340927c66f446da926581f14c6260e29aa83',
    'dominate 3 2 4 3 2 1 3 2 4 3 2 1': 'ca5537b4a191cd9668df92bb292848bacf0a3f1571f1ae36c13920921d9500e9',
    'dominate 3 2 1 3 2 3 4 3 2 1 3 2 4 3 2 1': '369589a30e3a4ddee027f0730e8f261f6474ea719c57a1bc340e79612d6d0b97',
    'verify --json': '9d6334d770265518abb7a704d6cab75633c31d75216da44e648fc6a4ad0d5c69',
}


def test_stdout_is_pinned(f4_json, capsys):
    runs = [("cosets",)] + [
        (command, word) for command in ("min-graph", "dominate") for word in PINNED_ELEMENTS
    ]
    found = {}
    for command, *rest in runs:
        assert main([command, f4_json, *rest]) == 0
        found[" ".join((command, *rest))] = hashlib.sha256(
            capsys.readouterr().out.encode()
        ).hexdigest()
    assert main(["verify", "--json"]) == 0
    found["verify --json"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert found == STDOUT_DIGESTS


def test_verify_default_bundle_json(capsys):
    assert main(["verify", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records["seed"] == 271828
    assert all(not r["failures"] for r in records["suites"])


def test_verify_single_case_file(a2_json, capsys):
    assert main(["verify", a2_json]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "seed: 271828"
    assert "total:" in out


def test_verify_seed_override(a2_json, capsys):
    assert main(["verify", a2_json, "--seed", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_verify_corrupt_config_exits_one(tmp_path, capsys):
    config = {
        "corrupt": "bruhat-oracle",
        "cases": [{"name": "A2 swap", "type": "A2", "theta": [[1, 2]]}],
    }
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(config))
    assert main(["verify", str(path)]) == 1
    assert "counterexamples" in capsys.readouterr().out


def test_description_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["cosets", missing]) == 2
    assert "cannot read" in capsys.readouterr().err

    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    assert main(["cosets", str(invalid)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"type": "A2", "spin": 7}))
    assert main(["cosets", str(unknown)]) == 2
    assert "unknown keys" in capsys.readouterr().err

    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(json.dumps({"type": "B3", "theta": [[1, 3]]}))
    assert main(["cosets", str(mismatch)]) == 2
    assert "m(" in capsys.readouterr().err


def test_verify_config_errors_exit_two(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err

    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    assert main(["verify", str(invalid)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    malformed = [
        [1, 2],
        42,
        {"cases": "x"},
        {"cases": [1]},
        {"type": "A2", "suites": ["nope"]},
        {"cases": [{"type": "A2", "suites": "step-dichotomy"}]},
    ]
    for doc in malformed:
        invalid.write_text(json.dumps(doc))
        assert main(["verify", str(invalid)]) == 2, doc
        assert capsys.readouterr().err.startswith("error: "), doc


def test_truncation_exits_three(tmp_path, capsys):
    swapped = tmp_path / "infinite-swap.json"
    swapped.write_text(json.dumps({"type": "I2(inf)", "cap": 60, "theta": [[1, 2]]}))
    assert main(["cosets", str(swapped)]) == 3
    assert "error:" in capsys.readouterr().err

    fixed = tmp_path / "infinite-identity.json"
    fixed.write_text(json.dumps({"type": "I2(inf)", "cap": 60}))
    assert main(["dominate", str(fixed), "1"]) == 3
    assert "did not close" in capsys.readouterr().err


def test_bad_element_words_exit_four(f4_json, capsys):
    assert main(["min-graph", f4_json, "9 9"]) == 4
    assert "outside 1..4" in capsys.readouterr().err
    assert main(["dominate", f4_json, "one two"]) == 4
    assert "not an integer" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()


def test_module_entry_point(a2_json):
    # the child imports the same package as this process, installed or not
    src = str(Path(coxtwist.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "coxtwist", "verify", a2_json],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "seed: 271828"
