import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zonotiling.cli import main


def run(args):
    return main(args)


def test_enumerate_counts(capsys):
    assert run(["enumerate", "--n", "4"]) == 0
    assert "8 tilings" in capsys.readouterr().out


def test_enumerate_writes_graph_json(tmp_path, capsys):
    assert run(["enumerate", "--n", "4", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "graph_n4.json").read_text())
    assert len(data["nodes"]) == 8


def test_enumerate_dot(tmp_path):
    assert run(["enumerate", "--n", "3", "--out", str(tmp_path), "--format", "dot"]) == 0
    assert "level=1" in (tmp_path / "graph_n3.dot").read_text()


def test_classify_summary(tmp_path, capsys):
    assert run(["classify", "--n", "4", "--out", str(tmp_path)]) == 0
    assert "8 tilings: 8 regular, 0 irregular" in capsys.readouterr().out
    data = json.loads((tmp_path / "classify_n4.json").read_text())
    assert data["points"] == ["1", "2", "3", "4"]
    assert len(data["certificates"]) == 8


def test_diameters_table_strict(capsys):
    assert run(["diameters", "--n", "5", "--all", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "True" in out and "FINDING" not in out


def test_diameters_reports_verdict_routes(capsys):
    assert run(["diameters", "--n", "6", "--k", "2", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "888 of 908 tilings regular; verdicts: 99 by LP, 355 by probe, 454 by half-turn" in out


def test_diameters_requires_k_or_all(capsys):
    assert run(["diameters", "--n", "4"]) == 2


def test_diameters_deterministic_across_threads(tmp_path):
    for threads, sub in (("1", "a"), ("2", "b")):
        out = tmp_path / sub
        assert (
            run(
                [
                    "diameters",
                    "--n",
                    "4",
                    "--all",
                    "--threads",
                    threads,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    a = (tmp_path / "a" / "diameters_n4.json").read_bytes()
    b = (tmp_path / "b" / "diameters_n4.json").read_bytes()
    assert a == b


def test_hypertri_fixtures(tmp_path):
    assert run(["hypertri", "--n", "4", "--k", "1", "--out", str(tmp_path), "--strict"]) == 0
    data = json.loads((tmp_path / "hypertri_n4_k1.json").read_text())
    assert data["fixtures"]["nonlifting_path_absent"] is True
    assert data["fixtures"]["lifting_path_present"] is True


def test_potential_audit(tmp_path, capsys):
    assert run(
        ["potential", "--n", "4", "--ref", "0", "--all", "--out", str(tmp_path), "--strict"]
    ) == 0
    data = json.loads((tmp_path / "potential_n4_ref0.json").read_text())
    assert {rep["kind"] for rep in data["reports"]} == {"full", "modified"}


def test_chains_censuses(tmp_path, capsys):
    assert run(
        ["chains", "--n", "5", "--samples", "25", "--seed", "3", "--out", str(tmp_path), "--strict"]
    ) == 0
    data = json.loads((tmp_path / "chains_n5.json").read_text())
    assert data["expected_census"] == [3, 4, 3]
    assert data["censuses"] == [{"census": [3, 4, 3], "chains": 25}]


def test_chains_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert run(
            ["chains", "--n", "4", "--samples", "10", "--seed", "9", "--out", str(tmp_path / sub)]
        ) == 0
    assert (tmp_path / "a" / "chains_n4.json").read_bytes() == (
        tmp_path / "b" / "chains_n4.json"
    ).read_bytes()


def test_render_min_single_tile(capsys):
    assert run(["render", "--n", "2", "--tiling", "min"]) == 0
    out = capsys.readouterr().out
    assert out.count("<polygon") == 1


def test_render_by_node_id(tmp_path):
    assert run(["render", "--n", "4", "--tiling", "5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "tiling_n4_5.svg").read_text().count("<polygon") == 6


def test_oracle_count(capsys):
    assert run(["oracle-count", "--n", "4"]) == 0
    assert "8 commutation classes" in capsys.readouterr().out


@pytest.mark.parametrize("broken", ["formula", "classes"])
def test_oracle_count_mismatch_is_a_finding(monkeypatch, capsys, broken):
    from zonotiling import cli
    from zonotiling.oracle import OracleCount, reduced_word_count_formula

    if broken == "formula":
        monkeypatch.setattr(cli, "reduced_word_count_formula", lambda n: 1 + reduced_word_count_formula(n))
        message = "768 reduced words, but the hook formula gives 769"
    else:
        monkeypatch.setattr(cli, "commutation_census", lambda n: OracleCount(n, 768, 63))
        message = "63 commutation classes, but 62 tilings enumerated"
    assert run(["oracle-count", "--n", "5"]) == 0
    assert run(["oracle-count", "--n", "5", "--strict"]) == 1
    assert f"FINDING: {message}" in capsys.readouterr().out


def test_oracle_count_above_the_limit_is_an_input_error(capsys):
    assert run(["oracle-count", "--n", "9"]) == 2
    assert "error: n=9 exceeds the oracle limit 8" in capsys.readouterr().err


def test_format_svg_not_offered(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "--n", "3", "--format", "svg"])
    assert exc.value.code == 2


def test_points_flag_with_fractions(capsys):
    assert run(["enumerate", "--points=-1,0,1/2,2"]) == 0
    assert "8 tilings" in capsys.readouterr().out


def test_invalid_points_exit_code(capsys):
    assert run(["enumerate", "--points=0,0,1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cap_exceeded_is_an_input_error(capsys):
    assert run(["enumerate", "--n", "9"]) == 2


def test_zero_denominator_is_an_input_error(capsys):
    assert run(["enumerate", "--points=1,2,1/0"]) == 2
    assert "error: coordinate '1/0' has a zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,code",
    [
        ("render --n 4 --tiling -1", 2),
        ("render --n 4 --tiling 8", 2),
        ("potential --n 4 --ref -1 --k 1", 2),
        ("potential --n 4 --ref 8 --k 1", 2),
        ("potential --n 4 --ref 0 --k 3", 2),
        ("diameters --n 5 --k 0", 2),
        ("diameters --n 5 --k 7", 2),
        ("hypertri --n 5 --k 0", 2),
        ("hypertri --n 5 --k 4", 2),
        ("chains --n 4 --samples -3", 2),
        ("diameters --n 5 --k 1", 0),
        ("diameters --n 5 --k 3", 0),
        ("hypertri --n 5 --k 1", 0),
        ("hypertri --n 5 --k 3", 0),
        ("potential --n 4 --ref 7 --k 2", 0),
        ("render --n 4 --tiling 7", 0),
    ],
)
def test_out_of_range_inputs_are_usage_errors(capsys, args, code):
    assert run(args.split() + ["--strict"]) == code
    captured = capsys.readouterr()
    assert ("error:" in captured.err) == (code == 2)
    assert "FINDING" not in captured.out


def test_reproduce_theorems_end_to_end(tmp_path):
    # the scripted pipeline for n = 3..5: every stage runs --strict
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_theorems.py"),
         "--max-n", "5", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    names = [
        "graph_n5.json", "classify_n5.json", "diameters_n5.json",
        "hypertri_n5_k1.json", "hypertri_n5_k2.json", "hypertri_n5_k3.json",
        "chains_n5.json", "potential_n5_ref0.json", "oracle_n5.json",
    ]
    assert all((tmp_path / "n5" / name).is_file() for name in names)


def _digests_match_reference(out: Path, n: int, stages: list[list[str]]) -> None:
    """Run the stages on a_i = i into out; compare with perfbench/reference.json."""
    root = Path(__file__).resolve().parents[1]
    recorded = json.loads((root / "perfbench" / "reference.json").read_text())[str(n)]
    base = [f"--points={','.join(map(str, range(1, n + 1)))}", "--out", str(out), "--strict"]
    for stage in stages:
        assert run(stage + base) == 0, stage
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    assert digests == {name: d["sha256"] for name, d in recorded["artifacts"].items()}


# n = 6 is the first size with irregular tilings (20 of 908), where the
# diameters artifact's restriction agreement compares two different labellings
@pytest.mark.parametrize("n", [4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_artifacts_match_recorded_digests(tmp_path, n):
    # the scripts/reproduce_theorems.py stages, byte for byte (oracle-count
    # has no recorded digest)
    stages = [["enumerate"], ["classify"], ["diameters", "--all"]]
    stages += [["hypertri", "--k", str(k)] for k in range(1, n - 1)]
    stages += [["chains", "--samples", "200", "--seed", "0"], ["potential", "--ref", "0", "--all"]]
    _digests_match_reference(tmp_path, n, stages)


@pytest.mark.slow
def test_hypertri_n7_matches_recorded_digest(tmp_path):
    # the benchmark's hypertri-n7 stage on a_i = i: 24,698 tilings, 384 k-classes
    _digests_match_reference(tmp_path, 7, [["hypertri", "--k", "3"]])
