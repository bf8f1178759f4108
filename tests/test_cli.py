import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
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


@pytest.mark.parametrize(
    "command",
    [
        "enumerate",
        "enumerate --format dot",
        "classify",
        "diameters --all",
        "diameters --all --format dot",
        "hypertri --k 1",
        "hypertri --k 2",
        "hypertri --k 3",
        "chains --samples 20 --seed 0",
        "potential --ref 0 --all",
        "potential --ref 0 --all --thresholds shifted",  # 4 findings
        "oracle-count",
    ],
)
def test_output_does_not_depend_on_out(tmp_path, capsys, command):
    # a payload generated as it is written runs without --out too: same
    # stdout (findings included), stderr and exit status, less the "wrote" lines
    from zonotiling import cli

    args = command.split() + ["--n", "5", "--strict"]
    code = run(args)
    alone = capsys.readouterr()
    cli._graph.cache_clear()
    assert run(args + ["--out", str(tmp_path)]) == code
    written = capsys.readouterr()
    kept = [line for line in written.out.splitlines() if not line.startswith("wrote ")]
    assert kept == alone.out.splitlines()
    assert written.err == alone.err
    assert len(kept) < len(written.out.splitlines()) == len(kept) + len(list(tmp_path.iterdir()))


@pytest.mark.parametrize(
    "command",
    [
        "enumerate",
        "classify",
        "diameters --all",
        "hypertri --k 2",
        "chains --samples 20 --seed 0",
        "potential --ref 0 --all --thresholds shifted",
    ],
)
def test_no_json_text_without_out(monkeypatch, capsys, command):
    # without --out the payload's iterators are drained and nothing is formatted
    from zonotiling import cli

    def refuse(*args, **kwargs):
        raise AssertionError("json_pieces called without --out")

    monkeypatch.setattr(cli, "json_pieces", refuse)
    code = 1 if "shifted" in command else 0
    assert run(command.split() + ["--n", "5", "--strict"]) == code
    # the reference is refused by the report generator, which drain runs
    assert run(["potential", "--n", "5", "--ref", "62", "--all"]) == 2
    assert "error: node id 62 is outside 0..61" in capsys.readouterr().err


def test_refused_ref_leaves_no_file(tmp_path, capsys):
    # the reference is refused while the artifact is being written: neither
    # the artifact nor its temporary file is left behind
    assert run(["potential", "--n", "5", "--ref", "62", "--all", "--out", str(tmp_path)]) == 2
    assert "error: node id 62 is outside 0..61" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_render_min_single_tile(capsys):
    assert run(["render", "--n", "2", "--tiling", "min"]) == 0
    out = capsys.readouterr().out
    assert out.count("<polygon") == 1


def test_render_by_node_id(tmp_path):
    assert run(["render", "--n", "4", "--tiling", "5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "tiling_n4_5.svg").read_text().count("<polygon") == 6


@pytest.mark.parametrize(
    "points",
    [",".join(map(str, range(1, n + 1))) for n in range(2, 7)] + ["-2,1/3,3,13/3,6,17/2"],
)
def test_render_extremes_match_the_height_route(tmp_path, monkeypatch, points):
    # min and max are the keys 0 and 2^C(n,3) - 1: drawn without a graph,
    # they must be the tilings the convex and concave heights project
    from tile_oracle import extremal_tiling
    from zonotiling import cli, make_config, tiling_to_svg

    config = make_config(points.split(","))
    enumerated = []
    monkeypatch.setattr(cli, "enumerate_tilings", lambda cfg: enumerated.append(cfg))
    base = [f"--points={points}", "--out", str(tmp_path)]
    for which in ("min", "max"):
        assert run(["render", "--tiling", which, *base]) == 0
        svg = (tmp_path / f"tiling_n{config.n}_{which}.svg").read_text()
        assert svg == tiling_to_svg(config, extremal_tiling(config, which).offsets) + "\n"
    assert enumerated == []
    monkeypatch.undo()
    last = len(cli._graph(config)) - 1
    assert run(["render", "--tiling", str(last), *base]) == 0
    assert (tmp_path / f"tiling_n{config.n}_{last}.svg").read_text() == svg


@pytest.mark.parametrize("tiling", ["foo", "1.5", "0x7"])
def test_render_refuses_a_non_id_before_enumerating(monkeypatch, capsys, tiling):
    from zonotiling import cli

    enumerated = []
    monkeypatch.setattr(cli, "enumerate_tilings", lambda cfg: enumerated.append(cfg))
    assert run(["render", "--n", "5", "--tiling", tiling]) == 2
    assert f"error: --tiling {tiling!r} is not a node id, 'min' or 'max'" in capsys.readouterr().err
    assert enumerated == []


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


@pytest.mark.parametrize(
    "args", ["classify --n 4 --seed 1", "classify --n 4 --format dot", "enumerate --n 4 --cap 9"]
)
def test_options_a_command_does_not_read_are_refused(capsys, args):
    with pytest.raises(SystemExit) as exc:
        run(args.split())
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # after the first build, any further ArgumentParser would be a rebuild
    from zonotiling import cli

    parser = cli.build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
    assert run(["enumerate", "--n", "4"]) == 0
    assert run(["render", "--n", "3"]) == 0
    assert cli.build_parser() is parser
    # a refused option leaves the shared parser as it was
    with pytest.raises(SystemExit):
        run(["enumerate", "--n", "3", "--format", "svg"])
    assert run(["chains", "--n", "4", "--samples", "2"]) == 0


def test_points_flag_with_fractions(capsys):
    assert run(["enumerate", "--points=-1,0,1/2,2"]) == 0
    assert "8 tilings" in capsys.readouterr().out


def test_invalid_points_exit_code(capsys):
    assert run(["enumerate", "--points=0,0,1"]) == 2
    assert "error" in capsys.readouterr().err


def test_cap_exceeded_is_an_input_error(monkeypatch, capsys):
    # the memory check is the only size guard; fix the memory it reads
    from zonotiling import flipgraph

    monkeypatch.setattr(flipgraph, "_physical_memory", lambda: 7 * 10**9)
    assert run(["enumerate", "--n", "9"]) == 2
    assert "error: n=9 has 112,018,190 tilings" in capsys.readouterr().err


def test_zero_denominator_is_an_input_error(capsys):
    assert run(["enumerate", "--points=1,2,1/0"]) == 2
    assert "error: coordinate '1/0' has a zero denominator" in capsys.readouterr().err


def test_internal_fault_is_not_a_usage_error(monkeypatch):
    # every input check raises ValueError, so a KeyError can only be a bug:
    # it must surface, not print as "error: ..." with exit status 2
    from zonotiling import cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "enumerate_tilings", broken)
    with pytest.raises(KeyError, match="internal"):
        run(["enumerate", "--n", "4"])


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


def _reproduce_theorems(*args: str) -> subprocess.CompletedProcess:
    """Run scripts/reproduce_theorems.py on this checkout's sources."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_theorems.py"), *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def test_reproduce_theorems_end_to_end(tmp_path):
    # the scripted pipeline for n = 3..5: every stage runs --strict
    proc = _reproduce_theorems("--max-n", "5", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    names = [
        "graph_n5.json", "classify_n5.json", "diameters_n5.json",
        "hypertri_n5_k1.json", "hypertri_n5_k2.json", "hypertri_n5_k3.json",
        "chains_n5.json", "potential_n5_ref0.json", "oracle_n5.json",
    ]
    assert all((tmp_path / "n5" / name).is_file() for name in names)
    # every stage's wall time goes to stderr, and only there
    timed = [line for line in proc.stderr.splitlines() if line.endswith(" s")]
    assert len(timed) == 7 + 8 + 9 == len(proc.stderr.splitlines())
    assert timed[0].startswith("n=3 enumerate: ") and timed[-1].startswith("n=5 oracle-count: ")
    assert not any(line.endswith(" s") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("max_n", ["2", "0", "-1"])
def test_reproduce_theorems_refuses_a_max_n_with_no_stage(tmp_path, max_n):
    # below n = 3 no stage would run, yet the script would report success
    proc = _reproduce_theorems(f"--max-n={max_n}", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "--max-n must be at least 3" in proc.stderr
    assert "all checks passed" not in proc.stdout
    assert not (tmp_path / "out").exists()


def _recorded_digests(n: int) -> dict[str, str]:
    """The sha256 of every artifact perfbench/reference.json records at n on a_i = i."""
    root = Path(__file__).resolve().parents[1]
    recorded = json.loads((root / "perfbench" / "reference.json").read_text())[str(n)]
    return {name: d["sha256"] for name, d in recorded["artifacts"].items()}


def _digests_match_reference(out: Path, n: int, stages: list[list[str]]) -> None:
    """Run the stages on a_i = i into out; compare with perfbench/reference.json."""
    base = [f"--points={','.join(map(str, range(1, n + 1)))}", "--out", str(out), "--strict"]
    for stage in stages:
        assert run(stage + base) == 0, stage
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
    }
    assert digests == _recorded_digests(n)


def test_classify_n6_matches_recorded_digest(tmp_path):
    # the only tier-1 guard on irregular certificates: 20 of the 908 tilings
    assert run(["classify", "--n", "6", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "classify_n6.json").read_bytes()).hexdigest()
    assert digest == _recorded_digests(6)["classify_n6.json"]


@pytest.mark.slow
def test_graph_n7_matches_pinned_digest(tmp_path):
    # perfbench/reference.json records no n = 7 graph digest, so the bytes
    # of the graph artifact are pinned here (and in CI)
    assert run(["enumerate", "--n", "7", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "graph_n7.json").read_bytes()).hexdigest()
    assert digest == "e0cdd4d857c6c457384b2120ffbf9c72078d8dbb8f58a6fda4fa49e7f8805e8a"


def test_classify_builds_no_tiling(decoded_keys, capsys):
    # every verdict is decided and checked on the orientation key alone
    assert run(["classify", "--n", "6"]) == 0
    assert "908 tilings: 888 regular, 20 irregular" in capsys.readouterr().out
    assert decoded_keys == []


def test_potential_builds_no_tiling(tmp_path, decoded_keys):
    # the offset-size census decodes each key once per graph, in node order
    from zonotiling import cli
    from zonotiling.core import standard_config

    assert run(["potential", "--n", "6", "--ref", "0", "--all", "--out", str(tmp_path)]) == 0
    assert decoded_keys == cli._graph(standard_config(6)).keys
    digest = hashlib.sha256((tmp_path / "potential_n6_ref0.json").read_bytes()).hexdigest()
    assert digest == _recorded_digests(6)["potential_n6_ref0.json"]


def test_diameters_reads_each_regular_tiling_once(tmp_path, decoded_keys, capsys, regulars):
    # vert_k of every level comes from one decoding of a regular node's key,
    # and the census of the potential checks decodes every key once more
    from zonotiling import cli
    from zonotiling.core import standard_config

    assert run(["diameters", "--n", "6", "--all", "--strict", "--out", str(tmp_path)]) == 0
    assert "888 of 908 tilings regular" in capsys.readouterr().out
    keys = cli._graph(standard_config(6)).keys
    expected = Counter(keys) + Counter(keys[v] for v in regulars(6))
    assert len(decoded_keys) == 908 + 888
    assert Counter(decoded_keys) == expected
    digest = hashlib.sha256((tmp_path / "diameters_n6.json").read_bytes()).hexdigest()
    assert digest == _recorded_digests(6)["diameters_n6.json"]


def test_hypertri_fixtures_build_no_tiling(tmp_path, decoded_keys):
    # the n = 4 and n = 5 fixture paths are read off the orientation keys
    for n, k in ((4, 2), (5, 1)):
        assert run(["hypertri", "--n", str(n), "--k", str(k), "--out", str(tmp_path)]) == 0
        name = f"hypertri_n{n}_k{k}.json"
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == _recorded_digests(n)[name]
    assert decoded_keys == []


def _pipeline_stages(n: int) -> list[list[str]]:
    """The scripts/reproduce_theorems.py stages but oracle-count, which has no recorded digest."""
    stages = [["enumerate"], ["classify"], ["diameters", "--all"]]
    stages += [["hypertri", "--k", str(k)] for k in range(1, n - 1)]
    stages += [["chains", "--samples", "200", "--seed", "0"], ["potential", "--ref", "0", "--all"]]
    return stages


# n = 6 is the first size with irregular tilings (20 of 908), where the
# diameters artifact's restriction agreement compares two different labellings
@pytest.mark.parametrize("n", [4, 5, 6])
def test_artifacts_match_recorded_digests(tmp_path, n):
    # the scripts/reproduce_theorems.py stages, byte for byte
    _digests_match_reference(tmp_path, n, _pipeline_stages(n))


def test_one_process_enumerates_once_and_solves_each_lp_once(monkeypatch, capsys):
    # diameters reads classify's graph and certificates from the one-graph slot
    from zonotiling import cli, regularity

    enumerated = []
    real_enumerate = cli.enumerate_tilings

    def counted_enumerate(config):
        enumerated.append(config)
        return real_enumerate(config)

    pivots = []
    real_maximize = regularity._maximize

    def counted_maximize(obj, cols, m, width):
        solved = real_maximize(obj, cols, m, width)
        pivots.append(solved[3])
        return solved

    monkeypatch.setattr(cli, "enumerate_tilings", counted_enumerate)
    monkeypatch.setattr(regularity, "_maximize", counted_maximize)
    assert run(["classify", "--n", "6"]) == 0
    assert run(["diameters", "--n", "6", "--all", "--strict"]) == 0
    out = capsys.readouterr().out
    assert len(enumerated) == 1
    assert len(pivots) == 454
    assert f"LPs: 454 solved, 0 reused from the graph; {sum(pivots)} simplex pivots" in out
    # diameters reads each of classify's certificates back instead of probing
    assert "888 of 908 tilings regular; verdicts: 454 by LP, 0 by probe, 454 by half-turn" in out
    assert "LPs: 0 solved, 454 reused from the graph; 0 simplex pivots" in out


def test_each_witness_is_checked_once_per_process(monkeypatch, capsys):
    # classify checks each regular pair's mirror witness when it solves the
    # pair's LP; diameters then reads the stored verdicts and checks nothing
    from zonotiling import regularity

    calls = {"_mirror": 0, "_maximize": 0, "_probe": 0}
    for name in calls:
        real = getattr(regularity, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(regularity, name, counted)
    assert run(["classify", "--n", "6"]) == 0
    assert calls == {"_mirror": 444, "_maximize": 454, "_probe": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert run(["diameters", "--n", "6", "--all", "--strict"]) == 0
    assert calls == {"_mirror": 0, "_maximize": 0, "_probe": 0}
    assert "888 of 908 tilings regular" in capsys.readouterr().out


@pytest.mark.parametrize("points", ["1,2,3,4,5,6", "-2,1/3,3,13/3,6,17/2"])
def test_diameters_then_classify_matches_fresh_runs(tmp_path, capsys, points):
    # the probing walk stores only the verdicts of the LPs it solved, so the
    # classify that follows it writes what a fresh classify writes
    from zonotiling import cli, make_config, regularity

    base = [f"--points={points}", "--strict"]
    for stage in (["diameters", "--all"], ["classify"]):
        cli._graph.cache_clear()
        assert run(stage + base + ["--out", str(tmp_path / "fresh")]) == 0
    cli._graph.cache_clear()
    capsys.readouterr()
    assert run(["diameters", "--all", *base, "--out", str(tmp_path / "one")]) == 0
    graph = cli._graph(make_config(points.split(",")))
    stored = graph.derived["slack_lp"]
    # no probe witness entered the store: each entry is its node's own LP optimum
    assert all(stored[v] == regularity._certify(graph.config, graph.keys[v])[:3] for v in stored)
    assert run(["classify", *base, "--out", str(tmp_path / "one")]) == 0
    if points == "1,2,3,4,5,6":
        assert len(stored) == 454
        assert "LPs: 355 solved, 99 reused from the graph" in capsys.readouterr().out
    for name in ("diameters_n6.json", "classify_n6.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


@pytest.mark.parametrize(
    "points", ["1,2,3,4,5", "1,2,3,4,5,6", "0,1/2,2,7/3,5", "0,1/2,2,7/3,5,11/2"]
)
def test_each_stored_labelling_holds_one_per_node_sequence(capsys, points):
    # diameters, then hypertri at every k, through one graph slot: labellings
    # made by BFS, by merge and by mirror each keep one sequence of a length
    # per node, the members of their partition, and no label array
    from zonotiling import cli, make_config

    base = [f"--points={points}"]
    n = len(points.split(","))
    assert run(["diameters", "--all", *base]) == 0
    for k in range(1, n - 1):
        assert run(["hypertri", "--k", str(k), *base]) == 0
    graph = cli._graph(make_config(points.split(",")))
    assert set(graph.labelling_work) == {"BFS", "merged", "mirrored"}
    assert len(graph.labellings) == 2 * n - 5
    for stored in graph.labellings.values():
        per_node = [part for part in stored if len(part) == len(graph)]
        assert len(per_node) == 1
        assert per_node[0] is stored[1]  # the members, in (pairs, members, starts)


def test_slot_lets_the_last_graph_go_before_enumerating(monkeypatch, capsys):
    # a new configuration never holds two graphs, and their stored work, at once
    import weakref

    from zonotiling import cli

    built = []
    alive = []
    real_enumerate = cli.enumerate_tilings

    def spied(config):
        alive.append([graph() is not None for graph in built])
        graph = real_enumerate(config)
        built.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(cli, "enumerate_tilings", spied)
    for points in ("--n=5", "--n=5", "--points=0,1/3,2,7/3,5", "--points=0,1/3,2,7/3,5", "--n=5"):
        assert run(["classify", points]) == 0
    assert alive == [[], [False], [False, False]]


def _stripped_sha256(path: Path) -> str:
    """The sha256 of an artifact's canonical JSON without its "points" keys,
    as perfbench/reference.json records it."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "points"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    canonical = json.dumps(strip(json.loads(path.read_bytes())), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_one_process_pipeline_across_configurations(tmp_path):
    # a_i = i, a rational configuration, then a_i = i again, in one process:
    # each configuration's graph replaces the last one in the slot
    from zonotiling import cli
    from zonotiling.core import make_config

    n = 6
    standard = ",".join(map(str, range(1, n + 1)))
    rational = "-2,1/3,3,13/3,6,17/2"
    for label, points in (("first", standard), ("rational", rational), ("again", standard)):
        base = [f"--points={points}", "--out", str(tmp_path / label), "--strict"]
        for stage in _pipeline_stages(n):
            assert run(stage + base) == 0, (label, stage)
        # every artifact, each diameters report and each hypertri record
        # carries the one header
        header = make_config(points.split(",")).to_json()
        for path in (tmp_path / label).glob("*.json"):
            data = json.loads(path.read_text())
            records = [data] + (data["reports"] if path.name.startswith("diameters_") else [])
            for record in records:
                assert {key: record[key] for key in header} == header, path.name
    for label in ("first", "again"):
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / label).iterdir()
        }
        assert digests == _recorded_digests(n)
    root = Path(__file__).resolve().parents[1]
    recorded = json.loads((root / "perfbench" / "reference.json").read_text())[str(n)]
    # classify and diameters depend on the coordinates, every other artifact
    # only on the flip graph; the former must equal a run on a fresh graph
    cli._graph.cache_clear()
    fresh = tmp_path / "fresh"
    for stage in (["classify"], ["diameters", "--all"]):
        assert run(stage + [f"--points={rational}", "--out", str(fresh), "--strict"]) == 0
    for path in (tmp_path / "rational").iterdir():
        if path.name.startswith(("classify_", "diameters_")):
            assert path.read_bytes() == (fresh / path.name).read_bytes()
        else:
            assert _stripped_sha256(path) == recorded["artifacts"][path.name]["stripped"]


@pytest.mark.slow
def test_hypertri_n7_matches_recorded_digest(tmp_path):
    # the benchmark's hypertri-n7 stage on a_i = i: 24,698 tilings, 384 k-classes
    _digests_match_reference(tmp_path, 7, [["hypertri", "--k", "3"]])
