"""Workload definitions: seeded inputs, the timed flow, and its correctness checks.

A workload name is ``<family>-n<N>``.  The benchmark lists three of them
(``pipeline-n6``, ``skeletons-n7``, ``hypertri-n7``); the same families at
n = 4 or 5 run in seconds and serve the smoke test.

Each family splits into three pure steps so the worker can time only the
middle one:

* ``make_inputs(spec, seed)``: point configurations as exact-rational strings,
  derived from the seed alone.  The program never sees the seed.
* ``run_flow(spec, configs, out_dir)``: the timed work, driven through the
  public API (``zonotiling.cli.main`` or package-level functions), always
  looked up at call time so the tracer's wrappers see every call.
* ``check(spec, configs, outcome, out_dir, reference)``: the set of check
  names that failed.  ``plan(spec)`` lists every check name in advance, so a
  crashed worker can be charged with all of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FAMILIES = ("pipeline", "skeletons", "hypertri")
SIZES = (4, 5, 6, 7)


@dataclass(frozen=True)
class Spec:
    family: str
    n: int

    @property
    def name(self) -> str:
        return f"{self.family}-n{self.n}"

    @property
    def hypertri_k(self) -> int:
        """The middle level: k = 3 at n = 7."""
        return (self.n - 1) // 2


def parse_workload(name: str) -> Spec:
    family, _, size = name.rpartition("-n")
    if family not in FAMILIES or not size.isdigit() or int(size) not in SIZES:
        raise ValueError(
            f"unknown workload {name!r}: expected <family>-n<N> with family in "
            f"{FAMILIES} and N in {SIZES}"
        )
    return Spec(family, int(size))


# ---------------------------------------------------------------------------
# inputs

def standard_points(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def seeded_points(n: int, seed: int) -> list[str]:
    """n increasing rationals with small random gaps.

    Small numerators and denominators keep the exact LP's integers in the
    same size class as a_i = i, so the seed moves the regular set without
    moving the arithmetic cost much.
    """
    rng = random.Random(seed)
    x = Fraction(rng.randint(-3, 3))
    points = [x]
    for _ in range(n - 1):
        x += Fraction(rng.randint(1, 6), rng.randint(1, 3))
        points.append(x)
    return [str(p) for p in points]


def make_inputs(spec: Spec, seed: int) -> dict[str, list[str]]:
    """Configurations by label; the pipeline also runs the standard a_i = i."""
    configs = {"seeded": seeded_points(spec.n, seed)}
    if spec.family == "pipeline":
        configs = {"std": standard_points(spec.n)} | configs
    return configs


# ---------------------------------------------------------------------------
# the timed flows

def pipeline_stages(n: int) -> list[tuple[str, list[str], str]]:
    """(stage, CLI arguments, artifact file) as in scripts/reproduce_theorems.py."""
    stages = [
        ("enumerate", ["enumerate"], f"graph_n{n}.json"),
        ("classify", ["classify"], f"classify_n{n}.json"),
        ("diameters", ["diameters", "--all"], f"diameters_n{n}.json"),
    ]
    stages += [
        (f"hypertri-k{k}", ["hypertri", "--k", str(k)], f"hypertri_n{n}_k{k}.json")
        for k in range(1, n - 1)
    ]
    stages += [
        ("chains", ["chains", "--samples", "200", "--seed", "0"], f"chains_n{n}.json"),
        ("potential", ["potential", "--ref", "0", "--all"], f"potential_n{n}_ref0.json"),
    ]
    return stages


def _cli(argv: list[str]) -> int:
    import zonotiling.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return zonotiling.cli.main(argv)


def _cli_base(points: list[str], out: Path) -> list[str]:
    # "--points=" keeps a negative first coordinate from reading as an option.
    return [f"--points={','.join(points)}", "--out", str(out), "--strict", "--threads", "1"]


def run_flow(spec: Spec, configs: dict[str, list[str]], out_dir: Path) -> dict:
    """The work a run times.  Returns what the checks need beyond the files."""
    if spec.family == "pipeline":
        codes = {}
        for label, points in configs.items():
            base = _cli_base(points, out_dir / label)
            for stage, args, _artifact in pipeline_stages(spec.n):
                codes[f"{label}.{stage}"] = _cli(args + base)
        return {"exit": codes}
    [(label, points)] = configs.items()
    if spec.family == "hypertri":
        args = ["hypertri", "--k", str(spec.hypertri_k)]
        return {"exit": {f"{label}.hypertri": _cli(args + _cli_base(points, out_dir / label))}}
    return _skeleton_flow(spec, points)


def _skeleton_flow(spec: Spec, points: list[str]) -> dict:
    import zonotiling as zt

    graph = zt.enumerate_tilings(zt.make_config(points))
    skeletons = []
    for k in range(1, spec.n - 1):
        for mode in ("lifting_all", "reduced_all"):
            sk = zt.skeleton(graph, k, mode)
            diameter, _ = zt.graph_diameter(sk.adj)
            skeletons.append((k, mode, len(sk), diameter))
    return {"graph": graph, "skeletons": skeletons}


# ---------------------------------------------------------------------------
# artifact digests

def strip_points(obj):
    """Drop every "points" key: what remains does not depend on coordinates."""
    if isinstance(obj, dict):
        return {k: strip_points(v) for k, v in obj.items() if k != "points"}
    if isinstance(obj, list):
        return [strip_points(v) for v in obj]
    return obj


def digests(path: Path) -> dict[str, str]:
    """SHA-256 of the file's bytes, and of its canonical JSON without points."""
    raw = path.read_bytes()
    canonical = json.dumps(strip_points(json.loads(raw)), sort_keys=True).encode()
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "stripped": hashlib.sha256(canonical).hexdigest(),
    }


# Artifacts whose content, apart from the coordinates in "points", depends
# only on the flip graph: the same for every configuration of n points.
def _config_free(artifact: str) -> bool:
    return not artifact.startswith(("classify_", "diameters_"))


# ---------------------------------------------------------------------------
# checks

def plan(spec: Spec) -> list[str]:
    """Every check a run of this workload performs, in order."""
    n = spec.n
    if spec.family == "skeletons":
        names = ["seeded.graph.counts"]
        for k in range(1, n - 1):
            for mode in ("lifting_all", "reduced_all"):
                names += [f"seeded.k{k}.{mode}.classes", f"seeded.k{k}.{mode}.diameter"]
        return names
    if spec.family == "hypertri":
        return [
            "seeded.hypertri.exit",
            "seeded.hypertri.flags",
            "seeded.hypertri.classes",
            f"seeded.hypertri_n{n}_k{spec.hypertri_k}.json.digest",
        ]
    names = []
    for label in ("std", "seeded"):
        stages = pipeline_stages(n)
        names += [f"{label}.{stage}.exit" for stage, _a, _f in stages]
        names += [f"{label}.graph.counts", f"{label}.classify.census"]
        names += [f"{label}.diameters.flags"]
        names += [f"{label}.hypertri-k{k}.flags" for k in range(1, n - 1)]
        names += [
            f"{label}.{artifact}.digest"
            for _s, _a, artifact in stages
            if label == "std" or _config_free(artifact)
        ]
    return names


def _hypertri_ok(record: dict) -> bool:
    flags = (
        "path_quotient_equal",
        "reduced_quotient_equal",
        "lifting_single_vertex_ok",
        "reduced_path_changes_ok",
    )
    return (
        record["lifting"]["match"]
        and record["reduced"]["match"]
        and all(record[f] for f in flags)
        and not record["findings"]
    )


def _diameters_ok(record: dict) -> bool:
    return all(
        rep["sigma_k"]["match"]
        and rep["sigma_k_plus_prev"]["match"]
        and rep["duality_ok"]
        and rep["vertk_distinct_ok"]
        for rep in record["reports"]
    )


def _witnesses_ok(points: list[str], graph: dict, classify: dict) -> bool:
    """Every regular witness h reproduces its node's orientation key.

    Uses only core.sigma_h, independent of the LP that produced h.
    """
    from zonotiling.core import make_config, sigma_h

    config = make_config(points)
    certs = classify["certificates"]
    if len(certs) != len(graph["nodes"]) or classify["total"] != len(certs):
        return False
    if classify["regular"] != sum(c["regular"] for c in certs):
        return False
    return all(
        sigma_h(config, cert["h"]).bits == int(key, 16)
        for key, cert in zip(graph["nodes"], certs)
        if cert["regular"]
    )


def check(
    spec: Spec,
    configs: dict[str, list[str]],
    outcome: dict,
    out_dir: Path,
    reference: dict,
) -> set[str]:
    """Names of the planned checks that did not pass."""
    ref = reference[str(spec.n)]
    passed: set[str] = set()

    def record(name: str, ok: bool) -> None:
        if ok:
            passed.add(name)

    def guarded(name: str, test) -> None:
        # A missing or malformed artifact fails its check instead of the run.
        try:
            record(name, bool(test()))
        except (OSError, ValueError, KeyError, TypeError):
            pass

    for name, code in outcome.get("exit", {}).items():
        record(f"{name}.exit", code == 0)

    if spec.family == "skeletons":
        graph = outcome["graph"]
        record("seeded.graph.counts", (len(graph), graph.edge_count()) == (ref["nodes"], ref["edges"]))
        for k, mode, classes, diameter in outcome["skeletons"]:
            lifting, reduced = ref["classes"][str(k)]
            expect = lifting if mode == "lifting_all" else reduced
            record(f"seeded.k{k}.{mode}.classes", classes == expect)
            # The paper's closed forms, restated so a changed library formula still fails.
            formula = 2 * k * (spec.n - k) - spec.n if mode == "lifting_all" else k * (spec.n - k - 1)
            record(f"seeded.k{k}.{mode}.diameter", diameter == formula)
        return set(plan(spec)) - passed

    def load(label: str, artifact: str) -> dict:
        return json.loads((out_dir / label / artifact).read_text())

    def digest_ok(label: str, artifact: str) -> bool:
        kind = "sha256" if label == "std" else "stripped"
        return digests(out_dir / label / artifact)[kind] == ref["artifacts"][artifact][kind]

    if spec.family == "hypertri":
        k = spec.hypertri_k
        artifact = f"hypertri_n{spec.n}_k{k}.json"
        guarded("seeded.hypertri.flags", lambda: _hypertri_ok(load("seeded", artifact)))
        guarded(
            "seeded.hypertri.classes",
            lambda: [load("seeded", artifact)[q]["classes"] for q in ("lifting", "reduced")]
            == ref["classes"][str(k)],
        )
        guarded(f"seeded.{artifact}.digest", lambda: digest_ok("seeded", artifact))
        return set(plan(spec)) - passed

    n = spec.n
    for label, points in configs.items():
        guarded(
            f"{label}.graph.counts",
            lambda: (lambda g: (len(g["nodes"]), len(g["edges"])))(load(label, f"graph_n{n}.json"))
            == (ref["nodes"], ref["edges"]),
        )
        if label == "std":
            guarded(
                "std.classify.census",
                lambda: (lambda c: (c["regular"], c["total"]))(load("std", f"classify_n{n}.json"))
                == (ref["regular_std"], ref["nodes"]),
            )
        else:
            guarded(
                f"{label}.classify.census",
                lambda: _witnesses_ok(
                    points, load(label, f"graph_n{n}.json"), load(label, f"classify_n{n}.json")
                ),
            )
        guarded(f"{label}.diameters.flags", lambda: _diameters_ok(load(label, f"diameters_n{n}.json")))
        for k in range(1, n - 1):
            guarded(
                f"{label}.hypertri-k{k}.flags",
                lambda: _hypertri_ok(load(label, f"hypertri_n{n}_k{k}.json")),
            )
        for _stage, _args, artifact in pipeline_stages(n):
            if label == "std" or _config_free(artifact):
                guarded(f"{label}.{artifact}.digest", lambda: digest_ok(label, artifact))
    return set(plan(spec)) - passed
