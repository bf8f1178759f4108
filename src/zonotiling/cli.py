"""Command-line front end for the tiling experiments.

Every subcommand works on one point configuration (from --points or the
default a_i = i via --n), prints a short summary, and can write JSON / DOT /
SVG artifacts into --out.  Outputs carry the configuration's header
(``PointConfig.to_json``) and are byte-stable for fixed inputs and seed.
A JSON artifact's bytes are those of ``json.dumps(payload, indent=2,
sort_keys=True)`` plus a newline, written as a stream by ``_write``: the
flip graph's nodes and edges, ``classify``'s certificates and
``potential``'s reports are generated as they are written, so no artifact
is held whole.  Without --out they are generated too, by ``drain``, but
not formatted, so what a command prints and records never depends on --out.
``main`` resolves the common options into a ``RunConfig``, hands it to the
subcommand, and turns the outcome into the exit status: 2 for an input
error (a ValueError), 1 under --strict when a theorem check failed or a
structural finding was recorded, else 0.  --threads is accepted and ignored.
Each subcommand takes only the options it reads: --format (json or dot) is
offered by enumerate and diameters, --seed by chains.

Commands read the flip graph from a slot that holds the last one enumerated
in this process, keyed by its configuration.  A pipeline that calls ``main``
stage after stage on one configuration (scripts/reproduce_theorems.py does)
enumerates once, and each later stage reuses what earlier ones stored on
the graph: component labellings, offset-size censuses, ``vert_k`` ids and
slack-LP verdicts.  Every artifact is the same as from a fresh process.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .core import Finding, PointConfig, make_config, num_triples, standard_config
from .flipgraph import (
    FlipGraph,
    check_node,
    enumerate_tilings,
    expected_level_census,
    graph_to_dot,
    graph_to_json,
    level_census,
    sample_chain,
)
from .hypertri import (
    _ordered_path,
    hypertri_diameters,
    column_slices,
    reduced_cross_section,
    slice_masks,
)
from .jsonstream import drain, json_pieces
from .oracle import commutation_census, reduced_word_count_formula
from .regularity import LpWork, graph_certificates, regular_set
from .secondary import (
    check_level,
    diameter_report,
    equivalence_classes,
    modified_potential,
    potential,
    skeleton,
)
from .tiling import key_offsets, tiling_to_svg


@dataclass
class RunConfig:
    """Resolved common options shared by all subcommands."""

    config: PointConfig
    out: Path | None
    strict: bool
    findings: list[str] = field(default_factory=list)

    def finding(self, message: str) -> None:
        self.findings.append(message)
        print(f"FINDING: {message}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="use the configuration a_i = i")
    group.add_argument(
        "--points",
        type=str,
        help="comma-separated exact coordinates, e.g. -1,0,1/2,2",
    )
    parser.add_argument("--out", type=str, default=None, help="artifact directory")
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument("--strict", action="store_true")


def _resolve(ns: argparse.Namespace) -> RunConfig:
    if getattr(ns, "points", None):
        config = make_config(ns.points.split(","))
    else:
        if ns.n is None:
            raise ValueError("one of --n or --points is required")
        config = standard_config(ns.n)
    return RunConfig(config=config, out=Path(ns.out) if ns.out else None, strict=ns.strict)


@lru_cache(maxsize=1)
def _graph(config: PointConfig) -> FlipGraph:
    """The configuration's flip graph, kept until a command asks for another one."""
    _graph.cache_clear()  # a miss: let the last graph go before this one is built
    return enumerate_tilings(config)


def _print_lp_work(work: LpWork) -> None:
    print(
        f"LPs: {work.solved} solved, {work.reused} reused from the graph; "
        f"{work.pivots} simplex pivots"
    )


def _print_labelling_work(graph: FlipGraph) -> None:
    work = graph.labelling_work
    print(f"labellings: {work['BFS']} BFS, {work['merged']} merged, {work['mirrored']} mirrored")


def _write(run: RunConfig, name: str, payload) -> None:
    """Write text as it is, or any other payload as JSON, to ``name`` in --out.

    Without --out, a payload's generators are still exhausted, in the order
    writing would read them, but nothing is formatted, so what they print
    and record does not depend on --out.  The file is written under a
    temporary name in the same directory and renamed once complete, so a
    payload that raises leaves no file behind.
    """
    if run.out is None:
        drain(payload)
        return
    if isinstance(payload, str):
        pieces = (payload, "" if payload.endswith("\n") else "\n")
    else:
        pieces = chain(json_pieces(payload), ("\n",))
    run.out.mkdir(parents=True, exist_ok=True)
    path = run.out / name
    partial = path.with_name(f".{name}.{os.getpid()}.tmp")
    try:
        with partial.open("w") as fh:
            fh.writelines(pieces)
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(f"wrote {path}")


def _levels(run: RunConfig, ns: argparse.Namespace) -> list[int]:
    """Every level 1..n-2 under --all, else the --k level, checked to lie there."""
    if getattr(ns, "all", False):
        return list(range(1, run.config.n - 1))
    if ns.k is None:
        raise ValueError("provide --k K or --all")
    check_level(run.config.n, ns.k)
    return [ns.k]


# ---------------------------------------------------------------------------
# subcommands

def cmd_enumerate(run: RunConfig, ns: argparse.Namespace) -> None:
    graph = _graph(run.config)
    print(f"{len(graph)} tilings, {graph.edge_count()} flip edges")
    if ns.fmt == "dot":
        _write(run, f"graph_n{run.config.n}.dot", graph_to_dot(graph))
    else:
        _write(run, f"graph_n{run.config.n}.json", graph_to_json(graph))


def cmd_classify(run: RunConfig, ns: argparse.Namespace) -> None:
    graph = _graph(run.config)
    entries, regular, work = graph_certificates(graph)
    total = len(graph)
    print(
        f"{total} tilings: {regular} regular, {total - regular} irregular; "
        f"verdicts: {work.solved + work.reused} by LP, {total // 2} by half-turn"
    )
    _print_lp_work(work)
    payload = run.config.to_json() | {
        "total": total,
        "regular": regular,
        "irregular": total - regular,
        "certificates": entries,
    }
    _write(run, f"classify_n{run.config.n}.json", payload)


def cmd_diameters(run: RunConfig, ns: argparse.Namespace) -> None:
    ks = _levels(run, ns)
    graph = _graph(run.config)
    verdicts = regular_set(graph)
    regs = verdicts.nodes
    print(
        f"{len(regs)} of {len(graph)} tilings regular; verdicts: {verdicts.by_lp} by LP, "
        f"{verdicts.by_probe} by probe, {verdicts.by_half_turn} by half-turn"
    )
    _print_lp_work(verdicts.lps)
    records = []
    print(" k | sigma_k: cls diam formula ok | sum: cls diam formula ok")
    for k in ks:
        rep = diameter_report(graph, k, regs)
        records.append(rep)
        sk, ss = rep["sigma_k"], rep["sigma_k_plus_prev"]
        print(
            f"{k:2d} | {sk['classes']:5d} {sk['diameter']:4d} {sk['formula']:7d} "
            f"{str(sk['match']):5s} | {ss['classes']:5d} {ss['diameter']:4d} "
            f"{ss['formula']:7d} {ss['match']}"
        )
        for label, ok in (
            ("sigma_k diameter", sk["match"]),
            ("sum diameter", ss["match"]),
            ("duality", rep["duality_ok"]),
            ("vert_k distinctness", rep["vertk_distinct_ok"]),
        ):
            if not ok:
                run.finding(f"k={k}: {label} check failed")
    _print_labelling_work(graph)
    _write(run, f"diameters_n{run.config.n}.json", run.config.to_json() | {"reports": records})
    if ns.fmt == "dot":
        for k in ks:
            sk = skeleton(graph, k, "sigma_k", regs)
            _write(run, f"sigma_{k}_n{run.config.n}.dot", sk.to_dot(f"sigma_{k}"))


def cmd_hypertri(run: RunConfig, ns: argparse.Namespace) -> None:
    _levels(run, ns)
    graph = _graph(run.config)
    record = hypertri_diameters(graph, ns.k)
    _print_labelling_work(graph)
    lift, red = record["lifting"], record["reduced"]
    print(
        f"lifting level {ns.k}: {lift['classes']} classes, diameter "
        f"{lift['diameter']} vs {lift['formula']} ({lift['match']})"
    )
    print(
        f"reduced level {ns.k + 1}: {red['classes']} classes, diameter "
        f"{red['diameter']} vs {red['formula']} ({red['match']})"
    )
    for label in (
        "path_quotient_equal",
        "reduced_quotient_equal",
        "lifting_single_vertex_ok",
        "reduced_path_changes_ok",
    ):
        if not record[label]:
            run.finding(f"hypertri check {label} failed")
    if not (lift["match"] and red["match"]):
        run.finding("hypertri diameter mismatch")

    fixtures = {}
    n = run.config.n
    if n == 4 or (n == 5 and ns.k == 1):
        # each node's level-2 slice, read off its key
        slices = (slice_masks(n, 2, word)[0] for word in column_slices(n, graph.keys, 2))
        paths = [_ordered_path(s, 2, n).vertices for s in slices]
    if n == 4:
        fixtures["nonlifting_path_absent"] = (
            (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)
        ) not in paths
        fixtures["lifting_path_present"] = ((1, 2), (1, 3), (1, 4), (3, 4)) in paths
    if n == 5 and ns.k == 1:
        target = ((1, 2), (1, 3), (3, 4), (3, 5), (4, 5))
        nodes = [v for v, path in enumerate(paths) if path == target]
        if nodes:
            members = next(c for c in equivalence_classes(graph, {1}) if nodes[0] in c)
            reduced_path = reduced_cross_section(graph, members, 1)
            fixtures["figure_path_nodes"] = nodes
            fixtures["figure_reduced_path"] = [list(v) for v in reduced_path.vertices]
    for name, ok in fixtures.items():
        if ok is False:
            run.finding(f"fixture {name} failed")
    record = record | {"fixtures": fixtures}
    _write(run, f"hypertri_n{n}_k{ns.k}.json", record)


def cmd_potential(run: RunConfig, ns: argparse.Namespace) -> None:
    ks = _levels(run, ns)
    graph = _graph(run.config)  # potential() refuses a --ref outside the graph

    def reports() -> Iterator[dict]:
        """Each report as it is written, so one value table is held at a time."""
        for k in ks:
            for maker, bound_levels in ((potential, {k - 1, k}), (modified_potential, {k})):
                rep = maker(graph, ns.ref, k, thresholds=ns.thresholds)
                print(
                    f"{rep.kind} potential k={k} ref={ns.ref}: max per-edge delta "
                    f"{rep.max_edge_delta}, by level {rep.max_edge_delta_by_level}"
                )
                if rep.max_edge_delta > 1:
                    run.finding(f"{rep.kind} potential k={k} moves by more than 1")
                for level, delta in rep.max_edge_delta_by_level:
                    if level not in bound_levels and delta != 0:
                        run.finding(
                            f"{rep.kind} potential k={k} changed across a "
                            f"level-{level} edge"
                        )
                yield rep.to_json()

    _write(
        run,
        f"potential_n{run.config.n}_ref{ns.ref}.json",
        run.config.to_json() | {"reports": reports()},
    )


def cmd_chains(run: RunConfig, ns: argparse.Namespace) -> None:
    if ns.samples < 0:
        raise ValueError(f"--samples {ns.samples} is negative")
    graph = _graph(run.config)
    n = run.config.n
    expected = expected_level_census(n)
    censuses: dict[tuple[int, ...], int] = {}
    first = None
    for s in range(ns.samples):
        try:
            chain = sample_chain(graph, seed=ns.seed + s)
        except Finding as exc:
            run.finding(str(exc))
            continue
        if first is None:
            first = chain
        census = level_census(chain, n)
        censuses[census] = censuses.get(census, 0) + 1
        if census != expected:
            run.finding(f"chain census {census} differs from {expected}")
    print(f"{ns.samples} chains sampled; census {expected} expected")
    for census, count in sorted(censuses.items()):
        print(f"  census {census}: {count} chains")
    payload = run.config.to_json() | {
        "samples": ns.samples,
        "seed": ns.seed,
        "expected_census": list(expected),
        "censuses": [
            {"census": list(c), "chains": m} for c, m in sorted(censuses.items())
        ],
        "example_chain": list(first.nodes) if first else None,
    }
    _write(run, f"chains_n{n}.json", payload)


def cmd_render(run: RunConfig, ns: argparse.Namespace) -> None:
    n = run.config.n
    if ns.tiling == "min":
        key = 0  # every circuit oriented +1
    elif ns.tiling == "max":
        key = (1 << num_triples(n)) - 1
    else:
        try:
            node = int(ns.tiling)
        except ValueError:
            raise ValueError(f"--tiling {ns.tiling!r} is not a node id, 'min' or 'max'") from None
        graph = _graph(run.config)
        check_node(graph, node)
        key = graph.keys[node]
    svg = tiling_to_svg(run.config, key_offsets(n, key))
    if run.out is None:
        print(svg)
    else:
        _write(run, f"tiling_n{n}_{ns.tiling}.svg", svg)


def cmd_oracle_count(run: RunConfig, ns: argparse.Namespace) -> None:
    result = commutation_census(run.config.n)
    print(
        f"n={result.n}: {result.reduced_words} reduced words, "
        f"{result.commutation_classes} commutation classes"
    )
    formula = reduced_word_count_formula(result.n)
    if result.reduced_words != formula:
        run.finding(f"{result.reduced_words} reduced words, but the hook formula gives {formula}")
    tilings = len(_graph(run.config))
    if result.commutation_classes != tilings:
        run.finding(
            f"{result.commutation_classes} commutation classes, but {tilings} tilings enumerated"
        )
    _write(run, f"oracle_n{result.n}.json", asdict(result))


# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zonotiling",
        description="exact flip-graph experiments for zonotopal tilings of a line configuration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate all tilings into a flip graph")
    _add_common(p)
    p.add_argument("--format", dest="fmt", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="regularity census with certificates")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("diameters", help="quotient-skeleton diameters vs closed forms")
    _add_common(p)
    p.add_argument("--format", dest="fmt", choices=("json", "dot"), default="json")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_diameters)

    p = sub.add_parser("hypertri", help="lifting/reduced path diameters and fixtures")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_hypertri)

    p = sub.add_parser("potential", help="per-edge potential audit")
    _add_common(p)
    p.add_argument("--ref", type=int, default=0, help="reference node id")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument(
        "--thresholds", choices=("definition", "shifted"), default="definition"
    )
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("chains", help="sample maximal chains and their level censuses")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("render", help="draw one tiling as SVG")
    _add_common(p)
    p.add_argument("--tiling", type=str, default="min", help="node id, 'min', or 'max'")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle-count", help="independent commutation-class count")
    _add_common(p)
    p.set_defaults(func=cmd_oracle_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on the resolved options; returns the exit status."""
    ns = build_parser().parse_args(argv)
    try:
        run = _resolve(ns)
        ns.func(run, ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if run.findings and run.strict else 0


if __name__ == "__main__":
    sys.exit(main())
