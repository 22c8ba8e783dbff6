"""Command-line interface.

Subcommands: solve, verify, enumerate, partition, lens-check, gen, render,
check-gp.  Exit codes: 0 success, 1 negative verification, 2 usage
errors, 3 internal errors (a solver or oracle step the package guarantees
failed).  Result documents are JSON with a fixed key order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .cycles import GeoGraph
from .geometry import InternalError, PointSet, ball_depths, check_general_position, edge_balls
from .oracle import (
    _hamiltonian_sequences,
    enumerate_hamiltonian,
    is_tverberg_graph,
    lens_family_common_point,
)
from .partitions import (
    covers_all_parts,
    default_parts,
    min_degree_check,
    partition_covering_graph,
)
from .pointio import PointParseError, format_points, generate, parse_points
from .solver import SolveResult, SolverConfig, solve
from .svg import render_svg


def _read_points(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read())


def _parse_edges(spec: str, n_vertices: int) -> GeoGraph:
    edges = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split("-")
        if len(parts) != 2:
            raise ValueError(f"bad edge token {token!r}; expected i-j")
        edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValueError("no edges given")
    return GeoGraph(n_vertices, tuple(edges))


def _digest(points: PointSet) -> str:
    return hashlib.sha256(format_points(points).encode()).hexdigest()


def _result_document(points: PointSet, result: SolveResult, tol: float) -> dict:
    depths = ball_depths(*edge_balls(result.points.coords, result.graph.edges), result.witness)
    perturbation = 0.0  # largest point displacement over the input's diameter
    if result.perturbed:
        moved = np.linalg.norm(result.points.coords - points.coords, axis=1).max()
        perturbation = float(moved / points.diameter())
    return {
        "tool": "tverberg",
        "version": __version__,
        "input": {"digest": _digest(points), "points": len(points), "dim": points.dim},
        "mode": result.mode.value,
        "edges": [[a, b] for a, b in result.graph.edges],
        "witness": [float(v) for v in result.witness],
        "certificate": [
            {"edge": [a, b], "angle": ang} for (a, b), ang in result.certificate
        ],
        "margins": [
            {"edge": [a, b], "margin": float(d)} for (a, b), d in zip(result.graph.edges, depths)
        ],
        "stats": {
            "iterations": result.iterations,
            "restarts": result.restarts,
            "perturbed": result.perturbed,
            "perturbation": perturbation,
            "seed": result.seed,
            "tol": tol,
        },
    }


def _cmd_solve(args) -> int:
    points = _read_points(args.file)
    config = SolverConfig(tol=args.tol, max_iters=args.max_iters, restarts=args.restarts)
    result = solve(points, seed=args.seed, config=config)
    doc = _result_document(points, result, args.tol)
    print(json.dumps(doc, indent=2))
    if args.render:
        with open(args.render, "w", encoding="utf-8") as fh:
            fh.write(render_svg(result.points, result.graph, witness=result.witness))
    return 0


def _cmd_verify(args) -> int:
    points = _read_points(args.file)
    graph = _parse_edges(args.edges, len(points))
    cert = is_tverberg_graph(points, graph, args.tol)
    if cert is None:
        print("NOT TVERBERG")
        return 1
    doc = {
        "witness": [float(v) for v in cert.witness],
        "margins": [
            {"edge": list(edge), "margin": margin} for edge, margin in cert.per_edge_margin
        ],
        "min_margin": cert.min_margin(),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_enumerate(args) -> int:
    points = _read_points(args.file)
    report = enumerate_hamiltonian(points, args.mode, args.tol)
    doc = {
        "mode": args.mode,
        "total_cycles": report.total_cycles,
        "tverberg_count": len(report.tverberg_cycles),
        "counterexample": report.counterexample,
        "tverberg": [
            {
                "edges": [list(e) for e in graph.edges],
                "witness": [float(v) for v in cert.witness],
                "min_margin": cert.min_margin(),
            }
            for graph, cert in report.tverberg_cycles
        ],
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_partition(args) -> int:
    points = _read_points(args.file)
    r = args.r if args.r is not None else default_parts(len(points), points.dim)
    graph, partition, cert = partition_covering_graph(points, r=r, tol=args.tol)
    doc = {
        "r": partition.r,
        "parts": [list(part) for part in partition.parts],
        "common_point": [float(v) for v in partition.common_point],
        "coefficients": [[float(c) for c in lam] for lam in partition.barycentric_witnesses],
        "edges": [[a, b] for a, b in graph.edges],
        "witness": [float(v) for v in cert.witness],
        "min_margin": cert.min_margin(),
        "min_degree": int(graph.degrees().min()),
        "degree_bound": len(points) / (points.dim + 1),
        "min_degree_ok": min_degree_check(graph, points),
        "covers_all_parts": covers_all_parts(graph, partition, points, args.tol),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_lens_check(args) -> int:
    points = _read_points(args.file)
    if (args.edges is None) == (not args.all_cycles):
        raise ValueError("give exactly one of --edges or --all-cycles")
    if args.all_cycles:
        if not 3 <= len(points) <= 9:
            raise ValueError("--all-cycles enumeration needs 3 to 9 points")
        any_present = False
        for seq in _hamiltonian_sequences(len(points), "cycles"):
            edges = tuple(
                tuple(sorted((seq[i], seq[(i + 1) % len(seq)]))) for i in range(len(seq))
            )
            graph = GeoGraph(len(points), edges)
            cert = lens_family_common_point(points, graph, args.alpha, args.tol)
            name = "-".join(str(v) for v in seq)
            if cert is None:
                print(f"cycle {name}: ABSENT")
            else:
                any_present = True
                w = cert.witness
                print(f"cycle {name}: PRESENT witness=({w[0]:.12g},{w[1]:.12g})")
        return 0 if any_present else 1
    graph = _parse_edges(args.edges, len(points))
    cert = lens_family_common_point(points, graph, args.alpha, args.tol)
    if cert is None:
        print("ABSENT")
        return 1
    w = cert.witness
    print(f"PRESENT witness=({w[0]:.12g},{w[1]:.12g})")
    return 0


def _cmd_gen(args) -> int:
    bbox = tuple(float(v) for v in args.bbox.split(","))
    if len(bbox) != 4:
        raise ValueError("bbox must be x0,y0,x1,y1")
    points = generate(args.kind, args.m, seed=args.seed, bbox=bbox)
    text = format_points(points)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_render(args) -> int:
    points = _read_points(args.file)
    graph = _parse_edges(args.edges, len(points)) if args.edges else None
    witness = None
    if args.witness:
        witness = [float(v) for v in args.witness.split(",")]
        if len(witness) != 2:
            raise ValueError("witness must be x,y")
    center = None
    if args.radial_center:
        center = [float(v) for v in args.radial_center.split(",")]
        if len(center) != 2:
            raise ValueError("radial-center must be x,y")
    svg = render_svg(
        points,
        graph,
        witness=witness,
        draw_disks=not args.no_disks,
        radial_center=center,
        labels=args.labels,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _cmd_check_gp(args) -> int:
    points = _read_points(args.file)
    report = check_general_position(points, args.tol)
    doc = {
        "ok": report.ok(),
        "collinear_triples": [list(t) for t in report.collinear_triples],
        "boundary_incidences": [[z, list(pair)] for z, pair in report.boundary_incidences],
        "triple_boundary_meets": [
            [list(a), list(b), list(c)] for a, b, c in report.triple_boundary_meets
        ],
        "tangent_pairs": [[list(a), list(b)] for a, b in report.tangent_pairs],
    }
    print(json.dumps(doc, indent=2))
    return 0 if report.ok() else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tverberg",
        description="Tverberg graphs on point sets: certified Hamiltonian "
        "cycles, paths, and partition-based constructions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=1e-9, help="absolute tolerance")

    p = sub.add_parser("solve", help="Hamiltonian cycle (odd) or path (even) with witness")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--render", metavar="OUT.svg", help="also render the result")
    add_tol(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check an edge list for a common disk point")
    p.add_argument("file")
    p.add_argument("--edges", required=True, help='edge list "0-1,1-2,..."')
    add_tol(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="brute-force all Hamiltonian cycles/paths")
    p.add_argument("file")
    p.add_argument("--mode", choices=("cycles", "paths"), default="cycles")
    add_tol(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("partition", help="Tverberg partition and its covering graph")
    p.add_argument("file")
    p.add_argument("--r", type=int, default=None, help="number of parts")
    add_tol(p)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("lens-check", help="common point of the alpha-lenses of edges")
    p.add_argument("file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--edges", default=None)
    p.add_argument("--all-cycles", action="store_true")
    add_tol(p)
    p.set_defaults(func=_cmd_lens_check)

    p = sub.add_parser("gen", help="generate a seeded point set")
    p.add_argument("--kind", choices=("uniform", "convex", "grid_perturbed"), required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bbox", default="0,0,1,1")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("render", help="render a point set (and graph) to SVG")
    p.add_argument("file")
    p.add_argument("--edges", default=None)
    p.add_argument("--witness", default=None)
    p.add_argument("--radial-center", default=None)
    p.add_argument("--no-disks", action="store_true")
    p.add_argument("--labels", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("check-gp", help="report general-position violations")
    p.add_argument("file")
    add_tol(p)
    p.set_defaults(func=_cmd_check_gp)

    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PointParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
