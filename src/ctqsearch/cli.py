"""Command-line interface.

Six subcommands cover the simulator surface: ``simulate`` (trajectory and
measurement statistics), ``verify`` (reduced model vs. full-space evolution
on the symmetry classes), ``estimate`` (overlap from register sampling),
``count`` (target counting), ``sweep`` (misplaced-confidence curve), and
``compare`` (structured vs. uniform preparation).  Each ``cmd_*`` returns
what it computed as an :class:`Output`; one driver writes ``<command>.json``
and the command's CSV tables.  Outputs are deterministic for a fixed seed:
JSON is written with sorted keys and no timestamps, so identical runs
produce identical bytes.

Exit codes: 0 on success, 1 on invalid input, 2 when an internal check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .analysis import (
    _check_alpha2,
    compare_structured_unstructured,
    misplaced_confidence_curve,
    misplaced_structure,
)
from .dynamics import _check_energy, _check_time, optimal_time, success_distribution, trajectory
from .floatrepr import repr_cells
from .fullsim import plane_projection_on_grid
from .phase_estimation import (
    REGISTER_STREAM,
    VERIFY_STREAM,
    PhaseEstimate,
    _counting_m_size,
    _require_power_of_two,
    measurement_distribution,
    run_counting,
    run_phase_estimation,
)
from .scenario import SearchScenario, load_scenario
from .stateprep import weighted_superposition

SCHEMA_VERSION = "5.0"
# leads the bytes a scenario digest is taken over
DIGEST_TAG = b"ctqsearch-scenario-5.0\0"
VERIFY_TOL = 1e-10
# a backward-stable propagator is off by about eps * E * t_max; a deviation
# within this many times that floor (1.75 the worst seen) is roundoff
ROUNDOFF_FACTOR = 4.0
SIZE_FLAG_BUDGET = 2**30  # bytes a size flag may ask for, refused when parsed
# size flag: (lower bound, tracemalloc peak bytes per unit at 10**5 units in
# the command's first run in a fresh interpreter)
SIZE_FLAGS = {"--points": (2, 92), "--grid-points": (2, 123), "--alpha2-points": (2, 76),
              "--samples": (1, 40)}
ALPHA2_RANGE = (0.05, 0.999)  # the defaults of sweep's --alpha2-min and --alpha2-max


class CliInputError(ValueError):
    """Invalid command line or scenario input."""


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the normal invalid-input path (exit 1)
    def error(self, message):
        raise CliInputError(message)


def _size(minimum: int, bytes_per_unit: int):
    """argparse type of a size flag: an int >= ``minimum`` whose peak memory,
    ``value * bytes_per_unit``, is within ``SIZE_FLAG_BUDGET``.  The check runs
    when the flag is parsed, so a refused value allocates nothing."""

    def size(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid size value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if value * bytes_per_unit > SIZE_FLAG_BUDGET:
            raise argparse.ArgumentTypeError(
                f"{value} needs ~{value * bytes_per_unit / 2**20:.0f} MiB, over the "
                f"{SIZE_FLAG_BUDGET // 2**20} MiB budget"
            )
        return value

    return size


def _checked(check):
    """argparse type: ``check`` on the flag's text, a ``ValueError`` refusing the flag."""

    def checked(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return checked


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    sub.add_argument("--energy", type=_checked(_check_energy), default=None,
                     help="override the energy scale")
    sub.add_argument("--out", default="results", help="output directory (created if missing)")
    sub.add_argument("--format", choices=("json", "csv", "both"), default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctqsearch", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="trajectory and success statistics")
    _add_common(p)
    p.add_argument("--points", type=_size(*SIZE_FLAGS["--points"]), default=256,
                   help="trajectory grid size")
    p.add_argument("--t-max", type=_checked(_check_time), default=None,
                   help="trajectory horizon (default 2T)")

    p = subs.add_parser("verify", help="check the reduced model against full-space evolution")
    _add_common(p)
    p.add_argument("--grid-points", type=_size(*SIZE_FLAGS["--grid-points"]), default=64)

    p = subs.add_parser("estimate", help="estimate the overlap y from register samples")
    _add_common(p)
    p.add_argument("--m-size", type=_checked(_require_power_of_two), default=64,
                   help="register size (power of two)")
    p.add_argument("--samples", type=_size(*SIZE_FLAGS["--samples"]), default=200)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("count", help="estimate the number of targets in the support")
    _add_common(p)
    p.add_argument("--m-size", type=_checked(_require_power_of_two), default=None,
                   help="register size (default: auto)")
    p.add_argument("--samples", type=_size(*SIZE_FLAGS["--samples"]), default=200)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("sweep", help="misplaced-confidence cost curve")
    _add_common(p)
    p.add_argument("--alpha2-min", type=_checked(_check_alpha2), default=ALPHA2_RANGE[0])
    p.add_argument("--alpha2-max", type=_checked(_check_alpha2), default=ALPHA2_RANGE[1])
    p.add_argument("--alpha2-points", type=_size(*SIZE_FLAGS["--alpha2-points"]), default=64)

    p = subs.add_parser("compare", help="structured vs. uniform preparation")
    _add_common(p)
    return parser


def _write_json(path: Path, payload: dict) -> None:
    document = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")


# rows formatted per kernel call: its arrays stay within the peaks SIZE_FLAGS states
CSV_CHUNK_ROWS = 2048


def _str_cells(values) -> np.ndarray:
    """``str`` of each value as NUL-padded uint8 cells, one row per value."""
    return np.array([str(v) for v in values], dtype="S").view(np.uint8).reshape(len(values), -1)


def _write_csv(path: Path, header, columns) -> None:
    """Write a header and equal-length columns, byte-identical to ``csv.writer``.

    Rows are formatted a bounded chunk at a time, as NUL-padded byte cells: the
    float64 array columns in one :func:`repr_cells` call, whose bytes are the
    ``repr`` csv writes, and every other cell through ``str``: the commands
    put only ints and labels there.  Separator columns are interleaved and the
    NULs dropped.  No cell needs quoting.
    """
    floats = [i for i, c in enumerate(columns)
              if isinstance(c, np.ndarray) and c.dtype == np.float64]
    with path.open("wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            parts = [column[start : start + CSV_CHUNK_ROWS] for column in columns]
            cells = {i: _str_cells(p) for i, p in enumerate(parts) if i not in floats}
            if floats:
                block = repr_cells(np.stack([parts[i] for i in floats], axis=1))
                cells.update(zip(floats, block.transpose(1, 0, 2)))
            rows = len(parts[0])
            comma = np.full((rows, 1), ord(","), np.uint8)
            pieces = [piece for i in range(len(parts)) for piece in (cells[i], comma)]
            pieces[-1] = np.full((rows, 2), (ord("\r"), ord("\n")), np.uint8)
            table = np.concatenate(pieces, axis=1)
            fh.write(table[table != 0].tobytes())
    print(f"wrote {path}")


def _scenario_summary(scenario: SearchScenario) -> dict:
    """Name a scenario by the SHA-256 of its canonical binary form, beside its sizes.

    The form is the validated scenario (sorted, duplicate-free members,
    normalised weights, the energy as run) as little-endian ``<i8`` and
    ``<f8`` parts, in README's order; each part of variable length is
    prefixed by its count, so no two scenarios give the same bytes.
    """
    digest = hashlib.sha256(DIGEST_TAG + struct.pack("<qd", scenario.n_items, scenario.energy))

    def indices(items: np.ndarray) -> None:
        digest.update(struct.pack("<q", items.size))
        digest.update(np.ascontiguousarray(items, dtype="<i8"))

    indices(scenario.targets)
    digest.update(struct.pack("<q", scenario.n_sets))
    for s in scenario.info_sets:
        indices(s.members)
        digest.update(struct.pack("<d", s.weight))
    return {"sha256": digest.hexdigest(), "n_items": scenario.n_items,
            "n_targets": scenario.n_targets, "n_sets": scenario.n_sets,
            "support_size": scenario.support_size, "energy": scenario.energy}


class Output(NamedTuple):
    """What a command computed; :func:`_run` adds the scenario and writes it."""

    payload: dict  # report fields besides schema_version, command and scenario
    summary: str  # the line printed after the files are written
    tables: tuple = ()  # (file name, header, columns) per CSV
    failure: str | None = None  # an internal check failed: exit 2 once written


def cmd_simulate(args, scenario: SearchScenario) -> Output:
    prep = weighted_superposition(scenario)
    t_opt = optimal_time(prep.y, scenario.energy)
    traj = trajectory(prep, scenario.energy, t_max=args.t_max, n_points=args.points)
    probs = success_distribution(prep, scenario.energy, t_opt)
    failure = float(probs[-1])
    outcomes = ((*prep.target_items.tolist(), "failure"), probs)
    return Output(
        payload={
            "y": prep.y,
            "nu": prep.nu,
            "r_count": prep.r_count,
            "optimal_time": t_opt,
            "success_distribution": {"failure": failure},
            "trajectory": {"points": int(args.points), "t_max": float(traj.times[-1])},
        },
        summary=f"y={prep.y:.6f} T={t_opt:.6f} success={1.0 - failure:.6f}",
        tables=(
            (
                "trajectory.csv",
                ["t", "re(a)", "im(a)", "re(b)", "im(b)", "success_prob"],
                (traj.times, traj.a.real, traj.a.imag, traj.b.real, traj.b.imag, traj.success),
            ),
            ("success_distribution.csv", ["item", "probability"], outcomes),
        ),
    )


def cmd_verify(args, scenario: SearchScenario) -> Output:
    prep = weighted_superposition(scenario)
    traj = trajectory(prep, scenario.energy, n_points=args.grid_points)  # on [0, 2T]
    t_max = float(traj.times[-1])
    a, b, leak, n_classes = plane_projection_on_grid(prep, scenario.energy, traj.times)
    max_leak = float(np.max(leak))
    max_dev = float(max(np.max(np.abs(a - traj.a)), np.max(np.abs(b - traj.b))))
    passed = bool(max_leak <= VERIFY_TOL and max_dev <= VERIFY_TOL)
    energy_time = scenario.energy * t_max
    floor = ROUNDOFF_FACTOR * np.finfo(float).eps * energy_time
    if not passed and max_leak <= VERIFY_TOL and max_dev <= floor:
        raise ValueError(
            f"verify cannot resolve {VERIFY_TOL:g} here: at y={prep.y:.3e} and "
            f"E*t_max={energy_time:.3e}, float64 roundoff reaches {floor:.1e} "
            f"(deviation {max_dev:.1e})"
        )
    return Output(
        payload={
            "grid_points": int(args.grid_points),
            "t_max": t_max,
            "energy_time": energy_time,
            "n_classes": n_classes,
            "max_subspace_leak": max_leak,
            "max_trajectory_deviation": max_dev,
            "tolerance": VERIFY_TOL,
            "passed": passed,
        },
        summary=f"max_leak={max_leak:.3e} max_deviation={max_dev:.3e} passed={passed}",
        failure=None if passed else (
            f"reduced model disagrees with full-space evolution: leak={max_leak:.3e}, "
            f"deviation={max_dev:.3e}, tolerance={VERIFY_TOL}"
        ),
    )


def _register_table(y: float, m_size: int) -> tuple:
    """The register law on its windowed bins, then a ``rest`` row when they
    leave bins out, as ``success_distribution.csv`` ends in ``failure``."""
    dist = measurement_distribution(y, m_size)
    k, floats = dist.k, (dist.total, dist.branch_phase_y, dist.branch_phase_complement)
    if dist.rest is not None:  # the floats stay float64; k's ints and its label go through str
        k, floats = [*k.tolist(), "rest"], [np.append(c, v) for c, v in zip(floats, dist.rest)]
    return "register_distribution.csv", ["k", "p_total", "p_phase_y", "p_phase_complement"], (k, *floats)


def _estimate_fields(est: PhaseEstimate) -> dict:
    """The estimate as ``estimate.json`` and ``count.json``'s ``estimate`` write
    it: the register reading, the ambiguity of its split before verification,
    each verification candidate's harmonic and hits, and the random streams
    drawn from."""
    draws = est.verification
    return {
        "m_size": est.m_size,
        "k_mode": est.k_mode,
        "y_candidates": list(est.y_candidates),
        "y_hat": est.y_hat,
        "resolution": est.resolution,
        "cluster_counts": list(est.cluster_counts),
        "candidate_gap": est.candidate_gap,
        "log_likelihood_ratio": est.log_likelihood_ratio,
        "ambiguous": est.ambiguous,
        "branch_flipped": est.branch_flipped,
        "verification": None if draws is None else [
            {"candidate": c, "harmonic": h, "hits": n} for c, h, n in draws
        ],
        "rng_streams": [REGISTER_STREAM] + ([] if draws is None else [VERIFY_STREAM]),
    }


def cmd_estimate(args, scenario: SearchScenario) -> Output:
    prep = weighted_superposition(scenario)
    est, samples = run_phase_estimation(
        prep, scenario.energy, m_size=args.m_size, n_samples=args.samples, seed=args.seed
    )
    ks, counts = np.unique(samples, return_counts=True)
    return Output(
        payload={
            "n_samples": int(args.samples),
            "seed": int(args.seed),
            "k_histogram": dict(zip(map(str, ks.tolist()), counts.tolist())),
            "true_y": prep.y,
            **_estimate_fields(est),
        },
        summary=f"y_hat={est.y_hat:.6f} candidates={est.y_candidates} true_y={prep.y:.6f}",
        tables=(_register_table(prep.y, args.m_size),),
    )


def cmd_count(args, scenario: SearchScenario) -> Output:
    try:  # the one refusal that needs the scenario, so it comes after parsing
        _counting_m_size(args.m_size, scenario.support_size)
    except ValueError as exc:
        raise CliInputError(f"argument --m-size: {exc}") from None
    count, est = run_counting(scenario, m_size=args.m_size, n_samples=args.samples, seed=args.seed)
    return Output(
        payload={
            "n_samples": int(args.samples),
            "seed": int(args.seed),
            "estimate": _estimate_fields(est),
            "count_estimate": count,
            "true_count": scenario.n_targets,
        },
        summary=(
            f"count_estimate={count} true_count={scenario.n_targets} "
            f"support={scenario.support_size}"
        ),
    )


def cmd_sweep(args, scenario: SearchScenario) -> Output:
    structure = misplaced_structure(scenario)
    grid = np.linspace(args.alpha2_min, args.alpha2_max, args.alpha2_points)
    curve = misplaced_confidence_curve(
        structure.l, structure.n1, structure.n2, structure.n12, grid, scenario.energy
    )
    t_lo, t_hi = float(curve.time[0]), float(curve.time[-1])
    return Output(
        payload={
            "structure": dataclasses.asdict(structure),
            "alpha2_grid": {
                "min": float(args.alpha2_min),
                "max": float(args.alpha2_max),
                "points": int(args.alpha2_points),
            },
            "time_at_min": t_lo,
            "time_at_max": t_hi,
            "divergence_ratio": t_hi / t_lo,
            "monotone_increasing": bool(np.all(np.diff(curve.time) > 0)),
        },
        summary=(
            f"alpha2 in [{args.alpha2_min}, {args.alpha2_max}]: "
            f"T grows {t_hi / t_lo:.1f}x"
        ),
        tables=(
            (
                "sweep_curve.csv",
                ["alpha2", "nu", "y", "T"],
                (curve.alpha2, curve.nu, curve.y, curve.time),
            ),
        ),
    )


def cmd_compare(args, scenario: SearchScenario) -> Output:
    report = compare_structured_unstructured(scenario)
    return Output(
        payload=dataclasses.asdict(report),
        summary=(
            f"structured T={report.time_structured:.4f} uniform T={report.time_uniform:.4f} "
            f"speedup={report.speedup:.4f}"
        ),
    )


COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "estimate": cmd_estimate,
    "count": cmd_count,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def _run(args) -> int:
    """Load the scenario, run the command, then write and report its outputs;
    the exit code is 2 when the command's internal check failed, else 0."""
    scenario = load_scenario(args.scenario)
    if args.energy is not None:
        scenario = dataclasses.replace(scenario, energy=args.energy)
    result = COMMANDS[args.command](args, scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # csv skips the report only where tables stand in for it
    if args.format != "csv" or not result.tables:
        _write_json(
            out / f"{args.command}.json",
            {"command": args.command, "scenario": _scenario_summary(scenario), **result.payload},
        )
    # json skips the tables
    for name, header, columns in () if args.format == "json" else result.tables:
        _write_csv(out / name, header, columns)
    print(result.summary)
    if result.failure:
        print(f"internal check failed: {result.failure}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep" and not args.alpha2_min < args.alpha2_max:
            # a pair out of order has moved --alpha2-max, or else --alpha2-min, off its default
            flag = "--alpha2-max" if args.alpha2_max != ALPHA2_RANGE[1] else "--alpha2-min"
            parser.error(f"argument {flag}: need --alpha2-min < --alpha2-max, "
                         f"got {args.alpha2_min} and {args.alpha2_max}")
        return _run(args)
    except (OSError, ValueError, OverflowError, MemoryError) as exc:  # incl. CliInputError, ScenarioError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
