"""Command-line front end: validation, graphs, chords, searches, audio."""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
from typing import Optional

from .audio import SAMPLE_RATE, RenderPlan, _render_wav
from .cayley import CayleyGraph, export_dot
from .counterpoint import (
    ConsonantSeed,
    Dichotomy,
    enumerate_weak_witnesses,
    extend_to_partitions,
    fux_dichotomy,
    maximal_consonant_extension,
    minimal_oriented_refinement,
    strong_search_report,
)
from .modular import AffineMap
from .music import (
    MAJOR,
    MINOR,
    MusicalSystem,
    chord_catalog,
    circle_of_fifths,
    interval_table,
    largest_chord_within_octave,
    scale,
    system_from_factors,
    triad,
)

# json is imported only where JSON is read or written, so that the calls
# that print text start without it.


class _Parser(argparse.ArgumentParser):
    # Route argparse's own failures through the one-line/exit-2 path.
    def error(self, message: str) -> None:
        raise ValueError(message)


def _system(args: argparse.Namespace) -> MusicalSystem:
    if args.n is not None:
        raise ValueError("n is derived from -p and -q; pass -p P -q Q")
    if args.p is None or args.q is None:
        raise ValueError("a system needs both -p and -q")
    return system_from_factors(args.p, args.q, args.s, args.f0)


def _residue(name: str, value: int, n: int) -> int:
    """value, refused unless it is in 0..n-1: no argument is reduced mod n."""
    if not 0 <= value < n:
        raise ValueError(f"{name} {value} is not in 0..{n - 1}")
    return value


def _join(values, sep: str = " ") -> str:
    return sep.join(str(x) for x in values)


# Each handler below returns (JSON payload, text) for main to print.
_Output = tuple[object, str]


def _cmd_validate(args: argparse.Namespace) -> _Output:
    system = _system(args)
    return system.to_dict(), (
        f"ok: n={system.n} p={system.p} q={system.q} s={system.s} f0={system.f0}"
    )


def _cmd_graph(args: argparse.Namespace) -> None:
    system = _system(args)
    graph = CayleyGraph(system.generator_set, oriented=args.oriented)
    dot = export_dot(graph)
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(dot)
    else:
        sys.stdout.write(dot)


def _cmd_distance(args: argparse.Namespace) -> _Output:
    system = _system(args)
    graph = CayleyGraph(system.generator_set, oriented=args.oriented)
    measure = graph.oriented_path_length if args.oriented else graph.distance
    length = measure(
        _residue("start note", args.a, system.n), _residue("end note", args.b, system.n)
    )
    payload = {"from": args.a, "to": args.b, "oriented": args.oriented, "length": length}
    return payload, str(length)


def _cmd_chords(args: argparse.Namespace) -> _Output:
    system = _system(args)
    if args.quality is None:
        if args.root is not None:
            raise ValueError("--root requires --quality")
        entries = chord_catalog(system)
        return [entry.to_dict() for entry in entries], "\n".join(
            f"{entry.name}: " + _join(f"+{w}" for w in entry.steps)
            for entry in entries
        )
    root = 0 if args.root is None else _residue("--root", args.root, system.n)
    small = triad(system, root, args.quality)
    big = largest_chord_within_octave(system, root, args.quality)
    return {"triad": small.to_dict(), "largest_within_octave": big.to_dict()}, (
        f"triad: {_join(small.notes)}\nlargest within octave: {_join(big.notes)}"
    )


def _cmd_scale(args: argparse.Namespace) -> _Output:
    system = _system(args)
    result = scale(system, _residue("--root", args.root, system.n), args.quality)
    return result.to_dict(), _join(result.notes)


def _cmd_circle(args: argparse.Namespace) -> _Output:
    system = _system(args)
    circle = circle_of_fifths(system)
    return circle.to_dict(), _join(circle.sequence[: system.n])


def _parse_residues(text: str, n: int) -> frozenset[int]:
    try:
        values = [int(token) for token in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"could not parse residue list {text!r}") from None
    if not values:
        raise ValueError("--consonants needs at least one residue")
    seen: set[int] = set()
    for value in values:
        if _residue("--consonants residue", value, n) in seen:
            raise ValueError(f"--consonants residue {value} is listed twice")
        seen.add(value)
    return frozenset(seen)


def _table(result) -> str:
    if isinstance(result, Dichotomy):
        return (
            f"K = {_join(sorted(result.consonant))}\n"
            f"D = {_join(sorted(result.dissonant))}"
        )
    generators = _join(result.generators, ",")
    lines = [f"n={result.n} S={{{generators}}} examined={result.examined}"]
    lines += [f"witness {w.multiplier}x+{w.offset}" for w in result.witnesses]
    lines += [
        f"K={{{_join(r.consonant, ',')}}} D={{{_join(r.dissonant, ',')}}} "
        f"via {r.multiplier}x+{r.offset} strong_witnesses={r.strong_witness_count}"
        for r in result.partitions
    ]
    lines += [f"note: {note}" for note in result.notes]
    return "\n".join(lines)


def _search(args: argparse.Namespace, system: MusicalSystem):
    """The search report for args.mode, or the chosen Dichotomy for refine."""
    if args.consonants is not None and args.mode != "strong":
        raise ValueError("--consonants applies only to --strong")
    if (args.multiplier, args.offset) != (None, None) and args.mode != "maximal":
        raise ValueError("--multiplier and --offset apply only to --maximal")
    seed = ConsonantSeed(system.symmetric_generator_set)
    if args.mode == "weak":
        return enumerate_weak_witnesses(seed)
    if args.mode == "strong":
        if args.consonants is not None:
            consonant = _parse_residues(args.consonants, system.n)
        elif (system.p, system.q) == (4, 3):
            consonant = fux_dichotomy().consonant
        else:
            raise ValueError("--strong needs --consonants for systems other than -p 4 -q 3")
        dissonant = frozenset(range(system.n)) - consonant
        return strong_search_report(Dichotomy(system.ring, consonant, dissonant), seed)
    if args.mode == "maximal":
        if (args.multiplier is None) != (args.offset is None):
            raise ValueError("--maximal takes both --multiplier and --offset")
        witness = None
        if args.multiplier is not None:
            witness = AffineMap(
                system.ring,
                _residue("--multiplier", args.multiplier, system.n),
                _residue("--offset", args.offset, system.n),
            )
        return maximal_consonant_extension(seed, witness)
    report = extend_to_partitions(seed)
    if args.mode == "refine":
        oriented = CayleyGraph(system.generator_set, oriented=True)
        return minimal_oriented_refinement(report, oriented)
    return report


def _cmd_counterpoint(args: argparse.Namespace) -> None:
    result = _search(args, _system(args))
    if args.pretty and not args.json:
        print(_table(result))
    else:
        print(result.to_json(indent=2 if args.pretty else None))


def _cmd_render(args: argparse.Namespace) -> _Output:
    import json

    with open(args.plan, encoding="utf-8") as handle:
        # One expression, so that the parsed JSON is freed before rendering.
        try:
            plan = RenderPlan.from_dict(json.load(handle))
        except RecursionError:
            raise ValueError(f"the plan file {args.plan} nests too deeply to read") from None
    # The plan is fully checked, so the output file is opened only for a
    # plan that renders.
    samples = _render_wav(plan, args.out)
    payload = {"out": args.out, "samples": samples, "sample_rate": SAMPLE_RATE}
    return payload, f"wrote {args.out}: {samples} samples at {SAMPLE_RATE} Hz"


def _cmd_intervals(args: argparse.Namespace) -> _Output:
    rows = [row.to_dict() for row in interval_table()]
    return rows, "\n".join(
        f"{r['index']:2d} {r['name']:<14} {r['pythagorean']:>8} "
        f"deviation {r['deviation']:.6f}"
        for r in rows
    )


def _system_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("-p", type=int, help="larger step factor")
    cmd.add_argument("-q", type=int, help="smaller step factor")
    cmd.add_argument(
        "-s", type=float, default=2.0, help="octave frequency ratio (default 2)"
    )
    cmd.add_argument(
        "--f0", type=float, default=440.0, help="base frequency in Hz (default 440)"
    )
    cmd.add_argument(
        "-n", type=int, help="rejected; the modulus is always derived as p*q"
    )


def _output_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )
    cmd.add_argument(
        "--pretty", action="store_true", help="indent JSON / prefer tables"
    )


def _query_flags(cmd: argparse.ArgumentParser) -> None:
    _system_flags(cmd)
    _output_flags(cmd)


def _graph_args(cmd: argparse.ArgumentParser) -> None:
    _system_flags(cmd)
    cmd.add_argument("--oriented", action="store_true", help="keep edge directions")
    cmd.add_argument("--out", help="write DOT to this file instead of stdout")


def _distance_args(cmd: argparse.ArgumentParser) -> None:
    _query_flags(cmd)
    cmd.add_argument("a", type=int, help="start note")
    cmd.add_argument("b", type=int, help="end note")
    cmd.add_argument("--oriented", action="store_true", help="directed paths only")


def _chords_args(cmd: argparse.ArgumentParser) -> None:
    _query_flags(cmd)
    cmd.add_argument("--root", type=int, help="root note (with --quality)")
    cmd.add_argument("--quality", choices=[MAJOR, MINOR])


def _scale_args(cmd: argparse.ArgumentParser) -> None:
    _query_flags(cmd)
    cmd.add_argument("--root", type=int, default=0, help="root note (default 0)")
    cmd.add_argument("--quality", choices=[MAJOR, MINOR], required=True)


def _counterpoint_args(cmd: argparse.ArgumentParser) -> None:
    _query_flags(cmd)
    cmd.add_argument("action", choices=["search"], help="only 'search' exists")
    mode = cmd.add_mutually_exclusive_group()
    for name, text in (
        ("weak", "enumerate weak witnesses over {0} union S"),
        ("strong", "scan for strong witnesses of one partition"),
        ("extend", "grow the seed to full partitions (default)"),
        ("maximal", "maximal consonant supersets under one involution"),
        ("refine", "pick the partition minimizing oriented lengths"),
    ):
        mode.add_argument(
            f"--{name}", dest="mode", action="store_const", const=name, help=text
        )
    cmd.add_argument(
        "--consonants",
        help="comma-separated consonant residues (required by --strong off Z_12)",
    )
    cmd.add_argument("--multiplier", type=int, help="h of the map used by --maximal")
    cmd.add_argument("--offset", type=int, help="w of the map used by --maximal")
    cmd.set_defaults(mode="extend")


def _render_args(cmd: argparse.ArgumentParser) -> None:
    _output_flags(cmd)
    cmd.add_argument("--plan", required=True, help="JSON plan file")
    cmd.add_argument("--out", required=True, help="output WAV path")


# Each command's name, help line, the function that adds its arguments, and
# its handler, in the order that --help lists them.
_COMMANDS = (
    ("validate", "check system parameters and report the normalized system",
     _query_flags, _cmd_validate),
    ("graph", "export the step graph as DOT", _graph_args, _cmd_graph),
    ("distance", "path length between two notes", _distance_args, _cmd_distance),
    ("chords", "chord catalog, or one root's triad and largest chord",
     _chords_args, _cmd_chords),
    ("scale", "scale notes for a root and quality", _scale_args, _cmd_scale),
    ("circle", "circle-of-fifths sequence", _query_flags, _cmd_circle),
    ("counterpoint", "affine witness and partition searches",
     _counterpoint_args, _cmd_counterpoint),
    ("render", "render a JSON plan file to a WAV file", _render_args, _cmd_render),
    ("intervals", "Pythagorean vs equal-temperament reference table",
     _output_flags, _cmd_intervals),
)


def _build_parser(command: str) -> _Parser:
    """The parser of every command, built in full only for `command`.

    The others are listed, without even -h, for --help and the "invalid
    choice" error. An argv that opens with an option other than help may
    name its command later (`-x validate ...`), so then all are built.
    The top-level -h is added only for an argv that opens with an option,
    as no other argv reaches it. The terminal width is read once here, not
    once per HelpFormatter that argparse builds.
    """
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = _Parser(
        prog="cayleytones",
        description="Musical systems on Z_n = Z_pq: graphs, chords, "
        "counterpoint searches, and WAV rendering.",
        formatter_class=formatter,
        add_help=command.startswith("-"),
    )
    sub = parser.add_subparsers(
        prog="cayleytones", dest="command", required=True, metavar="command"
    )
    every = command.startswith("-") and command not in ("-h", "--help")
    for name, text, add_arguments, handler in _COMMANDS:
        cmd = sub.add_parser(
            name, help=text, add_help=every or name == command, formatter_class=formatter
        )
        if cmd.add_help:
            add_arguments(cmd)
            cmd.set_defaults(handler=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv[0] if argv else "").parse_args(argv)
        result = args.handler(args)
        if result is not None:
            payload, text = result
            if args.json:
                import json

                print(json.dumps(payload, indent=2 if args.pretty else None))
            else:
                print(text)
        # Flushed here, so that a reader who closed stdout early is caught below.
        sys.stdout.flush()
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader stopped early (`| head`), which is not an input error.
        # Point stdout at devnull so the interpreter's last flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
