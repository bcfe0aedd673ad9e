"""End-to-end checks of the command line entry point."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cayleytones
from cayleytones import audio, cli, counterpoint
from cayleytones.audio import RenderPlan, render, write_wav
from cayleytones.cli import main
from cayleytones.counterpoint import (
    ConsonantSeed,
    extend_to_partitions,
    fux_dichotomy,
    strong_search_report,
)
from cayleytones.music import MAJOR, MINOR, circle_of_fifths, scale, system_from_factors

Z12 = system_from_factors(4, 3)


def test_public_names_are_exactly_these_and_all_resolve():
    assert cayleytones.__all__ == [
        "AffineMap",
        "AmbiguousRefinementError",
        "CayleyGraph",
        "Chord",
        "CircleOfFifths",
        "ConsonantSeed",
        "DYAD",
        "Dichotomy",
        "Envelope",
        "GeneratorSet",
        "GeneratorSetError",
        "IntervalRow",
        "InvalidChordError",
        "InvalidEnvelopeError",
        "MAJOR",
        "MAX_MODULUS",
        "MINOR",
        "ModRing",
        "MusicalSystem",
        "NoStrongDichotomyError",
        "PartitionRecord",
        "RenderEvent",
        "RenderPlan",
        "SAMPLE_RATE",
        "SampleBuffer",
        "Scale",
        "SearchReport",
        "SystemValidationError",
        "ToneSpec",
        "UnreachableVertexError",
        "chord_catalog",
        "chord_from_steps",
        "circle_of_fifths",
        "enumerate_weak_witnesses",
        "envelope_from_dict",
        "export_dot",
        "extend_to_partitions",
        "find_affine_for_partition",
        "fixed_points",
        "fux_dichotomy",
        "interval_table",
        "is_involution",
        "is_isometry_bruteforce",
        "is_isometry_by_generators",
        "largest_chord_within_octave",
        "maximal_consonant_extension",
        "minimal_oriented_refinement",
        "note_frequency",
        "pure_tone",
        "read_wav",
        "render",
        "satisfies_strong",
        "satisfies_weak",
        "scale",
        "strong_search_report",
        "sumset",
        "system_from_factors",
        "triad",
        "units",
        "validate_system",
        "write_wav",
    ]
    for name in cayleytones.__all__:
        assert getattr(cayleytones, name) is not None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "-p", "4", "-q", "3")
    assert code == 0
    assert out == "ok: n=12 p=4 q=3 s=2.0 f0=440.0\n"
    assert err == ""


def test_modulus_flag_is_rejected(capsys):
    code, out, err = run(capsys, "validate", "-n", "12")
    assert code == 2
    assert err == "error: n is derived from -p and -q; pass -p P -q Q\n"


def test_missing_factors(capsys):
    code, out, err = run(capsys, "validate", "-p", "4")
    assert code == 2
    assert err == "error: a system needs both -p and -q\n"


def test_invalid_factors_exit_2(capsys):
    code, out, err = run(capsys, "validate", "-p", "4", "-q", "2")
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_out_of_range_factors_are_named_as_given(capsys):
    code, out, err = run(capsys, "validate", "-p", "0", "-q", "3")
    assert (code, out) == (2, "")
    assert err == "error: factors must exceed 1, got p=0, q=3\n"


def test_help_exits_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "counterpoint" in out


def test_missing_subcommand_exits_2(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_circle_sequence(capsys):
    code, out, err = run(capsys, "circle", "-p", "5", "-q", "2")
    assert code == 0
    assert out == "0 7 4 1 8 5 2 9 6 3\n"


def test_circle_json_matches_module(capsys):
    code, out, err = run(capsys, "circle", "-p", "5", "-q", "2", "--json")
    assert code == 0
    assert out == json.dumps(circle_of_fifths(system_from_factors(5, 2)).to_dict()) + "\n"


def test_distance_unoriented(capsys):
    code, out, err = run(capsys, "distance", "-p", "4", "-q", "3", "0", "7")
    assert code == 0
    assert out == "2\n"


def test_distance_oriented_differs(capsys):
    code, out, err = run(capsys, "distance", "-p", "4", "-q", "3", "0", "5")
    assert (code, out) == (0, "2\n")
    code, out, err = run(
        capsys, "distance", "-p", "4", "-q", "3", "0", "5", "--oriented"
    )
    assert (code, out) == (0, "5\n")


def test_distance_json(capsys):
    code, out, err = run(capsys, "distance", "-p", "4", "-q", "3", "0", "7", "--json")
    assert code == 0
    assert json.loads(out) == {"from": 0, "to": 7, "oriented": False, "length": 2}


def test_scale_notes_line(capsys):
    code, out, err = run(capsys, "scale", "-p", "4", "-q", "3", "--quality", "major")
    assert code == 0
    assert out == "0 2 4 5 7 9 11 0\n"


def test_scale_json_matches_module(capsys):
    code, out, err = run(
        capsys, "scale", "-p", "4", "-q", "3", "--quality", "minor", "--json"
    )
    assert code == 0
    assert out == json.dumps(scale(Z12, 0, "minor").to_dict()) + "\n"


def test_chords_root_needs_quality(capsys):
    code, out, err = run(capsys, "chords", "-p", "4", "-q", "3", "--root", "0")
    assert code == 2
    assert err == "error: --root requires --quality\n"


def test_chords_catalog(capsys):
    code, out, err = run(capsys, "chords", "-p", "4", "-q", "3")
    assert code == 0
    assert "Major Triad: +4 +3" in out


def test_chords_triad_json(capsys):
    code, out, err = run(
        capsys,
        "chords", "-p", "4", "-q", "3", "--root", "0", "--quality", "major", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["triad"]["notes"] == [0, 4, 7]
    assert data["largest_within_octave"]["notes"] == [0, 4, 7, 11]


_MAXIMAL = ("counterpoint", "search", "-p", "4", "-q", "3", "--maximal")


@pytest.mark.parametrize(
    "argv, named",
    [
        (("distance", "-p", "4", "-q", "3", "13", "1", "--json"), "start note 13"),
        (("distance", "-p", "4", "-q", "3", "0", "12"), "end note 12"),
        (("scale", "-p", "4", "-q", "3", "--root", "14", "--quality", "major"),
         "--root 14"),
        (("chords", "-p", "4", "-q", "3", "--root", "-1", "--quality", "major"),
         "--root -1"),
        ((*_MAXIMAL, "--multiplier", "17", "--offset", "14"), "--multiplier 17"),
        ((*_MAXIMAL, "--multiplier", "5", "--offset", "-10"), "--offset -10"),
    ],
    ids=["a", "b", "scale-root", "chords-root", "multiplier", "offset"],
)
def test_a_residue_argument_outside_the_ring_exits_2(capsys, argv, named):
    # Each of these once ran on its value reduced mod 12 and exited 0.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named} is not in 0..11\n"


def test_residue_arguments_take_0_and_n_minus_1(capsys):
    assert run(capsys, "distance", "-p", "4", "-q", "3", "11", "0") == (0, "2\n", "")
    code, out, err = run(
        capsys, "scale", "-p", "4", "-q", "3", "--root", "11", "--quality", "major"
    )
    assert (code, out) == (0, " ".join(map(str, scale(Z12, 11, MAJOR).notes)) + "\n")
    code, out, err = run(
        capsys,
        "chords", "-p", "4", "-q", "3", "--root", "11", "--quality", "major", "--json",
    )
    assert (code, json.loads(out)["triad"]["notes"]) == (0, [11, 3, 6])
    code, out, err = run(
        capsys,
        "counterpoint", "search", "-p", "5", "-q", "3", "--maximal",
        "--multiplier", "14", "--offset", "14",
    )
    assert (code, json.loads(out)["witnesses"]) == (0, [{"h": 14, "w": 14}])


def test_graph_dot_output(capsys, tmp_path):
    code, out, err = run(capsys, "graph", "-p", "4", "-q", "3")
    assert code == 0
    assert out.startswith("graph")
    assert " -- " in out
    path = tmp_path / "oriented.dot"
    code, out, err = run(
        capsys, "graph", "-p", "4", "-q", "3", "--oriented", "--out", str(path)
    )
    assert code == 0
    assert path.read_text().startswith("digraph")


def test_graph_to_an_empty_path_is_an_error_not_stdout(capsys):
    code, out, err = run(capsys, "graph", "-p", "4", "-q", "3", "--out", "")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


@pytest.mark.parametrize("flag", ["--json", "--pretty"])
def test_graph_takes_no_output_flags(capsys, flag):
    code, out, err = run(capsys, "graph", "-p", "4", "-q", "3", flag)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {flag}\n"


def test_counterpoint_strong_matches_module(capsys):
    code, out, err = run(
        capsys, "counterpoint", "search", "--strong", "-p", "4", "-q", "3"
    )
    assert code == 0
    seed = ConsonantSeed(Z12.symmetric_generator_set)
    assert out == strong_search_report(fux_dichotomy(), seed).to_json() + "\n"
    data = json.loads(out)
    assert data["witnesses"] == [{"h": 5, "w": 2}]
    assert data["examined"] == 48


def test_counterpoint_strong_needs_consonants_elsewhere(capsys):
    code, out, err = run(
        capsys, "counterpoint", "search", "--strong", "-p", "5", "-q", "2"
    )
    assert code == 2
    assert "--consonants" in err


@pytest.mark.parametrize("text", ["", ",", " "])
def test_counterpoint_strong_refuses_an_empty_consonant_list(capsys, text):
    code, out, err = run(
        capsys,
        "counterpoint", "search", "--strong", "-p", "4", "-q", "3",
        "--consonants", text,
    )
    assert (code, out) == (2, "")
    assert err == "error: --consonants needs at least one residue\n"


@pytest.mark.parametrize(
    "text, value",
    [("15,3,4,7,8,9", 15), ("0,3,4,7,8,9,12", 12), ("3,4,-1", -1)],
)
def test_counterpoint_strong_refuses_a_residue_outside_the_ring(capsys, text, value):
    # Reduced mod 12, 15 and 12 would fall on residues already listed, and
    # the search would run on one residue fewer.
    code, out, err = run(
        capsys,
        "counterpoint", "search", "--strong", "-p", "4", "-q", "3",
        "--consonants", text,
    )
    assert (code, out) == (2, "")
    assert err == f"error: --consonants residue {value} is not in 0..11\n"


@pytest.mark.parametrize("text", ["0,3,4,7,8,9,3", "3 3"])
def test_counterpoint_strong_refuses_a_residue_listed_twice(capsys, text):
    code, out, err = run(
        capsys,
        "counterpoint", "search", "--strong", "-p", "4", "-q", "3",
        "--consonants", text,
    )
    assert (code, out) == (2, "")
    assert err == "error: --consonants residue 3 is listed twice\n"


def test_counterpoint_strong_refuses_an_unparsable_consonant_list(capsys):
    code, out, err = run(
        capsys,
        "counterpoint", "search", "--strong", "-p", "4", "-q", "3",
        "--consonants", "1,x",
    )
    assert (code, out, err) == (2, "", "error: could not parse residue list '1,x'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--weak", "--consonants", "1,2"),
        ("--consonants", "1,2"),
        ("--maximal", "--consonants", "0,3,4"),
        ("--extend", "--multiplier", "5", "--offset", "2"),
        ("--strong", "--multiplier", "5", "--offset", "2"),
        ("--refine", "--offset", "2"),
    ],
)
def test_counterpoint_refuses_flags_of_another_mode(capsys, argv):
    code, out, err = run(capsys, "counterpoint", "search", "-p", "4", "-q", "3", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and " only to --" in err
    assert err.count("\n") == 1


def test_counterpoint_strong_with_consonants(capsys):
    code, out, err = run(
        capsys,
        "counterpoint", "search", "--strong", "-p", "5", "-q", "2",
        "--consonants", "0,2,4,5,8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"] == [{"h": 9, "w": 1}]


def test_counterpoint_default_extends(capsys):
    code, out, err = run(capsys, "counterpoint", "search", "-p", "4", "-q", "3")
    assert code == 0
    seed = ConsonantSeed(Z12.symmetric_generator_set)
    assert out == extend_to_partitions(seed).to_json() + "\n"
    data = json.loads(out)
    assert len(data["partitions"]) == 4


def test_counterpoint_weak_json(capsys):
    code, out, err = run(
        capsys, "counterpoint", "search", "--weak", "-p", "4", "-q", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["examined"] == 48
    assert {(w["h"], w["w"]) for w in data["witnesses"]} == {
        (5, 2), (5, 10), (11, 2), (11, 10),
    }


def test_counterpoint_maximal_odd_modulus(capsys):
    code, out, err = run(
        capsys, "counterpoint", "search", "--maximal", "-p", "5", "-q", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert all(len(rec["K"]) == 7 for rec in data["partitions"])
    assert all(8 not in rec["K"] for rec in data["partitions"])


def test_counterpoint_maximal_needs_both_map_parts(capsys):
    code, out, err = run(
        capsys,
        "counterpoint", "search", "--maximal", "-p", "5", "-q", "3",
        "--multiplier", "14",
    )
    assert code == 2
    assert "--offset" in err


@pytest.mark.parametrize("extra", [(), ("--multiplier", "14", "--offset", "1")])
def test_counterpoint_maximal_builds_one_isometry_table(capsys, monkeypatch, extra):
    builds = []
    real = counterpoint._involutive_isometries

    def counted(S):
        builds.append(S)
        return real(S)

    monkeypatch.setattr(counterpoint, "_involutive_isometries", counted)
    code, out, err = run(
        capsys, "counterpoint", "search", "--maximal", "-p", "5", "-q", "3", *extra
    )
    assert (code, err) == (0, "")
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("-p", "23", "-q", "2"), "error: extend on Z_46 would enumerate over 4194304 subsets\n"),
        (
            ("-p", "64", "-q", "63", "--maximal"),
            "error: 1x+2016 (mod 4032) would give 2^2011 maximal sets, over 4194304\n",
        ),
    ],
)
def test_counterpoint_refuses_a_search_past_the_subset_bound_at_once(argv, message):
    # Without the bound the first lists 10,485,760 halves of Z_46 and the
    # second 2^2011 sets; a subprocess with a timeout keeps either from
    # running on.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "cayleytones.cli", "counterpoint", "search", *argv],
        capture_output=True, text=True, env=env, check=False, timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def test_counterpoint_refine_json(capsys):
    code, out, err = run(capsys, "counterpoint", "search", "--refine", "-p", "4", "-q", "3")
    assert code == 0
    assert json.loads(out) == {
        "n": 12,
        "K": [0, 3, 4, 7, 8, 9],
        "D": [1, 2, 5, 6, 10, 11],
    }


def test_counterpoint_output_is_deterministic(capsys):
    first = run(capsys, "counterpoint", "search", "-p", "4", "-q", "3")
    second = run(capsys, "counterpoint", "search", "-p", "4", "-q", "3")
    assert first == second


@pytest.mark.parametrize("mode", [(), ("--weak",)])
def test_counterpoint_output_does_not_depend_on_a_terminal(capsys, monkeypatch, mode):
    # On a terminal, too, a search prints its --json bytes, and only
    # --pretty asks for the table.
    argv = ("counterpoint", "search", "-p", "4", "-q", "3", *mode)
    as_json, table = run(capsys, *argv, "--json"), run(capsys, *argv, "--pretty")
    assert as_json[0] == table[0] == 0 and as_json[1] != table[1]
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    assert sys.stdout.isatty()
    assert run(capsys, *argv) == as_json
    assert run(capsys, *argv, "--pretty") == table


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _shown_output(command):
    """What README.md shows command printing: its comment, from the last
    ": " on, or the comment line under it."""
    lines = README.splitlines()
    [i] = [i for i, line in enumerate(lines) if line.split("#")[0].strip() == command]
    if "#" in lines[i]:
        return lines[i].split("#", 1)[1].rsplit(": ", 1)[1]
    return lines[i + 1].removeprefix("# ")


@pytest.mark.parametrize(
    "command",
    [
        "cayleytones validate -p 4 -q 3",
        "cayleytones circle -p 5 -q 2",
        "cayleytones distance -p 4 -q 3 0 7",
        "cayleytones distance -p 4 -q 3 0 5 --oriented",
        "cayleytones scale -p 4 -q 3 --quality major",
        "cayleytones counterpoint search -p 23 -q 2",
        "cayleytones render --plan plan.json --out out.wav",
    ],
)
def test_readme_examples_print_what_the_readme_shows(
    capsys, tmp_path, monkeypatch, command
):
    # The render example reads the plan printed under "Plan format".
    plan = README.split("Plan format:\n\n```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "plan.json").write_text(plan)
    monkeypatch.chdir(tmp_path)
    shown = _shown_output(command) + "\n"
    expected = (2, "", shown) if shown.startswith("error: ") else (0, shown, "")
    assert run(capsys, *command.split()[1:]) == expected


def test_render_plan(capsys, tmp_path):
    plan = {
        "system": {"p": 4, "q": 3},
        "events": [{"kind": "note", "duration": 0.5, "notes": [0]}],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / "tone.wav"
    code, out, err = run(
        capsys, "render", "--plan", str(plan_path), "--out", str(out_path)
    )
    assert code == 0
    assert out == f"wrote {out_path}: 22050 samples at 44100 Hz\n"
    assert out_path.stat().st_size == 44 + 2 * 22050


def test_render_missing_plan_file(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "render", "--plan", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "x.wav"),
    )
    assert code == 2
    assert err.startswith("error:")


def test_render_plan_missing_field(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"system": {"p": 4, "q": 3}}))
    code, out, err = run(
        capsys,
        "render", "--plan", str(plan_path), "--out", str(tmp_path / "x.wav"),
    )
    assert code == 2
    assert "missing field" in err


def test_intervals_table(capsys):
    code, out, err = run(capsys, "intervals")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert "3/2" in out


def test_intervals_json(capsys):
    code, out, err = run(capsys, "intervals", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    assert rows[7]["pythagorean"] == "3/2"


@pytest.mark.parametrize(
    "argv, digest",
    [
        # 244 partitions
        (
            ("-p", "5", "-q", "4", "--extend"),
            "3595e5c93a0c65acae894cc70a1ba74611a6dc45e7a5aa36fe9d7fb6219e640a",
        ),
        (
            ("-p", "5", "-q", "3", "--maximal"),
            "fe6fa38d6684305a62b9a2e15a60ea8c9d895f76a8da146535bc112b2481e6a7",
        ),
        (
            ("-p", "7", "-q", "4", "--weak"),
            "5792c41218ac6b003239cf2e929a1157866b5496ec4fa6eaea563469f2695ced",
        ),
        (
            ("-p", "4", "-q", "3", "--strong"),
            "1a93f12d58d6a755226cd8eb550d5411c4413be9626d5b03897433878ed0605c",
        ),
        # The default mode, extend, on the ten even systems n = 10..30.
        (("-p", "5", "-q", "2"), "19d8b9aeea7d3323deb355ea88d1f3a1ebc8729a4bf9db6af148006c2901457f"),
        (("-p", "4", "-q", "3"), "1003dcbad5b77e807a144d5efe073ff6bba7e6c20835f9d891c26389ec5ef4bc"),
        (("-p", "7", "-q", "2"), "f0982a3a00edef9a7c55bdb3cf729778e7db37bcec654ac0147cccb987896dbb"),
        (("-p", "9", "-q", "2"), "eb0a576be2dc37e5b2753ca0d7ceb4b2d2399348d7c5d8e87cc9c971e90d8d18"),
        (("-p", "5", "-q", "4"), "3595e5c93a0c65acae894cc70a1ba74611a6dc45e7a5aa36fe9d7fb6219e640a"),
        (("-p", "11", "-q", "2"), "d470717bc2e197769dad39c4270c2e819828efa0f0cfe00f92411f185aa16864"),
        (("-p", "8", "-q", "3"), "714dbcc9f68399872e7c8653ce0d9645f0753e267cc2cf4b200615ddf77a9550"),
        (("-p", "13", "-q", "2"), "5b1d336eecf12461756d312505567ffdd0ae07315ce3477eff9d9f422f22a435"),
        # 7,072 partitions
        (("-p", "7", "-q", "4"), "56354defeda22967ea8c9c98f31e9e82b96b6405a47e0ed624573fb681a89f46"),
        # 15,520 partitions
        (("-p", "6", "-q", "5"), "6401d794e8e76de907fac9a67a45a299f3f9aee657511071f40eec46d08067f2"),
        # The other two even systems with n = 30, which the benchmark leaves out.
        (("-p", "15", "-q", "2"), "d427ad602b8d4208e1a211b8e7ae0676f9b0c43d2f1e7020bbcb922df436aaa4"),
        (("-p", "10", "-q", "3"), "7ead9273266a9198274dcfc3c6b9c23b9d99ff9f2bfd3e6cf4b5bff216dad1aa"),
        # --maximal on the six even systems n = 24..30, where halves carry
        # strong-witness counts (every count is 0 on Z_15 above).
        (
            ("-p", "8", "-q", "3", "--maximal"),
            "488a0cdb908af11e717e4a8121efb7a7dbc925c0e9bb975c3b00f57249e6de07",
        ),
        (
            ("-p", "13", "-q", "2", "--maximal"),
            "f8db3bdeebda270dd51e139d1134fd5fd20810bc6601e3948bfdbb27bddbd6f8",
        ),
        (
            ("-p", "7", "-q", "4", "--maximal"),
            "d1753f7e713e5ace989a21d1075e80ea6ccd83a7d50577c9c8c2133c2e894552",
        ),
        (
            ("-p", "15", "-q", "2", "--maximal"),
            "d5f91a37602253f64995f2aeeac801972c9602785ae6e090c99e670a59441008",
        ),
        (
            ("-p", "10", "-q", "3", "--maximal"),
            "53ec13bf5d07adb644f350070a2b9307c47d482262cca92956b99610e6d2e134",
        ),
        (
            ("-p", "6", "-q", "5", "--maximal"),
            "e8eef4ddf5391b044ea4dbf121388b3cec8d8de9208cde6ca24b2936188e288a",
        ),
    ],
)
def test_counterpoint_json_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, "counterpoint", "search", *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


P74 = ("-p", "7", "-q", "4")
PRETTY_JSON = ("--json", "--pretty")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("validate", *P74), "1cf530154e9bbac7d9fa6ec9e61681ad5dda30cf0798995738dac67873d50dd8"),
        (
            ("validate", *P74, *PRETTY_JSON),
            "755d1db6128b6417eead8ecaed218401758a909e2fe42decb799f569ee7f96fb",
        ),
        (
            ("distance", *P74, "0", "5"),
            "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
        ),
        (
            ("distance", *P74, "0", "5", *PRETTY_JSON),
            "aa234f9d6ead0b569736561e85ad228b00dcc5c4335b23b4be98ecb36e88a61f",
        ),
        (
            ("distance", *P74, "0", "5", "--oriented"),
            "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
        ),
        (
            ("distance", *P74, "0", "5", "--oriented", *PRETTY_JSON),
            "2692667758ba2f238fad22ddcc240a0ffb2117f75e1486eff7bdf3fcc2a89ad4",
        ),
        (("chords", *P74), "818c0343f5d425c57453611938543bddff22a37c0b935f4ce67b1fc3ca1d51f9"),
        (
            ("chords", *P74, *PRETTY_JSON),
            "c27e91710cad6ae3df293bc4f9f1e22538d981f75572b33473784bc7f3e6ba5e",
        ),
        (
            ("chords", *P74, "--quality", "minor", "--root", "2"),
            "d9ddf6f1660af8b91773b7d2170d48676605614d5cb764e8f655843ec62bd2d3",
        ),
        (
            ("chords", *P74, "--quality", "minor", "--root", "2", *PRETTY_JSON),
            "c85378a39e4d8235cbf65c35ef1d8681a3503eec2091e2802bb6192515aafc72",
        ),
        (
            ("scale", *P74, "--quality", "major"),
            "2ee007a32883f2b9922010e310d4b9b5b8ecb0467b03c2dd547b5e8236edc8a1",
        ),
        (
            ("scale", *P74, "--quality", "major", *PRETTY_JSON),
            "7c09ee315632d39fb845fed2b58ab07e3f77f5a36bc7ced526f762269d537f30",
        ),
        (("circle", *P74), "037a850f00974aa60354506ba69b53fed0531cfc8364741af1bf3e40ea0f5b00"),
        (
            ("circle", *P74, *PRETTY_JSON),
            "c1653b43ac5c0c595e3e360ed3e0f2bbee002ebb7c90f21ed3178d80993e5fbc",
        ),
        (("intervals",), "1406e2a7de46290250a0d4c94cc80bbea84e5b4d5ebb6903858e78e789206417"),
        (
            ("intervals", *PRETTY_JSON),
            "11a735c7eea56f4b0d184e35a844e8e87ede0ba5c46c91625ed3f0cc47c69c04",
        ),
        # --pretty without --json prints the report table
        (
            ("counterpoint", "search", "--weak", "-p", "4", "-q", "3", "--pretty"),
            "5b3405073708b43d7ae03b8f154b2292fb7ae74aed900ef57d24992270ca0e9e",
        ),
        (
            ("counterpoint", "search", "--refine", "-p", "4", "-q", "3", "--pretty"),
            "0d81958ca200691b38f5ac6658e3874bb8713139ba53c1fe5207d56e5c2edfec",
        ),
    ],
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The most frames a WAV file holds: its 32-bit RIFF size counts 36 header
# bytes and 2 bytes a frame.
WAV_MAX_FRAMES = 2_147_483_629


def _note_plan(**overrides):
    plan = {
        "system": {"p": 4, "q": 3},
        "events": [{"kind": "note", "duration": 0.1, "notes": [0]}],
    }
    plan.update(overrides)
    return plan


def _rests_plan(*frame_counts):
    return _note_plan(
        events=[{"kind": "rest", "duration": k / audio.SAMPLE_RATE} for k in frame_counts]
    )


@pytest.mark.parametrize(
    "plan_text",
    [
        # malformed shapes
        "[1, 2]",
        json.dumps(_note_plan(events=5)),
        json.dumps(_note_plan(events=[5])),
        json.dumps(_note_plan(system=[4, 3])),
        json.dumps(_note_plan(envelope=[0.1])),
        json.dumps(_note_plan(events=[{"kind": "note", "duration": 0.1, "notes": 0}])),
        '{"system": {"p": 4, "q": 3}, '
        '"events": [{"kind": "note", "duration": "inf", "notes": [0]}]}',
        # nested past the depth the JSON decoder recurses to
        "[" * 200_000,
        # non-finite values
        '{"system": {"p": 4, "q": 3, "f0": 1e309}, '
        '"events": [{"kind": "note", "duration": 0.1, "notes": [0]}]}',
        json.dumps(_note_plan(system={"p": 4, "q": 3, "s": "inf"})),
        json.dumps(_note_plan(modulation_depth="nan")),
        json.dumps(_note_plan(envelope={"attack": "nan"})),
        json.dumps(
            _note_plan(events=[{"kind": "note", "duration": 0.1,
                                "notes": [{"note": 0, "octave": 100000}]}])
        ),
        # null numbers, and integer fields that are not JSON integers
        json.dumps(_note_plan(events=[{"kind": "note", "duration": None, "notes": [0]}])),
        json.dumps(
            _note_plan(events=[{"kind": "note", "duration": 0.1,
                                "notes": [{"note": 0, "octave": None}]}])
        ),
        json.dumps(_note_plan(system={"p": None, "q": 3})),
        json.dumps(_note_plan(envelope={"attack": None})),
        json.dumps(_note_plan(modulation_depth=None)),
        json.dumps(_note_plan(events=[{"kind": "note", "duration": 0.1, "notes": [[0]]}])),
        json.dumps(_note_plan(events=[{"kind": "note", "duration": 0.1, "notes": [1.7]}])),
        json.dumps(_note_plan(system={"p": 4.9, "q": 3})),
        # booleans, strings and out-of-range integers where a real is expected
        json.dumps(_note_plan(events=[{"kind": "note", "duration": True, "notes": [0]}])),
        json.dumps(_note_plan(events=[{"kind": "note", "duration": "0.5", "notes": [0]}])),
        json.dumps(_note_plan(modulation_depth=True)),
        json.dumps(_note_plan(system={"p": 4, "q": 3, "f0": "440"})),
        json.dumps(_note_plan(envelope={"attack": False})),
        json.dumps(_note_plan(system={"p": 4, "q": 3, "f0": 10**400})),
        # an event under one sample, and a note above the Nyquist frequency
        json.dumps(_note_plan(events=[{"kind": "note", "duration": 1e-5, "notes": [0]}])),
        json.dumps(_note_plan(system={"p": 4, "q": 3, "f0": 30000})),
        # one sample past what a WAV file holds, refused before any audio
        json.dumps(_rests_plan(WAV_MAX_FRAMES, 1)),
        # a plan with no events, and chords with no notes
        json.dumps(_note_plan(events=[])),
        json.dumps(_note_plan(events=[{"kind": "chord", "duration": 0.1, "notes": []}])),
        json.dumps(_note_plan(events=[{"kind": "chord", "duration": 0.1}])),
    ],
)
def test_render_rejects_malformed_or_non_finite_plans(capsys, tmp_path, plan_text):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan_text)
    out_path = tmp_path / "x.wav"
    code, out, err = run(
        capsys, "render", "--plan", str(plan_path), "--out", str(out_path)
    )
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("flag, value", [("-s", "inf"), ("-s", "nan"), ("--f0", "inf")])
def test_validate_rejects_non_finite_system(capsys, flag, value):
    code, out, err = run(capsys, "validate", "-p", "4", "-q", "3", flag, value)
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["circle"], ["scale", "--quality", "major"], ["chords"], ["validate"]]
)
def test_system_past_the_modulus_bound_is_refused(capsys, argv):
    # n = 1009 * 997 = 1,005,973; circle and scale are linear in n.
    code, out, err = run(capsys, argv[0], "-p", "1009", "-q", "997", *argv[1:])
    assert (code, out, err) == (2, "", "error: modulus above supported maximum 4096\n")


@pytest.mark.parametrize(
    "plan, message",
    [
        (dict(_note_plan(), modulation_dept=0.5), "'modulation_dept' in a render plan"),
        (_note_plan(system={"p": 4, "q": 3, "f_0": 100}), "'f_0' in system"),
        (
            _note_plan(events=[{"kind": "note", "duration": 0.3, "notes": [0], "octave": 1}]),
            "'octave' in an event",
        ),
        (
            _note_plan(events=[{"kind": "note", "duration": 0.3,
                                "notes": [{"note": 0, "octava": 1}]}]),
            "'octava' in a note",
        ),
        (
            _note_plan(envelope={"attack": 0.02, "sustian_level": 0.1}),
            "'sustian_level' in envelope",
        ),
    ],
    ids=["plan", "system", "event", "note", "envelope"],
)
def test_render_refuses_a_key_the_plan_format_does_not_have(
    capsys, tmp_path, plan, message
):
    code, out, err, out_path = _render_cli(capsys, tmp_path, plan)
    assert (code, out, err) == (2, "", f"error: unknown key {message}\n")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "plan, message",
    [
        ({"events": _note_plan()["events"]}, "'system' in a render plan"),
        ({"system": {"p": 4, "q": 3}}, "'events' in a render plan"),
        (_note_plan(system={"q": 3}), "'p' in system"),
        (_note_plan(system={"p": 4}), "'q' in system"),
        (_note_plan(events=[{"duration": 0.3, "notes": [0]}]), "'kind' in an event"),
        (_note_plan(events=[{"kind": "note", "notes": [0]}]), "'duration' in an event"),
        (
            _note_plan(events=[{"kind": "note", "duration": 0.3, "notes": [{"octave": 1}]}]),
            "'note' in a note",
        ),
    ],
    ids=["plan-system", "plan-events", "system-p", "system-q", "event-kind",
         "event-duration", "note"],
)
def test_render_names_a_missing_field_and_its_object(capsys, tmp_path, plan, message):
    code, out, err, out_path = _render_cli(capsys, tmp_path, plan)
    assert (code, out, err) == (2, "", f"error: missing field {message}\n")
    assert not out_path.exists()


def test_a_key_error_made_while_rendering_is_an_internal_error(
    capsys, tmp_path, monkeypatch
):
    # Only the plan's own checks speak of missing fields: a KeyError from
    # the renderer is a fault of the program, not of its input.
    def failing(out, t, frequencies, depth):
        raise KeyError(frequencies[0])

    monkeypatch.setattr(audio, "_voices", failing)
    code, out, err, out_path = _render_cli(capsys, tmp_path, _note_plan())
    assert (code, out, err) == (1, "", "internal error: 440.0\n")
    assert not out_path.exists()


def test_render_into_missing_directory_is_one_line(tmp_path):
    # A subprocess, because the stray traceback this guards against came
    # from a destructor, past what capsys captures.
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(_note_plan()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [
            sys.executable, "-m", "cayleytones.cli", "render",
            "--plan", str(plan_path), "--out", str(tmp_path / "no" / "x.wav"),
        ],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "plan, message",
    [
        (
            {"system": {"p": 100003, "q": 99991},
             "events": [{"kind": "note", "duration": 0.1, "notes": [9999399972]}]},
            "error: modulus above supported maximum 4096\n",
        ),
        (
            _note_plan(events=[{"kind": "note", "duration": 0.1,
                                "notes": [{"note": 0, "octave": 10**12}]}]),
            "error: octave 1000000000000 outside [-4096, 4096]\n",
        ),
        (
            _note_plan(events=[{"kind": "note", "duration": 0.1,
                                "notes": [{"note": 0, "octave": -4097}]}]),
            "error: octave -4097 outside [-4096, 4096]\n",
        ),
    ],
)
def test_render_refuses_a_note_ladder_past_the_bound_at_once(tmp_path, plan, message):
    # note_frequency takes one step per index and per octave; without the
    # bound the first plan would loop about 10**10 times, the second 10**12.
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / "x.wav"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [
            sys.executable, "-m", "cayleytones.cli", "render",
            "--plan", str(plan_path), "--out", str(out_path),
        ],
        capture_output=True, text=True, env=env, check=False, timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
    assert not out_path.exists()


def test_render_takes_a_subnormal_release(tmp_path):
    # A subprocess, so that a numpy warning would show on stderr. Past the
    # short note's end, an unclipped release divides by 1e-310 and overflows.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    wavs = []
    for release in (1e-310, 0.0):
        plan = {
            "system": {"p": 4, "q": 3},
            "events": [
                {"kind": "chord", "duration": 0.3, "notes": [0, 4, 7]},
                {"kind": "note", "duration": 0.1, "notes": [3]},
            ],
            "envelope": {"release": release},
        }
        plan_path, out_path = tmp_path / "plan.json", tmp_path / f"{release}.wav"
        plan_path.write_text(json.dumps(plan))
        proc = subprocess.run(
            [
                sys.executable, "-m", "cayleytones.cli", "render",
                "--plan", str(plan_path), "--out", str(out_path),
            ],
            capture_output=True, text=True, env=env, check=False, timeout=20,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        wavs.append(out_path.read_bytes())
    assert wavs[0] == wavs[1]


def test_render_plan_up_to_the_wav_size_limit_builds():
    plan = RenderPlan.from_dict(_rests_plan(WAV_MAX_FRAMES))
    assert round(audio.SAMPLE_RATE * plan.events[0].duration) == WAV_MAX_FRAMES


# Notes, chords of three and four voices, a rest, an envelope and FM.
STREAM_PLAN = {
    "system": {"p": 4, "q": 3},
    "events": [
        {"kind": "note", "duration": 0.25, "notes": [0]},
        {"kind": "chord", "duration": 0.5, "notes": [0, 4, {"note": 7, "octave": 1}]},
        {"kind": "rest", "duration": 0.125},
        {"kind": "chord", "duration": 0.375,
         "notes": [2, 5, 9, {"note": 0, "octave": -1}]},
        {"kind": "note", "duration": 0.2, "notes": [{"note": 11, "octave": 1}]},
    ],
    "envelope": {"attack": 0.01, "decay": 0.05, "sustain_level": 0.7, "release": 0.05},
    "modulation_depth": 0.001,
}


def _render_cli(capsys, tmp_path, plan, name="out.wav"):
    plan_path = tmp_path / f"{name}.json"
    plan_path.write_text(json.dumps(plan))
    out_path = tmp_path / name
    code, out, err = run(
        capsys, "render", "--plan", str(plan_path), "--out", str(out_path), "--json"
    )
    return code, out, err, out_path


def test_render_streams_the_bytes_of_the_in_memory_path(capsys, tmp_path):
    code, out, err, out_path = _render_cli(capsys, tmp_path, STREAM_PLAN)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"out": str(out_path), "samples": 63945, "sample_rate": 44100}
    buffer = render(RenderPlan.from_dict(STREAM_PLAN))
    reference = tmp_path / "reference.wav"
    write_wav(buffer, reference)
    data = out_path.read_bytes()
    assert data == reference.read_bytes()
    # Recorded before rendering was streamed.
    assert hashlib.sha256(data).hexdigest() == (
        "e82051fb90005fc66c06152d0da095b80f1a5eb5136dbf448ee99bdb3862beaf"
    )


def test_a_note_past_the_float_range_is_silent_below_and_refused_above(capsys, tmp_path):
    """440 Hz / 2**4096 rounds to 0.0 Hz and renders the bytes of a rest;
    440 Hz * 2**1100 rounds to inf Hz, which the Nyquist check names."""
    note = {"kind": "note", "duration": 0.2, "notes": [{"note": 0, "octave": -4096}]}
    code, out, err, low = _render_cli(capsys, tmp_path, _note_plan(events=[note]), "low.wav")
    assert (code, err) == (0, "")
    rest = _note_plan(events=[{"kind": "rest", "duration": 0.2}])
    code, out, err, silent = _render_cli(capsys, tmp_path, rest, "rest.wav")
    assert (code, err) == (0, "")
    assert low.read_bytes() == silent.read_bytes()
    note["notes"][0]["octave"] = 1100
    code, out, err, high = _render_cli(capsys, tmp_path, _note_plan(events=[note]), "high.wav")
    assert (code, out) == (2, "")
    assert err == (
        "error: note 0 at octave 1100 sounds at inf Hz, "
        "not below the Nyquist frequency 22050.0 Hz\n"
    )
    assert not high.exists()


# Run with -E, so the child imports the package from src and nothing else.
NUMPY_FREE_START = """
import contextlib, hashlib, io, sys
sys.path.insert(0, sys.argv[1])
import cayleytones
from cayleytones import cli
Z12 = ["-p", "4", "-q", "3"]
calls = [
    ["validate", *Z12],
    ["distance", *Z12, "0", "5"],
    ["circle", *Z12],
    ["scale", *Z12, "--quality", "major"],
    ["chords", *Z12],
    ["intervals"],
    ["graph", *Z12],
] + [
    ["counterpoint", "search", *Z12, *mode]
    for mode in ([], ["--weak"], ["--strong"], ["--extend"], ["--maximal"], ["--refine"])
]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
plan, out = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["render", "--plan", plan, "--out", out]) == 0
assert "numpy" in sys.modules
with open(out, "rb") as handle:
    print(hashlib.sha256(handle.read()).hexdigest())
"""


def test_only_render_imports_numpy(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(STREAM_PLAN))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-E", "-c", NUMPY_FREE_START, src, plan_path, tmp_path / "out.wav"],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "e82051fb90005fc66c06152d0da095b80f1a5eb5136dbf448ee99bdb3862beaf\n"
    )


LEAN_START = """
import contextlib, hashlib, io, sys
sys.path.insert(0, sys.argv[1])
LATE = {"dataclasses", "inspect", "fractions", "decimal", "wave", "numpy"}
before = set(sys.modules)
from cayleytones import cli
Z12 = ["-p", "4", "-q", "3"]
calls = [
    ["--help"],
    ["validate", *Z12],
    ["distance", *Z12, "0", "5"],
    ["circle", *Z12],
    ["scale", *Z12, "--quality", "major"],
    ["chords", *Z12],
    ["graph", *Z12],
] + [
    ["counterpoint", "search", *Z12, *mode]
    for mode in ([], ["--weak"], ["--strong"], ["--extend"], ["--maximal"], ["--refine"])
]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not LATE & (set(sys.modules) - before), (argv, sorted(LATE & set(sys.modules)))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["intervals"]) == 0
print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_start_up_imports_only_what_the_call_needs():
    # dataclasses (with inspect), fractions (with decimal), wave and numpy
    # each cost start-up time, and only intervals or render need any of them.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-E", "-c", LEAN_START, src],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "1406e2a7de46290250a0d4c94cc80bbea84e5b4d5ebb6903858e78e789206417\n"
    )


JSON_FREE_START = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from cayleytones import cli
Z12 = ["-p", "4", "-q", "3"]
calls = [
    ["--help"],
    ["validate", *Z12],
    ["distance", *Z12, "0", "5"],
    ["circle", *Z12],
    ["scale", *Z12, "--quality", "major"],
    ["chords", *Z12],
    ["graph", *Z12],
    ["intervals"],
] + [
    ["counterpoint", "search", *Z12, mode, "--pretty"]
    for mode in ("--weak", "--strong", "--extend", "--maximal", "--refine")
]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "json" not in set(sys.modules) - before, argv
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["validate", *Z12, "--json"]) == 0
assert "json" in sys.modules
import json
assert out.getvalue() == json.dumps({"n": 12, "p": 4, "q": 3, "s": 2.0, "f0": 440.0}) + "\\n"
"""


def test_calls_that_print_text_start_without_json():
    # json costs start-up time, and only JSON output and render's plan need it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-E", "-c", JSON_FREE_START, src],
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_render_peak_memory_does_not_grow_with_plan_length(capsys, tmp_path):
    # tracemalloc sees numpy's buffers, and only this process's allocations.
    longer = dict(STREAM_PLAN, events=STREAM_PLAN["events"] * 4)
    peaks = []
    for name, plan in (("once.wav", STREAM_PLAN), ("four.wav", longer)):
        tracemalloc.start()
        try:
            code, *_ = _render_cli(capsys, tmp_path, plan, name)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 1.25 * peaks[0]


def _chord_plan(duration):
    """One chord of eight voices, with STREAM_PLAN's envelope and FM."""
    notes = [0, 2, 4, 5, 7, 9, 11, {"note": 0, "octave": 1}]
    return dict(STREAM_PLAN, events=[{"kind": "chord", "duration": duration, "notes": notes}])


def _peaks(capsys, tmp_path, plans):
    """The tracemalloc peak of rendering each plan through the CLI."""
    peaks = []
    for i, plan in enumerate(plans):
        tracemalloc.start()
        try:
            code, *_ = _render_cli(capsys, tmp_path, plan, f"{i}.wav")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    return peaks


def test_render_peak_memory_does_not_grow_with_event_length(capsys, tmp_path):
    short, long = _peaks(capsys, tmp_path, [_chord_plan(8.0), _chord_plan(60.0)])
    assert long <= 1.25 * short


# Render threads hold memory whether or not a plan has a batch for each,
# so a short plan must not hold less for having fewer batches than threads.
@pytest.mark.parametrize("threads", [1, 4, 16])
@pytest.mark.parametrize(
    "plans",
    [
        [STREAM_PLAN, dict(STREAM_PLAN, events=STREAM_PLAN["events"] * 4)],
        [_chord_plan(8.0), _chord_plan(60.0)],
    ],
    ids=["plan-length", "event-length"],
)
def test_render_peak_memory_bounds_hold_whatever_the_thread_count(
    capsys, tmp_path, monkeypatch, plans, threads
):
    monkeypatch.setattr(audio, "_thread_count", lambda: threads)
    short, long = _peaks(capsys, tmp_path, plans)
    assert long <= 1.25 * short


# A chord of three blocks and a note of two, between a note and a rest.
MULTI_BLOCK_PLAN = dict(
    STREAM_PLAN,
    events=[
        {"kind": "note", "duration": 0.3, "notes": [2]},
        {"kind": "chord", "duration": 2.0, "notes": [0, 4, 7, {"note": 11, "octave": -1}]},
        {"kind": "rest", "duration": 0.1},
        {"kind": "note", "duration": 0.9, "notes": [{"note": 9, "octave": 1}]},
    ],
)


def _whole_event_samples(plan):
    """The plan's samples made on this thread, each event in one piece."""
    plan = RenderPlan.from_dict(plan)
    pieces = [
        audio._event_samples(
            event.duration,
            [audio.note_frequency(plan.system, *note) for note in event.notes],
            plan.envelope,
            plan.modulation_depth,
        )
        for event in plan.events
    ]
    return np.concatenate(pieces)


def _whole_event_wav(plan, path):
    """The plan's WAV made on this thread, each event in one piece."""
    write_wav(audio.SampleBuffer(_whole_event_samples(plan)), path)
    return path.read_bytes()


@pytest.mark.parametrize("threads", [1, 4, 16])
@pytest.mark.parametrize("plan", [STREAM_PLAN, MULTI_BLOCK_PLAN], ids=["stream", "multi-block"])
def test_render_bytes_do_not_depend_on_the_thread_count(
    capsys, tmp_path, monkeypatch, plan, threads
):
    assert round(2.0 * audio.SAMPLE_RATE) > 2 * audio.BLOCK
    monkeypatch.setattr(audio, "_thread_count", lambda: threads)
    # Switching threads as often as possible exposes a block read before
    # it is made or a work array shared by two blocks.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        code, out, err, out_path = _render_cli(capsys, tmp_path, plan)
    finally:
        sys.setswitchinterval(interval)
    assert (code, err) == (0, "")
    data = out_path.read_bytes()
    assert data == _whole_event_wav(plan, tmp_path / "serial.wav")
    if plan is STREAM_PLAN:
        assert hashlib.sha256(data).hexdigest() == (
            "e82051fb90005fc66c06152d0da095b80f1a5eb5136dbf448ee99bdb3862beaf"
        )


# Envelopes a seeded plan cycles through: none, a constant gain, no
# release, and all four segments; with the shortest sounding event each
# allows, in samples.
RANDOM_PLAN_ENVELOPES = [
    (None, 1),
    ({"attack": 0.0, "decay": 0.0, "sustain_level": 0.6, "release": 0.0}, 1),
    ({"attack": 0.002, "decay": 0.003, "sustain_level": 0.5, "release": 0.0}, 222),
    ({"attack": 0.01, "decay": 0.02, "sustain_level": 0.7, "release": 0.03}, 2647),
]


def _random_plan(seed):
    """A seeded plan whose notes and chords share five pitches, between
    rests; chords of two to eight voices, with a pitch twice, an octave pair
    or both; events last one or two samples, under two blocks or four to ten
    blocks."""
    rng = random.Random(seed)
    p, q = rng.choice([(4, 3), (5, 2), (7, 4)])
    pitches = [(rng.randrange(p * q), rng.choice((-1, 0, 1))) for _ in range(5)]
    envelope, shortest = RANDOM_PLAN_ENVELOPES[seed % len(RANDOM_PLAN_ENVELOPES)]
    events = []
    for _ in range(rng.randrange(10, 16)):
        kind = rng.choice(["note", "chord", "chord", "rest"])
        count = rng.choice([
            1, 2, rng.randrange(3, 2 * audio.BLOCK), rng.randrange(4, 10) * audio.BLOCK + 7
        ])
        if kind != "rest":
            count = max(count, shortest)
        pitch, *others = rng.sample(pitches, 3)
        octave = (pitch[0], pitch[1] + 1)
        chords = [
            [pitch, pitch],
            [pitch, octave],
            [pitch, *others, pitch, octave],
            rng.choices(pitches, k=rng.randrange(2, 9)),
        ]
        notes = {"note": [pitch], "chord": rng.choice(chords), "rest": []}[kind]
        events.append({
            "kind": kind,
            "duration": count / audio.SAMPLE_RATE,
            "notes": [{"note": k, "octave": o} for k, o in notes],
        })
    return {
        "system": {"p": p, "q": q},
        "events": events,
        "envelope": envelope,
        "modulation_depth": 0.0 if seed % 3 == 0 else 0.002,
    }


def _spread_plan(pitches):
    """Two hundred 0.05 s notes, then a 0.1 s chord, over the pitches of
    Z_40 given as (note, octave): with all 40 residues at octaves -3..3,
    every step sounds 280 frequencies, so a table of 40 rows of 256
    samples narrows the steps to 36."""
    notes = [{"note": k, "octave": o} for k, o in pitches]
    events = [{"kind": "note", "duration": 0.05, "notes": [notes[i % len(notes)]]} for i in range(200)]
    events.append({"kind": "chord", "duration": 0.1, "notes": notes})
    envelope = {"attack": 0.005, "decay": 0.01, "sustain_level": 0.7, "release": 0.02}
    return dict(STREAM_PLAN, system={"p": 8, "q": 5}, events=events, envelope=envelope)


SPREAD_PLAN = _spread_plan([(k, o) for o in range(-3, 4) for k in range(40)])

# A 24-sample chord of all 40 residues of Z_40 between notes and a rest,
# with every envelope segment under five samples.
SHORT_WIDE_CHORD_PLAN = dict(
    STREAM_PLAN,
    system={"p": 8, "q": 5},
    events=[
        {"kind": "note", "duration": 100 / audio.SAMPLE_RATE, "notes": [3]},
        {"kind": "chord", "duration": 24 / audio.SAMPLE_RATE, "notes": list(range(40))},
        {"kind": "rest", "duration": 5 / audio.SAMPLE_RATE},
        {"kind": "note", "duration": 60 / audio.SAMPLE_RATE,
         "notes": [{"note": 3, "octave": 1}]},
    ],
    envelope={"attack": 0.0001, "decay": 0.0001, "sustain_level": 0.6, "release": 0.0001},
)

# A chord of 100 of the pitches of Z_40 at octaves -1..1, two blocks and
# five samples long, that shares none with the notes around it: in a table
# of 2 rows, an event alone that sounds more frequencies than it has rows.
LONE_WIDE_CHORD_PLAN = dict(
    STREAM_PLAN,
    system={"p": 8, "q": 5},
    events=[
        {"kind": "note", "duration": 0.01, "notes": [{"note": 3, "octave": 2}]},
        {"kind": "chord", "duration": (2 * audio.BLOCK + 5) / audio.SAMPLE_RATE,
         "notes": [{"note": k % 40, "octave": k // 40 - 1} for k in range(100)]},
        {"kind": "rest", "duration": 0.001},
        {"kind": "note", "duration": 0.02, "notes": [{"note": 3, "octave": 2}]},
    ],
    envelope={"attack": 0.001, "decay": 0.002, "sustain_level": 0.7, "release": 0.002},
)

# A 0.05 s chord of 2,100 pitches of Z_4095 at octave -1 between two
# notes that share one of them: its steps sound more frequencies than the
# module's table has rows, so they narrow.
NARROW_PITCHES = [{"note": k, "octave": -1} for k in range(2100)]
NARROW_PLAN = dict(
    STREAM_PLAN,
    system={"p": 65, "q": 63},
    events=[
        {"kind": "note", "duration": 0.1, "notes": [NARROW_PITCHES[7]]},
        {"kind": "chord", "duration": 0.05, "notes": NARROW_PITCHES},
        {"kind": "note", "duration": 0.04, "notes": [NARROW_PITCHES[7]]},
    ],
    envelope={"attack": 0.005, "decay": 0.01, "sustain_level": 0.7, "release": 0.02},
)

# (plan, (ROWS, BLOCK) or None for the module's): tables small enough that
# steps narrow, down to one sample for the short chord, whose 40 frequencies
# with the note that shares one outnumber the table's 16 samples.
RENDER_CASES = (
    [(_random_plan(seed), None) for seed in range(8)]
    + [(SPREAD_PLAN, None), (LONE_WIDE_CHORD_PLAN, None), (NARROW_PLAN, None)]
    + [(_random_plan(seed), (1, 128)) for seed in range(8)]
    + [(SPREAD_PLAN, (40, 256)), (SHORT_WIDE_CHORD_PLAN, (2, 8))]
    + [(LONE_WIDE_CHORD_PLAN, (2, 8))]
)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize(
    "plan, table",
    RENDER_CASES,
    ids=[f"seed-{seed}" for seed in range(8)] + ["spread", "lone-wide-chord", "narrow"]
    + [f"seed-{seed}-small-table" for seed in range(8)]
    + ["spread-small-table", "short-wide-chord", "lone-wide-chord-small-table"],
)
def test_render_bytes_equal_those_of_each_event_made_alone(
    capsys, tmp_path, monkeypatch, plan, table, threads
):
    assert len(NARROW_PITCHES) > audio.ROWS
    monkeypatch.setattr(audio, "_thread_count", lambda: threads)
    steps, step = [], audio._Mixer.step

    def recorded(self, start, width, events, index):
        steps.append((width, len(index), len(events)))
        step(self, start, width, events, index)

    monkeypatch.setattr(audio._Mixer, "step", recorded)
    rows, block = table or (audio.ROWS, audio.BLOCK)
    monkeypatch.setattr(audio, "ROWS", rows)
    monkeypatch.setattr(audio, "BLOCK", block)
    code, out, err, out_path = _render_cli(capsys, tmp_path, plan)
    assert (code, err) == (0, "")
    assert out_path.read_bytes() == _whole_event_wav(plan, tmp_path / "serial.wav")
    # Bit for bit before quantizing too, where a sum in another order shows.
    samples = render(RenderPlan.from_dict(plan)).samples
    assert samples.tobytes() == _whole_event_samples(plan).tobytes()
    # Only a step one sample wide outgrows the table.
    assert all(
        count * width <= rows * block or width == 1 for width, count, _ in steps
    )
    if plan is LONE_WIDE_CHORD_PLAN and table is not None:
        # An event alone narrows like any other step.
        assert any(
            width < block and count > rows and events == 1
            for width, count, events in steps
        )
    elif table is not None or plan is NARROW_PLAN:
        # Some step of events that share frequencies sounds more of them
        # than the table has rows, and so narrows.
        assert any(
            width < block and count > rows and events > 1
            for width, count, events in steps
        )
    if plan is SHORT_WIDE_CHORD_PLAN:
        assert max(count for _, count, _ in steps) > rows * block


# A chord alone that repeats a pitch, for four blocks and more.
LONE_REPEATED_PITCH_PLAN = dict(
    STREAM_PLAN,
    events=[{"kind": "chord", "duration": 0.2, "notes": [0, 4, 7, 0, {"note": 4, "octave": 1}]}],
)


@pytest.mark.parametrize(
    "plan",
    [SPREAD_PLAN, NARROW_PLAN, LONE_REPEATED_PITCH_PLAN],
    ids=["spread", "narrow", "lone-repeated-pitch"],
)
def test_render_makes_each_sample_of_a_frequency_once(monkeypatch, plan):
    made, voices = [], audio._voices

    def recorded(out, t, frequencies, depth):
        first = round(t[0] * audio.SAMPLE_RATE)
        made.extend((f, first, first + out.shape[1]) for f in frequencies)
        voices(out, t, frequencies, depth)

    monkeypatch.setattr(audio, "_voices", recorded)
    plan = RenderPlan.from_dict(plan)
    render(plan)
    spans = {}
    for f, first, stop in made:
        spans.setdefault(f, []).append((first, stop))
    assert set(spans) == {
        audio.note_frequency(plan.system, *note)
        for event in plan.events
        for note in event.notes
    }
    for ranges in spans.values():
        ranges.sort()
        assert all(stop <= first for (_, stop), (first, _) in zip(ranges, ranges[1:]))


def test_render_climbs_the_note_ladder_once_per_note(capsys, tmp_path, monkeypatch):
    made, ladder = [], audio.note_frequency

    def counted(system, k, octave_shift=0):
        made.append((k, octave_shift))
        return ladder(system, k, octave_shift)

    monkeypatch.setattr(audio, "note_frequency", counted)
    code, out, err, out_path = _render_cli(capsys, tmp_path, MULTI_BLOCK_PLAN)
    assert (code, err) == (0, "")
    assert made == [(2, 0), (0, 0), (4, 0), (7, 0), (11, -1), (9, 1)]


# Rests only, and notes that end in a rest: no render thread writes a rest,
# so these frames hold the zeros the file was given its length with.
RESTS_ONLY_PLAN = _rests_plan(3 * audio.BLOCK + 5, 7)
ENDS_IN_REST_PLAN = dict(
    STREAM_PLAN, events=[*STREAM_PLAN["events"], {"kind": "rest", "duration": 0.1}]
)


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize(
    "plan", [RESTS_ONLY_PLAN, ENDS_IN_REST_PLAN], ids=["rests-only", "ends-in-rest"]
)
def test_render_leaves_each_rest_as_the_zeros_the_file_starts_with(
    capsys, tmp_path, monkeypatch, plan, threads
):
    monkeypatch.setattr(audio, "_thread_count", lambda: threads)
    code, out, err, out_path = _render_cli(capsys, tmp_path, plan)
    assert (code, err) == (0, "")
    frames = RenderPlan.from_dict(plan).frames()
    rest = round(plan["events"][-1]["duration"] * audio.SAMPLE_RATE)
    data = out_path.read_bytes()
    assert json.loads(out)["samples"] == frames
    assert len(data) == 44 + 2 * frames
    assert data[-2 * rest :] == bytes(2 * rest)
    if plan is RESTS_ONLY_PLAN:
        assert data[44:] == bytes(2 * frames)
    assert data == _whole_event_wav(plan, tmp_path / "serial.wav")
    samples = render(RenderPlan.from_dict(plan)).samples
    assert samples.tobytes() == _whole_event_samples(plan).tobytes()


def test_render_peak_memory_does_not_grow_with_distinct_frequencies(capsys, tmp_path):
    few, many = _peaks(
        capsys, tmp_path, [_spread_plan([(0, 0), (7, 0)]), SPREAD_PLAN]
    )
    assert many <= 1.25 * few


def _repeated_pitch_plan():
    """60 s of notes and four-voice chords over the twelve pitches of Z_12
    and their octaves, a pitch twice in each chord, with rests; envelope
    and FM on."""
    events = []
    for i in range(226):
        if i % 12 == 11:
            root = (5 * i) % 12
            notes = [root, (root + 4) % 12, (root + 4) % 12, {"note": root, "octave": 1}]
            events.append({"kind": "chord", "duration": 1.0 + 0.25 * (i % 3), "notes": notes})
        elif i % 17 == 16:
            events.append({"kind": "rest", "duration": 0.3})
        else:
            notes = [{"note": (7 * i) % 12, "octave": i % 2}]
            events.append({"kind": "note", "duration": 0.1 + 0.025 * (i % 5), "notes": notes})
    envelope = {"attack": 0.01, "decay": 0.03, "sustain_level": 0.7, "release": 0.04}
    return dict(STREAM_PLAN, events=events, envelope=envelope)


def test_render_bytes_of_a_minute_of_repeated_pitches_are_pinned(capsys, tmp_path):
    code, out, err, out_path = _render_cli(capsys, tmp_path, _repeated_pitch_plan())
    assert (code, err) == (0, "")
    assert json.loads(out)["samples"] == 2_649_308
    # Recorded when each event was still rendered on its own.
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "e7d2276f20de0e437d1226b3aeaf1952a0547da41f591251bffc0db97730cb8e"
    )


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"events": [{"kind": "note", "duration": 1e305, "notes": [0]}]},
            "error: a 1e+305 s event lasts more than the 2147483629 samples "
            "a WAV file holds\n",
        ),
        (
            {"envelope": {"attack": 1e308, "decay": 1e308}},
            "error: envelope segments must sum to a finite time, got attack "
            "1e+308, decay 1e+308 and release 0.05\n",
        ),
        (
            {"modulation_depth": 1e308},
            "error: note 0 at octave 0 with modulation_depth 1e+308 has a phase "
            "past the float range\n",
        ),
    ],
    ids=["huge-duration", "envelope-overflow", "depth-overflow"],
)
def test_render_refuses_sizes_past_the_float_range(capsys, tmp_path, overrides, message):
    code, out, err, out_path = _render_cli(capsys, tmp_path, _note_plan(**overrides))
    assert (code, out, err) == (2, "", message)
    assert not out_path.exists()


def test_render_refuses_an_out_path_it_cannot_seek(capsys, tmp_path):
    fifo = tmp_path / "out.wav"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(STREAM_PLAN))
    try:
        code, out, err = run(capsys, "render", "--plan", str(plan_path), "--out", str(fifo))
    finally:
        reader.join(timeout=10)
        if reader.is_alive():
            # The FIFO was never opened: open it once so that the reader ends.
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write a WAV file to {fifo}: it is not seekable\n"
    # Refused before any synthesis, so nothing reached the reader.
    assert received == [b""]
    # /dev/null can seek, and takes the WAV file as before.
    code, out, err = run(capsys, "render", "--plan", str(plan_path), "--out", os.devnull)
    assert (code, out, err) == (0, f"wrote {os.devnull}: 63945 samples at 44100 Hz\n", "")


@pytest.mark.parametrize(
    "bad_event",
    [
        {"kind": "note", "duration": 1e-5, "notes": [0]},
        {"kind": "note", "duration": 0.2, "notes": [{"note": 0, "octave": 6}]},
        # shorter than the plan's 0.11 s envelope
        {"kind": "chord", "duration": 0.1, "notes": [0, 4]},
    ],
)
def test_render_checks_the_whole_plan_before_any_synthesis(
    capsys, tmp_path, monkeypatch, bad_event
):
    calls = []
    real = audio._voices

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(audio, "_voices", counted)
    plan = dict(STREAM_PLAN, events=[*STREAM_PLAN["events"], bad_event])
    code, out, err, out_path = _render_cli(capsys, tmp_path, plan)
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out_path.exists()
    assert calls == []
    # The counted function is the one the CLI synthesises with: once per
    # step, for the table of every frequency sounding there. The longest
    # event, the 0.5 s chord, lasts 11 steps.
    code, *_ = _render_cli(capsys, tmp_path, STREAM_PLAN)
    steps = -(-round(0.5 * audio.SAMPLE_RATE) // audio.BLOCK)
    assert (code, len(calls)) == (0, steps)


def test_render_removes_the_file_when_a_later_event_is_not_finite(
    capsys, tmp_path, monkeypatch
):
    real = audio._Mixer.__init__
    # The last sample of the second event, by its frame: steps are mixed on
    # several threads, so the order of the batches is not fixed.
    counts = [round(event["duration"] * audio.SAMPLE_RATE) for event in STREAM_PLAN["events"]]
    last = counts[0] + counts[1] - 1

    def poisoned(self, finish, plan):
        def poisoned_finish(samples, pieces):
            for frame, first, stop in pieces:
                if frame <= last < frame + stop - first:
                    samples[first + last - frame] = np.nan
            finish(samples, pieces)

        real(self, poisoned_finish, plan)

    monkeypatch.setattr(audio._Mixer, "__init__", poisoned)
    code, out, err, out_path = _render_cli(capsys, tmp_path, STREAM_PLAN)
    assert code == 2
    assert err.startswith("error: cannot write non-finite samples")
    assert err.count("\n") == 1
    assert not out_path.exists()


# A note of 20 blocks, then a rest of 10: far more steps than 4 threads.
MANY_BLOCKS_PLAN = _note_plan(
    events=[
        {"kind": "note", "duration": 20 * audio.BLOCK / audio.SAMPLE_RATE, "notes": [0]},
        {"kind": "rest", "duration": 10 * audio.BLOCK / audio.SAMPLE_RATE},
    ]
)


@pytest.mark.parametrize("threads", [1, 4])
def test_a_non_finite_sample_made_on_a_render_thread_exits_2(
    capsys, tmp_path, monkeypatch, threads
):
    monkeypatch.setattr(audio, "_thread_count", lambda: threads)
    real = audio._voices
    late = 17 * audio.BLOCK / audio.SAMPLE_RATE

    def poisoned(out, t, *args):
        real(out, t, *args)
        # The table of the 18th step, found by its times whatever the thread.
        if t[0] == late:
            out[:, 5] = np.nan

    monkeypatch.setattr(audio, "_voices", poisoned)
    code, out, err, out_path = _render_cli(capsys, tmp_path, MANY_BLOCKS_PLAN)
    assert (code, out, err) == (
        2, "", "error: cannot write non-finite samples (NaN or inf) to a WAV file\n"
    )
    assert not out_path.exists()


@pytest.mark.parametrize("threads", [1, 4])
def test_render_threads_stop_at_the_first_error(capsys, tmp_path, monkeypatch, threads):
    monkeypatch.setattr(audio, "_thread_count", lambda: threads)
    real, begun = audio._Mixer.step, []

    def failing(self, start, *args):
        begun.append(start)
        if start == 5 * audio.BLOCK:
            raise ValueError("step failed")
        real(self, start, *args)

    monkeypatch.setattr(audio._Mixer, "step", failing)
    code, out, err, out_path = _render_cli(capsys, tmp_path, MANY_BLOCKS_PLAN)
    assert (code, out, err) == (2, "", "error: step failed\n")
    assert not out_path.exists()
    # Steps are taken in order, and each other thread ends the one it has
    # begun, of the 20 the note lasts (the rest makes none).
    assert len(begun) <= 6 + threads - 1


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_render_threads_write_each_batch_before_mixing_another(
    capsys, tmp_path, monkeypatch, threads
):
    monkeypatch.setattr(audio, "_thread_count", lambda: threads)
    lock = threading.Lock()
    # Samples each thread has begun to mix and not begun to write, each
    # time it begins a batch, with that batch's; and the offsets written.
    unwritten, ahead, offsets = {}, [], []
    mix, pwrite = audio._Mixer.mix, os.pwrite

    def counted_mix(self, batch, start, t, *args):
        with lock:
            me = threading.get_ident()
            unwritten[me] = unwritten.get(me, 0) + len(batch) * len(t)
            ahead.append((unwritten[me], len(batch) * len(t)))
        mix(self, batch, start, t, *args)

    def counted_pwrite(fd, data, offset):
        # A slow writer, so the render threads run as far ahead as they may.
        time.sleep(0.005)
        with lock:
            unwritten[threading.get_ident()] = 0
            offsets.append(offset)
        return pwrite(fd, data, offset)

    monkeypatch.setattr(audio._Mixer, "mix", counted_mix)
    monkeypatch.setattr(os, "pwrite", counted_pwrite)
    code, out, err, out_path = _render_cli(capsys, tmp_path, MANY_BLOCKS_PLAN)
    assert (code, err) == (0, "")
    # Nothing but the batch a thread begins is left unwritten.
    assert all(left == cells <= audio.CHUNK for left, cells in ahead)
    # The header, the last frame (a 0 of the rest, giving the file its
    # length), and one piece a block of the note: the rest is never written.
    frames = 30 * audio.BLOCK
    notes = [44 + 2 * k * audio.BLOCK for k in range(20)]
    assert sorted(offsets) == [0, *notes, 44 + 2 * (frames - 1)]
    assert len(out_path.read_bytes()) == 44 + 2 * frames


@pytest.mark.parametrize(
    "argv",
    [
        ("counterpoint", "search", "-p", "6", "-q", "5", "--maximal", "--json"),
        ("validate", "-p", "4", "-q", "3"),
    ],
)
def test_a_closed_stdout_is_not_an_input_error(argv):
    # The read end is closed before the child starts, so every write to
    # stdout fails with EPIPE, whether during the output or the last flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cayleytones.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            check=False, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def _parent_build_parser(command=None):
    """cli._build_parser as it was when every call built all nine commands
    in full from two parent parsers; kept as the reference for what each
    call prints."""
    system_flags = argparse.ArgumentParser(add_help=False)
    system_flags.add_argument("-p", type=int, help="larger step factor")
    system_flags.add_argument("-q", type=int, help="smaller step factor")
    system_flags.add_argument(
        "-s", type=float, default=2.0, help="octave frequency ratio (default 2)"
    )
    system_flags.add_argument(
        "--f0", type=float, default=440.0, help="base frequency in Hz (default 440)"
    )
    system_flags.add_argument(
        "-n", type=int, help="rejected; the modulus is always derived as p*q"
    )

    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )
    output_flags.add_argument(
        "--pretty", action="store_true", help="indent JSON / prefer tables"
    )

    parser = cli._Parser(
        prog="cayleytones",
        description="Musical systems on Z_n = Z_pq: graphs, chords, "
        "counterpoint searches, and WAV rendering.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    cmd = sub.add_parser(
        "validate",
        parents=[system_flags, output_flags],
        help="check system parameters and report the normalized system",
    )
    cmd.set_defaults(handler=cli._cmd_validate)

    cmd = sub.add_parser(
        "graph",
        parents=[system_flags],
        help="export the step graph as DOT",
    )
    cmd.add_argument("--oriented", action="store_true", help="keep edge directions")
    cmd.add_argument("--out", help="write DOT to this file instead of stdout")
    cmd.set_defaults(handler=cli._cmd_graph)

    cmd = sub.add_parser(
        "distance",
        parents=[system_flags, output_flags],
        help="path length between two notes",
    )
    cmd.add_argument("a", type=int, help="start note")
    cmd.add_argument("b", type=int, help="end note")
    cmd.add_argument("--oriented", action="store_true", help="directed paths only")
    cmd.set_defaults(handler=cli._cmd_distance)

    cmd = sub.add_parser(
        "chords",
        parents=[system_flags, output_flags],
        help="chord catalog, or one root's triad and largest chord",
    )
    cmd.add_argument("--root", type=int, help="root note (with --quality)")
    cmd.add_argument("--quality", choices=[MAJOR, MINOR])
    cmd.set_defaults(handler=cli._cmd_chords)

    cmd = sub.add_parser(
        "scale",
        parents=[system_flags, output_flags],
        help="scale notes for a root and quality",
    )
    cmd.add_argument("--root", type=int, default=0, help="root note (default 0)")
    cmd.add_argument("--quality", choices=[MAJOR, MINOR], required=True)
    cmd.set_defaults(handler=cli._cmd_scale)

    cmd = sub.add_parser(
        "circle",
        parents=[system_flags, output_flags],
        help="circle-of-fifths sequence",
    )
    cmd.set_defaults(handler=cli._cmd_circle)

    cmd = sub.add_parser(
        "counterpoint",
        parents=[system_flags, output_flags],
        help="affine witness and partition searches",
    )
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
    cmd.set_defaults(handler=cli._cmd_counterpoint, mode="extend")

    cmd = sub.add_parser(
        "render",
        parents=[output_flags],
        help="render a JSON plan file to a WAV file",
    )
    cmd.add_argument("--plan", required=True, help="JSON plan file")
    cmd.add_argument("--out", required=True, help="output WAV path")
    cmd.set_defaults(handler=cli._cmd_render)

    cmd = sub.add_parser(
        "intervals",
        parents=[output_flags],
        help="Pythagorean vs equal-temperament reference table",
    )
    cmd.set_defaults(handler=cli._cmd_intervals)

    return parser


_COMMANDS = (
    "validate", "graph", "distance", "chords", "scale", "circle", "counterpoint",
    "render", "intervals",
)
_Z12 = ("-p", "4", "-q", "3")
_SEARCH = ("counterpoint", "search", *_Z12)


def _at(argv, columns=80):
    name = " ".join(argv) or "(none)"
    return pytest.param(argv, columns, id=f"{name} @{columns}" if columns != 80 else name)


# Help wraps at the terminal width, which each call reads from COLUMNS.
_HELP = (("--help",), ("validate", "-h"), ("counterpoint", "--help"), ("render", "-h"))


@pytest.mark.parametrize(
    "argv, columns",
    [_at(argv) for argv in [
        # Top-level help and errors, and argv that opens with an option.
        ("--help",),
        ("-h",),
        (),
        ("no-such-command",),
        ("--",),
        ("--", "validate", *_Z12),
        ("-x", "validate", *_Z12),
        ("-5",),
        *((name, "--help") for name in _COMMANDS),
        # The malformed shapes of the search-queries benchmark workload.
        ("validate", "-p", "4"),
        ("validate", "-p", "6", "-q", "4"),
        ("distance", *_Z12, "x", "1"),
        (*_SEARCH, "--weak", "--strong"),
        ("counterpoint", "search", "-p", "5", "-q", "2", "--strong", "--json"),
        (*_SEARCH, "--strong", "--consonants", "1,x"),
        ("counterpoint", "search", "-n", "12", *_Z12, "--weak"),
        ("scale", *_Z12),
        ("chords", *_Z12, "--root", "1"),
        # One valid call of each of its kinds, and of the other quick commands.
        (*_SEARCH, "--strong", "--json"),
        (*_SEARCH, "--strong", "--consonants", "0,3,4,7,8,9", "--pretty"),
        (*_SEARCH, "--weak", "--json"),
        ("counterpoint", "search", "-p", "5", "-q", "2", "--maximal", "--json"),
        ("distance", *_Z12, "1", "8", "--oriented", "--json"),
        ("circle", *_Z12, "--json"),
        ("scale", *_Z12, "--root", "2", "--quality", "minor", "--json"),
        ("chords", *_Z12, "--json"),
        ("chords", *_Z12, "--root", "5", "--quality", "major"),
        ("validate", *_Z12, "--json"),
        ("graph", *_Z12, "--oriented"),
        ("intervals",),
        ("validate", "-h"),
        ("render", "-h"),
    ]]
    + [_at(argv, columns) for argv in _HELP for columns in (60, 133)],
)
def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", _parent_build_parser)
        expected = run(capsys, *argv)
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv, most",
    [
        (("validate", *_Z12), 8),
        ((*_SEARCH, "--weak", "--json"), 17),
        (("--help",), 1),
    ],
)
def test_a_call_adds_only_the_arguments_of_its_command(capsys, monkeypatch, argv, most):
    # Every command with all its arguments takes 37 add_argument calls. A
    # call that names its command adds -h and the arguments of that command
    # alone: the top-level parser and the other eight are built without -h.
    # --help adds only the top-level -h.
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) <= most


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["cayleytones", *_SEARCH, "--weak", "--json"])
    assert main() == 0
    weak = capsys.readouterr().out
    assert run(capsys, *_SEARCH, "--weak", "--json") == (0, weak, "")
