"""End-to-end checks of the command line entry point."""

import hashlib
import json

import pytest

from cayleytones.cayley import CayleyGraph
from cayleytones.cli import main
from cayleytones.counterpoint import (
    ConsonantSeed,
    extend_to_partitions,
    fux_dichotomy,
    strong_search_report,
)
from cayleytones.music import MAJOR, circle_of_fifths, scale, system_from_factors

Z12 = system_from_factors(4, 3)


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
    assert out == circle_of_fifths(system_from_factors(5, 2)).to_json() + "\n"


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
    assert out == scale(Z12, 0, "minor").to_json() + "\n"


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


def test_counterpoint_strong_matches_module(capsys):
    code, out, err = run(
        capsys, "counterpoint", "search", "--strong", "-p", "4", "-q", "3"
    )
    assert code == 0
    graph = CayleyGraph(Z12.symmetric_generator_set, oriented=False)
    assert out == strong_search_report(fux_dichotomy(), graph).to_json() + "\n"
    data = json.loads(out)
    assert data["witnesses"] == [{"h": 5, "w": 2}]
    assert data["examined"] == 48


def test_counterpoint_strong_needs_consonants_elsewhere(capsys):
    code, out, err = run(
        capsys, "counterpoint", "search", "--strong", "-p", "5", "-q", "2"
    )
    assert code == 2
    assert "--consonants" in err


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
    graph = CayleyGraph(Z12.symmetric_generator_set, oriented=False)
    seed = ConsonantSeed(Z12.symmetric_generator_set)
    assert out == extend_to_partitions(seed, graph).to_json() + "\n"
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
    ],
)
def test_counterpoint_json_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, "counterpoint", "search", *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
