"""Seeded inputs for the three workloads.

Each workload is a list of ops plus the files they read. An op is a dict
whose "argv" is all the program sees; its other keys tell the checker what
to expect. Sizes are fixed and only the seeded choices vary, so two seeds
give inputs of the same size and comparable cost.
"""

from __future__ import annotations

import hashlib
import json
import random

from oracle import system, systems

WORKLOADS = ("search-extend", "search-queries", "render")

# search-extend: the even systems n = 10..30; refine on the smaller ones.
EXTEND_SYSTEMS = ((5, 2), (4, 3), (7, 2), (9, 2), (5, 4), (11, 2), (8, 3), (13, 2), (7, 4), (6, 5))
REFINE_MAX_N = 20
# Partition counts from the ROADMAP, by (p, q).
EXPECTED_PARTITIONS = {(5, 4): 244, (7, 4): 7072, (6, 5): 15520}

# search-queries: every valid system with n <= 40, shuffled. The seven
# small-call kinds have equal shares. A maximal search costs about fifty small
# calls on average and up to 250 at n = 30, so it runs once per system with
# n <= 30 instead of at an equal share, which would make the workload mostly
# maximal searches; even so it takes about 45% of a pass. Malformed argv is
# a small share, 50 of the 1,010 ops (5%).
QUERY_SYSTEMS = tuple(systems(40))
MAXIMAL_SYSTEMS = tuple(s for s in QUERY_SYSTEMS if s[0] * s[1] <= 30)
QUERY_KINDS = ("strong", "weak", "distance", "circle", "scale", "chords", "validate")
QUERY_EACH = 135
MALFORMED = 50

# render: one segment of short notes, one of chords and rests.
SHORT_NOTES = 1143  # durations evenly spaced over 0.1..0.25 s: 200.0 s in all
CHORD_VOICES = (3, 4, 5, 6, 7, 8)
CHORD_SECONDS = (2.0, 3.2, 4.4, 5.6, 6.8, 8.0)  # each paired once with each voice count: 180 s
RESTS = 20  # of 1.0 s each
ENVELOPE = {"attack": 0.01, "decay": 0.03, "sustain_level": 0.7, "release": 0.04}
MODULATION_DEPTH = 0.0003
PLAN_FILE = "plan.json"
WAV_FILE = "out.wav"


def _sys_args(p: int, q: int) -> list[str]:
    return ["-p", str(p), "-q", str(q)]


def _search(p: int, q: int, mode: str, *extra: str) -> list[str]:
    return ["counterpoint", "search", *_sys_args(p, q), f"--{mode}", *extra, "--json"]


def search_extend(rng: random.Random) -> tuple[list[dict], dict]:
    ops = []
    for p, q in EXTEND_SYSTEMS:
        ops.append({"kind": "extend", "p": p, "q": q, "argv": _search(p, q, "extend")})
        if p * q <= REFINE_MAX_N:
            ops.append({"kind": "refine", "p": p, "q": q, "argv": _search(p, q, "refine")})
    rng.shuffle(ops)
    return ops, {}


def _strong(rng: random.Random, p: int, q: int) -> dict:
    sys_ = system(p, q)
    n = sys_.n
    if (p, q) == (4, 3) and rng.random() < 0.3:
        return {"kind": "strong", "p": p, "q": q, "K": [0, 3, 4, 7, 8, 9], "argv": _search(p, q, "strong")}
    if n % 2 == 0 and rng.random() < 0.5:
        # One residue from each orbit pair of a fixed-point-free involutive
        # isometry: a partition with at least one strong witness.
        h, w = rng.choice(sys_.fixed_point_free())
        K = [rng.choice(pair) for pair in sys_.orbit_pairs(h, w, range(n))]
    else:
        K = rng.sample(range(n), n // 2)
    rng.shuffle(K)
    text = ",".join(str(x) for x in K)
    return {"kind": "strong", "p": p, "q": q, "K": sorted(K), "argv": _search(p, q, "strong", "--consonants", text)}


def _maximal(rng: random.Random, p: int, q: int) -> dict:
    sys_ = system(p, q)
    weak = sys_.weak_witnesses()
    if weak and rng.random() < 0.5:
        # A map with as many free pairs as the default one, weak[0], so that
        # the search makes as many sets whichever map the seed picks.
        size = len(sys_.free_pairs(*weak[0]))
        h, w = rng.choice([m for m in weak if len(sys_.free_pairs(*m)) == size])
        argv = _search(p, q, "maximal", "--multiplier", str(h), "--offset", str(w))
        return {"kind": "maximal", "p": p, "q": q, "map": [h, w], "argv": argv}
    return {"kind": "maximal", "p": p, "q": q, "map": list(weak[0]) if weak else None, "argv": _search(p, q, "maximal")}


def _malformed(rng: random.Random) -> dict:
    p, q = rng.choice(QUERY_SYSTEMS)
    a, b = rng.choice(((4, 2), (6, 4), (9, 3), (10, 4)))
    argv = rng.choice(
        (
            ["validate", "-p", str(p)],
            ["validate", *_sys_args(a, b)],
            ["distance", *_sys_args(p, q), "x", "1"],
            ["counterpoint", "search", *_sys_args(p, q), "--weak", "--strong"],
            ["counterpoint", "search", "-p", "5", "-q", "2", "--strong", "--json"],
            ["counterpoint", "search", *_sys_args(p, q), "--strong", "--consonants", "1,x"],
            ["counterpoint", "search", "-n", str(p * q), *_sys_args(p, q), "--weak"],
            ["scale", *_sys_args(p, q)],
            ["chords", *_sys_args(p, q), "--root", "1"],
            ["no-such-command"],
        )
    )
    return {"kind": "malformed", "argv": argv}


def _query(rng: random.Random, kind: str, p: int, q: int) -> dict:
    if kind == "strong":
        return _strong(rng, p, q)
    n = p * q
    op = {"kind": kind, "p": p, "q": q}
    if kind == "weak":
        op["argv"] = _search(p, q, "weak")
    elif kind == "distance":
        a, b, oriented = rng.randrange(n), rng.randrange(n), rng.random() < 0.5
        op.update(a=a, b=b, oriented=oriented)
        op["argv"] = ["distance", *_sys_args(p, q), str(a), str(b), *(["--oriented"] if oriented else []), "--json"]
    elif kind == "circle":
        op["argv"] = ["circle", *_sys_args(p, q), "--json"]
    elif kind in ("scale", "chords"):
        root, quality = rng.randrange(n), rng.choice(("major", "minor"))
        if kind == "chords" and rng.random() < 0.5:
            op["argv"] = ["chords", *_sys_args(p, q), "--json"]
        else:
            op.update(root=root, quality=quality)
            op["argv"] = [kind, *_sys_args(p, q), "--root", str(root), "--quality", quality, "--json"]
    elif kind == "validate":
        s, f0 = rng.choice((2.0, 3.0, 1.5)), float(f"{rng.uniform(100, 1000):.2f}")
        op.update(s=s, f0=f0)
        op["argv"] = ["validate", *_sys_args(p, q), "-s", repr(s), "--f0", repr(f0), "--json"]
    return op


def search_queries(rng: random.Random) -> tuple[list[dict], dict]:
    # Each kind visits every system equally often; the seed draws the rest.
    whole, rest = divmod(QUERY_EACH, len(QUERY_SYSTEMS))
    ops = []
    for kind in QUERY_KINDS:
        for p, q in list(QUERY_SYSTEMS) * whole + rng.sample(QUERY_SYSTEMS, rest):
            ops.append(_query(rng, kind, p, q))
    ops += [_malformed(rng) for _ in range(MALFORMED)]
    ops += [_maximal(rng, p, q) for p, q in MAXIMAL_SYSTEMS]
    rng.shuffle(ops)
    return ops, {}


def _note(rng: random.Random, n: int) -> dict:
    return {"note": rng.randrange(n), "octave": rng.choice((-1, 0, 1))}


def render_plan(rng: random.Random) -> dict:
    p, q = rng.choice(QUERY_SYSTEMS)
    n = p * q
    short = [
        {"kind": "note", "duration": round(0.1 + 0.15 * i / (SHORT_NOTES - 1), 5), "notes": [_note(rng, n)]}
        for i in range(SHORT_NOTES)
    ]
    rng.shuffle(short)
    long = []
    for voices, seconds in zip(CHORD_VOICES * len(CHORD_SECONDS), sorted(CHORD_SECONDS * len(CHORD_VOICES))):
        picks = rng.sample([(k, o) for k in range(n) for o in (-1, 0, 1)], voices)
        long.append({"kind": "chord", "duration": seconds, "notes": [{"note": k, "octave": o} for k, o in picks]})
    long += [{"kind": "rest", "duration": 1.0} for _ in range(RESTS)]
    rng.shuffle(long)
    return {
        "system": {"p": p, "q": q, "s": 2.0, "f0": 220.0},
        "envelope": ENVELOPE,
        "modulation_depth": MODULATION_DEPTH,
        "events": short + long,
    }


def render(rng: random.Random) -> tuple[list[dict], dict]:
    plan = render_plan(rng)
    op = {"kind": "render", "argv": ["render", "--plan", PLAN_FILE, "--out", WAV_FILE, "--json"], "files": [WAV_FILE]}
    return [op], {PLAN_FILE: json.dumps(plan, indent=1).encode()}


def generate(workload: str, seed: int) -> tuple[list[dict], dict[str, bytes]]:
    """The ops and input files of one workload; the same seed gives the same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"search-extend": search_extend, "search-queries": search_queries, "render": render}[workload]
    return make(rng)


def digest(ops: list[dict], files: dict[str, bytes]) -> str:
    h = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()


def sizes(workload: str, ops: list[dict], files: dict[str, bytes]) -> dict:
    """The size of the inputs, which must not depend on the seed."""
    out = {"ops": len(ops), "kinds": {}}
    for op in ops:
        out["kinds"][op["kind"]] = out["kinds"].get(op["kind"], 0) + 1
    if workload == "search-extend":
        out["n"] = sorted(p * q for p, q in EXTEND_SYSTEMS)
    if workload == "render":
        events = json.loads(files[PLAN_FILE])["events"]
        out["events"] = len(events)
        out["voices"] = sum(len(e.get("notes", ())) for e in events)
        out["frames"] = sum(round(44100 * e["duration"]) for e in events)
        out["audio_s"] = round(out["frames"] / 44100, 3)
    return out
