"""Equal-temperament frequencies and sample-level rendering to WAV."""

from __future__ import annotations

import math
import operator
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from ._value import value_type
from .cayley import MAX_MODULUS
from .music import MusicalSystem, validate_system

# numpy and wave are imported inside each function that uses them, so that
# the subcommands that make no audio start without them; annotations name
# numpy only.
if TYPE_CHECKING:
    import numpy as np

SAMPLE_RATE = 44100
# RIFF sizes are 32-bit: the 36 header bytes and 2 bytes a frame must fit.
_WAV_MAX_FRAMES = (2**32 - 1 - 36) // 2
# Event-relative samples a render step makes of every event sounding there.
BLOCK = 2048
# A render thread's voice table holds ROWS x BLOCK float64 samples (32 MB,
# touched only as far as a step's frequencies reach): ROWS frequencies a
# full step, more in a step narrowed to fit them all.
ROWS = 2048
# The most samples a render thread mixes, checks and hands on in one batch.
CHUNK = 32_768


class InvalidEnvelopeError(ValueError):
    """Raised when an envelope cannot fit inside a note's duration."""


def note_frequency(system: MusicalSystem, k: int, octave_shift: int = 0) -> float:
    """Frequency of note index k: f0 * s^(k/n), shifted by whole octaves.

    Indices are not reduced mod n; octaves above and below are reached
    by larger indices or by the explicit shift. The ladder is climbed by
    repeated multiplication so that transposing the base frequency by j
    steps reproduces note k+j bit for bit.
    """
    ratio = system.s ** (1.0 / system.n)
    f = system.f0
    for _ in range(k):
        f *= ratio
    for _ in range(-k):
        f /= ratio
    for _ in range(octave_shift):
        f *= system.s
    for _ in range(-octave_shift):
        f /= system.s
    return f


@value_type
class ToneSpec:
    """A frequency in Hz and a duration in seconds, both positive."""

    frequency: float
    duration: float

    def __post_init__(self) -> None:
        if not self.frequency > 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not (math.isfinite(self.frequency) and math.isfinite(self.duration)):
            raise ValueError(
                f"frequency and duration must be finite, got {self.frequency} Hz "
                f"for {self.duration} s"
            )


@value_type
class SampleBuffer:
    """Immutable mono samples at a fixed rate in Hz; a writeable array is
    copied. write_wav clips them to [-32768, 32767] / 32767, the range
    read_wav gives back."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self) -> None:
        rate = self.sample_rate
        # Any integer type, numpy's too, but not a bool.
        if isinstance(rate, bool) or not hasattr(rate, "__index__"):
            raise ValueError(f"sample_rate must be an integer, got {rate!r}")
        rate = operator.index(rate)
        # A WAV header stores 2 * rate, the bytes a second, in 32 bits.
        if not 1 <= rate < 2**31:
            raise ValueError(f"sample_rate must be 1 to {2**31 - 1} Hz, got {rate}")
        object.__setattr__(self, "sample_rate", rate)
        import numpy as np

        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.flags.writeable:
            # It may still be the caller's: the buffer keeps its own copy.
            samples = samples.copy()
        if samples.ndim != 1:
            raise ValueError(
                f"samples must be one-dimensional, got shape {samples.shape}"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __eq__(self, other: object) -> bool:
        # Equal rates and samples. Left unhashable: a hash of the samples'
        # bytes would tell apart -0.0 and 0.0, which compare equal.
        if other.__class__ is not self.__class__:
            return NotImplemented
        import numpy as np

        return self.sample_rate == other.sample_rate and np.array_equal(
            self.samples, other.samples
        )

    def __len__(self) -> int:
        return len(self.samples)


def _check_duration(duration: float) -> int:
    """The samples duration lasts; ValueError unless that is at least one
    and at most what a WAV file holds."""
    # Checked before rounding, which a product past the float range breaks.
    if not SAMPLE_RATE * duration <= _WAV_MAX_FRAMES:
        raise ValueError(
            f"a {duration} s event lasts more than the {_WAV_MAX_FRAMES} samples "
            "a WAV file holds"
        )
    count = round(SAMPLE_RATE * duration)
    if count == 0:
        raise ValueError(
            f"a {duration} s event is shorter than one sample at {SAMPLE_RATE} Hz"
        )
    return count


def _check_frequency(frequency: float, what: str) -> None:
    """Raise ValueError unless frequency is below the Nyquist frequency
    SAMPLE_RATE / 2, where it would alias; what names the sound."""
    if frequency >= SAMPLE_RATE / 2:
        raise ValueError(
            f"{what} sounds at {frequency} Hz, "
            f"not below the Nyquist frequency {SAMPLE_RATE / 2} Hz"
        )


def pure_tone(spec: ToneSpec) -> SampleBuffer:
    """samples[i] = sin(2*pi*f*t_i) with t_i = i / SAMPLE_RATE."""
    _check_duration(spec.duration)
    _check_frequency(spec.frequency, "the tone")
    samples = _event_samples(spec.duration, (spec.frequency,), None, 0.0)
    samples.setflags(write=False)
    return SampleBuffer(samples)


@value_type
class Envelope:
    """Linear attack-decay-sustain-release amplitude profile in [0, 1]."""

    attack: float = 0.02
    decay: float = 0.05
    sustain_level: float = 0.8
    release: float = 0.05

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not (self.attack >= 0 and self.decay >= 0 and self.release >= 0):
            raise ValueError("envelope segment durations must be nonnegative")
        if not 0 <= self.sustain_level <= 1:
            raise ValueError("sustain level must lie in [0, 1]")
        if not math.isfinite(self.attack + self.decay + self.release):
            raise ValueError(
                "envelope segments must sum to a finite time, got attack "
                f"{self.attack}, decay {self.decay} and release {self.release}"
            )

    def check_fits(self, duration: float) -> None:
        """Raise InvalidEnvelopeError if the segments outlast the note."""
        if self.attack + self.decay + self.release > duration:
            raise InvalidEnvelopeError(
                f"envelope spans {self.attack + self.decay + self.release}s "
                f"but the note lasts {duration}s"
            )

    def amplitudes(self, t: np.ndarray, duration=None) -> np.ndarray:
        """The gain at each time in t of a note of this duration, or a row of
        them for each of a column of durations; with no duration, of a note
        that has not ended, so without the release.

        t must be non-decreasing, as every time axis here is, so that the
        attack and decay are slices of it; a t that is not is refused with
        ValueError. Attack, decay and release are written in that order, a
        later segment over an earlier one where they meet. Each gain
        depends only on its own time, the envelope and the duration.
        """
        import numpy as np

        if not (t[1:] >= t[:-1]).all():
            raise ValueError("envelope times must be non-decreasing")
        a, d = np.searchsorted(t, (self.attack, self.attack + self.decay))
        g = np.full(len(t), self.sustain_level, dtype=np.float64)
        if self.attack > 0:
            g[:a] = t[:a] / self.attack
        if self.decay > 0:
            g[a:d] = (
                1.0 - (1.0 - self.sustain_level) * (t[a:d] - self.attack) / self.decay
            )
        if duration is None:
            return g
        self.check_fits(np.min(duration))
        rows = np.subtract(duration, t)
        if self.release > 0:
            np.multiply(self.sustain_level, rows, out=rows)
            np.divide(rows, self.release, out=rows)
            np.copyto(rows, g, where=t < np.subtract(duration, self.release))
        else:
            np.copyto(rows, g)
        return rows


def _voices(
    out: np.ndarray,
    t: np.ndarray,
    frequencies: Sequence[float],
    modulation_depth: float,
) -> None:
    """Write the voice of frequencies[j], sin(2*pi*f*(t + m*sin(2*pi*f*t))),
    into row j of the 2-D out, before any envelope.

    The steps, in this order, fix every output bit: phase*t, sin, depth*,
    t+, phase*, sin. Each is elementwise, so a sample does not depend on
    the other rows or columns of out.
    """
    import numpy as np

    phase = (2.0 * np.pi * np.asarray(frequencies, dtype=np.float64))[:, None]
    np.multiply(phase, t, out=out)
    # t + 0 * sin(...) is t, so a zero depth skips the inner sin bit-exactly.
    if modulation_depth:
        np.sin(out, out=out)
        np.multiply(out, modulation_depth, out=out)
        np.add(t, out, out=out)
        np.multiply(out, phase, out=out)
    np.sin(out, out=out)


@value_type
class RenderEvent:
    """One plan entry: a note, a chord, or a rest.

    Notes are (residue, octave_shift) pairs; rests carry none.
    """

    kind: str
    duration: float
    notes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("note", "chord", "rest"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not self.duration > 0:
            raise ValueError("event durations must be positive")
        if not math.isfinite(self.duration):
            raise ValueError(f"event durations must be finite, got {self.duration}")
        if self.kind == "rest" and self.notes:
            raise ValueError("rests carry no notes")
        if self.kind == "note" and len(self.notes) != 1:
            raise ValueError("a note event carries exactly one note")
        if self.kind == "chord" and not self.notes:
            raise ValueError("a chord event carries at least one note")


@value_type
class RenderPlan:
    """A system, an ordered list of events to render back to back, and the
    envelope and phase-modulation depth every sounding event shares.

    Everything rendering needs is checked here, event by event in plan
    order, so a bad plan is refused before any audio is made and the error
    names its first bad event: every event lasts at least one sample, every
    note is a residue of Z_n at |octave| <= MAX_MODULUS, sounds below the
    Nyquist frequency SAMPLE_RATE / 2, where it would alias, and keeps its
    phases finite at the modulation depth, and the envelope fits inside
    every sounding event. Last, the whole plan must fit in one WAV file.
    The checks keep the plan's frame count and, for rendering, a (samples,
    first frame, duration, frequencies) record of each event with notes.
    """

    system: MusicalSystem
    events: tuple[RenderEvent, ...]
    envelope: Optional[Envelope] = None
    modulation_depth: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.modulation_depth):
            raise ValueError(
                f"modulation_depth must be finite, got {self.modulation_depth}"
            )
        if not self.events:
            raise ValueError("a render plan needs at least one event")
        sounding, frames = [], 0
        for event in self.events:
            count = _check_duration(event.duration)
            frequencies = []
            for note, octave in event.notes:
                # note_frequency climbs one step per index and per octave, so
                # both are bounded before its frequency is computed.
                if not 0 <= note < self.system.n:
                    raise ValueError(
                        f"note {note} outside residues of Z_{self.system.n}"
                    )
                if abs(octave) > MAX_MODULUS:
                    raise ValueError(
                        f"octave {octave} outside [-{MAX_MODULUS}, {MAX_MODULUS}]"
                    )
                spec = ToneSpec(note_frequency(self.system, note, octave), event.duration)
                _check_frequency(spec.frequency, f"note {note} at octave {octave}")
                # Bounds every phase _voices makes: |t + m*sin(...)| <= duration + |m|.
                span = event.duration + abs(self.modulation_depth)
                if not math.isfinite(2.0 * math.pi * spec.frequency * span):
                    raise ValueError(
                        f"note {note} at octave {octave} with modulation_depth "
                        f"{self.modulation_depth} has a phase past the float range"
                    )
                frequencies.append(spec.frequency)
            if frequencies:
                if self.envelope is not None:
                    self.envelope.check_fits(event.duration)
                sounding.append((count, frames, event.duration, tuple(frequencies)))
            frames += count
        if frames > _WAV_MAX_FRAMES:
            raise ValueError(
                f"the plan lasts {frames} samples; "
                f"a WAV file holds at most {_WAV_MAX_FRAMES}"
            )
        object.__setattr__(self, "_sounding", tuple(sounding))
        object.__setattr__(self, "_frames", frames)

    def frames(self) -> int:
        """The samples of the whole plan."""
        return self._frames

    @classmethod
    def from_dict(cls, data: dict) -> "RenderPlan":
        """The plan in a plan file's JSON object; a key it does not read, in
        any object, is refused rather than ignored."""
        _object(
            data, "a render plan", ("system", "events"), "envelope", "modulation_depth"
        )
        sysdata = _object(data["system"], "system", ("p", "q"), "n", "s", "f0")
        p, q = _integer(sysdata["p"], "p"), _integer(sysdata["q"], "q")
        system = validate_system(
            _integer(sysdata.get("n", p * q), "n"),
            p,
            q,
            _real(sysdata.get("s", 2.0), "s"),
            _real(sysdata.get("f0", 440.0), "f0"),
        )
        events = []
        for entry in _expect(data["events"], list, "events"):
            kind = _object(entry, "an event", ("kind", "duration"), "notes")["kind"]
            notes = []
            for item in _expect(entry.get("notes", []), list, "notes"):
                if isinstance(item, dict):
                    _object(item, "a note", ("note",), "octave")
                    note, octave = item["note"], item.get("octave", 0)
                else:
                    note, octave = item, 0
                notes.append((_integer(note, "note"), _integer(octave, "octave")))
            duration = _real(entry["duration"], "duration")
            events.append(RenderEvent(kind, duration, tuple(notes)))
        return cls(
            system,
            tuple(events),
            envelope_from_dict(data.get("envelope")),
            _real(data.get("modulation_depth", 0.0), "modulation_depth"),
        )


def _expect(value, kind: type, what: str):
    """value itself if it has the JSON shape kind (dict or list)."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {shape}, got {type(value).__name__}")
    return value


def _object(value, what: str, required: tuple, *optional: str) -> dict:
    """value itself if it is a JSON object with every key of required and no
    key but those and optional."""
    for key in _expect(value, dict, what):
        if key not in required and key not in optional:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in value:
            raise ValueError(f"missing field {key!r} in {what}")
    return value


def _integer(value, what: str) -> int:
    """value itself if it is a JSON integer, not a float or a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _real(value, what: str) -> float:
    """float(value) if value is a JSON number; booleans, strings, null, lists
    and objects are refused in one line."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{what} must be finite, got an integer past the float range"
        ) from None


def envelope_from_dict(data: Optional[dict]) -> Optional[Envelope]:
    """Envelope from a plan file's optional 'envelope' object."""
    if data is None:
        return None
    # Every Envelope field has a default, so these are all of them, in order.
    _object(data, "envelope", (), *Envelope._field_defaults)
    return Envelope(
        *(
            _real(data.get(name, default), name)
            for name, default in Envelope._field_defaults.items()
        )
    )


def _thread_count() -> int:
    """The CPUs this process may run on: one render thread each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _event_samples(
    duration: float,
    frequencies: Sequence[float],
    envelope: Optional[Envelope],
    modulation_depth: float,
) -> np.ndarray:
    """All samples of one event, made on their own: the equal mix of its
    voices, or silence. The slow oracle that _synthesise is checked
    against, and pure_tone's path."""
    import numpy as np

    count = round(SAMPLE_RATE * duration)
    mixed = np.zeros(count)
    t = np.arange(count, dtype=np.float64) / SAMPLE_RATE
    g = None
    if envelope is not None and frequencies:
        g = envelope.amplitudes(t, duration)
    voice = np.empty((1, count))
    for frequency in frequencies:
        _voices(voice, t, (frequency,), modulation_depth)
        if g is not None:
            np.multiply(voice, g, out=voice)
        np.multiply(voice, 1.0 / len(frequencies), out=voice)
        mixed += voice[0]
    return mixed


class _Mixer:
    """One render thread: its voice table, and the chunk it mixes each batch
    into before it passes the batch to finish."""

    def __init__(self, finish: Callable, plan: RenderPlan):
        import numpy as np

        self.finish, self.envelope = finish, plan.envelope
        self.modulation_depth = plan.modulation_depth
        self.table, self.work = np.empty(ROWS * BLOCK), np.empty(CHUNK)
        self.chunk = np.zeros(CHUNK)

    def step(self, start: int, width: int, events: list[tuple], index: dict) -> None:
        """Mix samples start to start + width of each of the events, most
        voices first, whose frequencies have the rows index of the table."""
        import numpy as np

        # start + k is exact, so this is the event's arange / rate.
        t = np.arange(start, start + width, dtype=np.float64) / SAMPLE_RATE
        cells = len(index) * width
        # Wider than the table only at width 1, for a step that sounds more
        # than ROWS * BLOCK frequencies.
        table = self.table if cells <= len(self.table) else np.empty(cells)
        rows = table[:cells].reshape(-1, width)
        _voices(rows, t, tuple(index), self.modulation_depth)
        # Events whose release has begun are mixed first, each with its own
        # gains; then the table is multiplied by the gain once for the others.
        envelope, own, shared = self.envelope, [], []
        release = 0.0 if envelope is None else envelope.release
        for event in events:
            (own if release and t[-1] >= event[2] - release else shared).append(event)
        size = CHUNK // width
        for first in range(0, len(own), size):
            batch = own[first : first + size]
            durations = np.array([event[2] for event in batch])[:, None]
            self.mix(batch, start, t, rows, index, envelope.amplitudes(t, durations))
        if envelope is not None and shared:
            np.multiply(rows, envelope.amplitudes(t), out=rows)
        for first in range(0, len(shared), size):
            self.mix(shared[first : first + size], start, t, rows, index)

    def mix(self, batch: list[tuple], start: int, t, rows, index, gains=None) -> None:
        """Mix the batch's events, most voices first, into the chunk, each as
        one row len(t) wide: their k-th voices together, taken from rows, by
        the steps of _event_samples, times each event's gains unless the
        table holds them. Then pass the rows, cut to length, to finish."""
        import numpy as np

        width = len(t)
        cells = len(batch) * width
        mixed = self.chunk[:cells].reshape(-1, width)
        voices = self.work[:cells].reshape(-1, width)
        weights = np.array([1.0 / len(event[3]) for event in batch])[:, None]
        count = len(batch)
        for k in range(len(batch[0][3])):
            while len(batch[count - 1][3]) <= k:
                count -= 1
            voice = voices[:count]
            rows.take([index[event[3][k]] for event in batch[:count]], 0, voice)
            if gains is not None:
                np.multiply(voice, gains[:count], out=voice)
            # Times 1.0 is exact, so a batch of one-voice events skips it.
            if len(batch[0][3]) > 1:
                np.multiply(voice, weights[:count], out=voice)
            np.add(mixed[:count], voice, out=mixed[:count])
        pieces = [
            (frame + start, row * width, row * width + min(width, length - start))
            for row, (length, frame, _, _) in enumerate(batch)
        ]
        self.finish(self.chunk[:cells], pieces)
        self.chunk[:cells].fill(0.0)


def _synthesise(plan: RenderPlan, finish: Callable) -> None:
    """Make the samples of the plan's notes and chords, not its rests, and
    pass each batch of them to finish(samples, pieces) on the render thread
    that mixed it, in no fixed order: for each (frame, first, stop) in
    pieces, samples[first:stop] start at that frame.

    Each step makes the next samples, by their index in the event, of
    every event that lasts past its start. A voice before its envelope
    depends only on its frequency and the sample's index in the event, so
    each frequency sounding there is made once a step into one row of a
    table, from which each event mixes its voices in its own order; the
    attack, decay and sustain gain too is made once a step, and only
    release tails per event. A step of F frequencies is min(BLOCK, ROWS *
    BLOCK // F) samples wide, at least one and never past the longest
    event, so the table of ROWS x BLOCK samples, 32 MB, holds them all and
    is touched only as far as its F rows reach (a step of more than ROWS *
    BLOCK = 4,194,304 frequencies is one sample wide, and allocates its F).
    So each sample of a frequency is made once. Each thread takes the next
    step as it finishes one, and mixes its events in batches of at most
    CHUNK samples, each passed to finish as soon as it is mixed. So up to
    ROWS * BLOCK frequencies a step, memory is bounded by BLOCK, ROWS,
    CHUNK and the thread count, whatever the plan, and as every sample is
    made by the elementwise steps of _event_samples in their order, it
    does not depend on the step or thread.
    """
    # Imported here, as only rendering needs them and they slow every start-up.
    from concurrent.futures import ThreadPoolExecutor
    from threading import Lock

    # Most voices first, once, so that in every step and batch the events
    # that sound a k-th voice are a prefix.
    events = sorted(plan._sounding, key=lambda event: -len(event[3]))
    longest = max((event[0] for event in events), default=0)

    def make_steps() -> Iterator[tuple]:
        start, sounding = 0, events
        while start < longest:
            sounding = [event for event in sounding if event[0] > start]
            frequencies = dict.fromkeys(f for event in sounding for f in event[3])
            index = {f: row for row, f in enumerate(frequencies)}
            width = min(BLOCK, longest - start, max(ROWS * BLOCK // len(index), 1))
            yield start, width, sounding, index
            start += width

    steps, lock = make_steps(), Lock()

    def next_step() -> Optional[tuple]:
        with lock:
            return next(steps, None)

    def stop() -> None:
        # The threads stop at their next step.
        with lock:
            steps.close()

    def work(mixer: _Mixer) -> None:
        try:
            for step in iter(next_step, None):
                mixer.step(*step)
        except BaseException:
            stop()
            raise

    threads = _thread_count()
    with ThreadPoolExecutor(threads) as pool:
        try:
            list(pool.map(work, [_Mixer(finish, plan) for _ in range(threads)]))
        finally:
            stop()  # also on an interrupt while this thread waits


def render(plan: RenderPlan) -> SampleBuffer:
    """The plan's samples (see _synthesise) in one buffer; rests are the
    zeros it starts from."""
    import numpy as np

    samples = np.zeros(plan.frames())

    def finish(chunk: np.ndarray, pieces: list[tuple]) -> None:
        for frame, first, stop in pieces:
            samples[frame : frame + stop - first] = chunk[first:stop]

    _synthesise(plan, finish)
    samples.setflags(write=False)
    return SampleBuffer(samples)


def _quantize(samples: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The int16 samples of a WAV file: each sample rounded half away from
    zero, clamped to the valid range, or ValueError if one is not finite.

    Works in place on one scaled copy, or on out (which may be samples
    itself): floor(|x| * 32767 + 0.5), then negated where x has its sign
    bit set (so -0.0 stays -0.0 and quantizes to 0). Each step is a plain
    ufunc, which releases the GIL to the other render threads.
    """
    import numpy as np

    if not np.isfinite(samples).all():
        raise ValueError("cannot write non-finite samples (NaN or inf) to a WAV file")
    negative = np.signbit(samples)
    scaled = np.abs(samples, out=out)
    scaled *= 32767.0
    scaled += 0.5
    np.floor(scaled, out=scaled)
    np.negative(scaled, out=scaled, where=negative)
    np.clip(scaled, -32768, 32767, out=scaled)
    return scaled.astype("<i2")


@contextmanager
def _wav_file(path, frames: int, sample_rate: int) -> Iterator[Callable]:
    """Open path for a mono 16-bit PCM WAV file of frames samples, write its
    RIFF header and a 0 as its last frame, so that any frame not written
    reads 0, and give put(frame, pcm), which writes the int16 samples pcm
    from that frame on, in any order and from any thread.

    Positioned writes need a seekable file, which a pipe is not; that is
    checked as soon as it is open. If anything fails once it is open, the
    partial file is removed and the error re-raised.
    """
    import struct

    # Opening the file first keeps a bad path to the one OSError.
    with open(path, "wb") as raw:
        try:
            if not raw.seekable():
                raise ValueError(
                    f"cannot write a WAV file to {path}: it is not seekable"
                )

            def put(frame: int, data) -> None:
                # A short write is a full disk, not part of a file to keep.
                written = os.pwrite(raw.fileno(), data, 44 + 2 * frame)
                if written < memoryview(data).nbytes:
                    raise OSError(f"short write to {path}")

            size = 2 * frames
            # The header is the 44 bytes, 22 frames' worth, before frame 0.
            put(-22, struct.pack(
                "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + size, b"WAVE", b"fmt ", 16, 1, 1,
                sample_rate, 2 * sample_rate, 2, 16, b"data", size,
            ))
            if frames:
                put(frames - 1, b"\0\0")
            yield put
        except BaseException:
            raw.close()
            # A device such as /dev/null is not a partial file to remove.
            if os.path.isfile(path):
                os.remove(path)
            raise


def _render_wav(plan: RenderPlan, path) -> int:
    """Render the plan into a WAV file at path; return its frame count.
    Each batch is checked and quantized (see _quantize) on the render thread
    that mixed it, and its pieces written there."""

    def finish(chunk: np.ndarray, pieces: list[tuple]) -> None:
        # The chunk is cleared once finished, so it is quantized in place.
        pcm = _quantize(chunk, chunk)
        for frame, first, stop in pieces:
            put(frame, pcm[first:stop])

    with _wav_file(path, plan.frames(), SAMPLE_RATE) as put:
        _synthesise(plan, finish)
    return plan.frames()


def write_wav(buffer: SampleBuffer, path) -> None:
    """16-bit signed little-endian PCM, mono, standard RIFF header.

    The samples are checked and quantized one CHUNK at a time, so the
    copies that takes never hold more than one chunk."""
    samples = buffer.samples
    with _wav_file(path, len(samples), buffer.sample_rate) as put:
        for i in range(0, len(samples), CHUNK):
            put(i, _quantize(samples[i : i + CHUNK]))


def read_wav(path) -> SampleBuffer:
    """Read back a mono 16-bit WAV into samples divided by 32767, so in
    [-32768 / 32767, 1]; a rate SampleBuffer refuses is refused."""
    import wave

    import numpy as np

    with wave.open(str(path), "rb") as handle:
        if handle.getnchannels() != 1 or handle.getsampwidth() != 2:
            raise ValueError("expected mono 16-bit PCM")
        rate = handle.getframerate()
        raw = handle.readframes(handle.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    samples.setflags(write=False)
    return SampleBuffer(samples, rate)
